//! `serve-bo` and `serve-slow`: open-loop tenant traffic against an
//! in-process daemon configured as `experiments serve` configures it by
//! default (4 session workers, 12 dispatch threads, admission queue 64,
//! null-sink telemetry on), over a `PersistentMemoStore` in a scratch
//! directory inside the build directory.
//!
//! Set-up boots the daemon, opens the store and warms the selection
//! cache for the five workload keys over the wire; it is repeated and
//! `setup_s` is the median. The load comes from this process: one
//! generator thread multiplexes every tenant over at most `nproc`
//! connections. Sessions arrive open-loop on a fixed schedule; each
//! tenant is a closed loop inside its session. Every request is timed
//! from when it was due.
//!
//! The traced run repeats the schedule twice: once over the wire with a
//! timing store wrapper and queue-depth sampling, and once calling
//! `SessionManager::handle_line` in-process, one lane per connection,
//! with a span around each call.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use robotune::SharedMemoStore;
use robotune_service::client::drive_session;
use robotune_service::protocol::Profile;
use robotune_service::{
    serve, DecodedFrame, FrameDecoder, PersistentMemoStore, ServiceOptions, SessionManager,
    TuningClient,
};
use robotune_space::spark::spark_space;
use robotune_space::ConfigSpace;
use robotune_sparksim::{Dataset, SparkJob, ALL_WORKLOADS};

use crate::probes::TimedStore;
use crate::report::{geomean, pct, Outcome};
use crate::tenant::{Ledger, Next, Request, Spec, Tenant, Verb};
use crate::trace;

/// One served-traffic mix.
pub struct Config {
    /// Workload name.
    pub name: &'static str,
    /// Options profile of every session.
    pub profile: Profile,
    /// Evaluation budget per session.
    pub budget: usize,
    /// How long a tenant holds each configuration before observing it.
    pub think_ms: u64,
    /// Mean session arrivals per second.
    pub rate: f64,
    /// Sessions arriving together; the schedule keeps the mean rate.
    pub burst: usize,
    /// Delay before re-polling a `queued` suggest.
    pub poll_ms: u64,
}

/// BO on the critical path: 40 of the 60 asks are GP asks, so the
/// suggest median lies inside the BO asks rather than on the boundary
/// with the 20 design asks. The rate keeps the one pinned CPU about 35%
/// busy: the daemon answers each connection in order, so at half load
/// head-of-line waits behind other tenants' GP asks dominated (and
/// destabilised) the latencies the GP itself should set.
pub static SERVE_BO: Config = Config {
    name: "serve-bo",
    profile: Profile::Default,
    budget: 60,
    think_ms: 0,
    rate: 1.5,
    burst: 1,
    poll_ms: 2,
};

/// Slow tenants, no GP: budget 8 fits inside the initial design. Each
/// session holds a worker for about `8 × think`, so the 4 workers serve
/// ~`4 / (8 × 20 ms)` = 25 sessions/s; arrivals come in bursts of 6 at
/// ¾ of that, so admission queueing binds in every burst.
pub static SERVE_SLOW: Config = Config {
    name: "serve-slow",
    profile: Profile::Fast,
    budget: 8,
    think_ms: 20,
    rate: 18.75,
    burst: 6,
    poll_ms: 5,
};

/// Daemon options, as `experiments serve` sets them by default.
fn service_options() -> ServiceOptions {
    let workers = 4;
    ServiceOptions {
        workers,
        queue_capacity: 64,
        dispatch_workers: workers + 8,
        ..ServiceOptions::default()
    }
}

const SETUP_REPS: usize = 3;
/// Seed of the warm-up sessions. The five warmed selections fix the
/// subspace every served session tunes, and with it the cost of each GP
/// ask; holding them fixed keeps runs at different `--seed`s (which vary
/// the tenants) comparable, like a daemon with an established store.
const WARM_SEED: u64 = 0x5e1ec7;
/// A run whose generator ran later than this at p99 is invalid.
const LAG_LIMIT_MS: f64 = 20.0;
/// How long stragglers may take after the arrival window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
const KEYS: usize = ALL_WORKLOADS.len();

fn key(i: usize) -> String {
    format!("wl-{}", i % KEYS)
}

/// Everything the schedule fixes for one run.
struct Plan {
    space: Arc<ConfigSpace>,
    specs: Vec<(Spec, SparkJob)>,
    /// Offset of each arrival from the start of the window.
    offsets: Vec<Duration>,
    lanes: usize,
}

fn plan(cfg: &Config, seed: u64, seconds: u64) -> Plan {
    let space = Arc::new(spark_space());
    let n = (cfg.rate * seconds as f64).round().max(1.0) as usize;
    let period = cfg.burst as f64 / cfg.rate;
    let mut specs = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    for i in 0..n {
        // The seed picks each tenant's workload mix and session seed.
        let mixed = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7).wrapping_add(i as u64);
        let w = (mixed % KEYS as u64) as usize;
        let session_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let job = SparkJob::new(
            (*space).clone(),
            ALL_WORKLOADS[w],
            Dataset::D1,
            session_seed ^ 0x5eed,
        );
        specs.push((
            Spec {
                key: key(w),
                seed: session_seed,
                budget: cfg.budget,
                profile: cfg.profile.as_str(),
                think: Duration::from_millis(cfg.think_ms),
                poll: Duration::from_millis(cfg.poll_ms),
            },
            job,
        ));
        offsets.push(Duration::from_secs_f64((i / cfg.burst) as f64 * period));
    }
    let lanes = crate::host_cpus().min(n).max(1);
    Plan {
        space,
        specs,
        offsets,
        lanes,
    }
}

/// What one pass over the schedule measured.
#[derive(Default)]
struct Pass {
    ledger: Ledger,
    tenants: Vec<Tenant>,
    /// Generator lateness for timed sends, milliseconds.
    lag_ms: Vec<f64>,
    /// Admission-queue depth seen by each arrival.
    queue_depth: Vec<f64>,
    /// First arrival due → last session finished, seconds.
    wall_s: f64,
    errors: Vec<String>,
    spans: Vec<trace::Span>,
}

/// A due send, ordered by due time then sequence.
type Timer = Reverse<(Instant, u64, usize)>;

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    /// Sent, not yet answered: (tenant, verb, due).
    inflight: VecDeque<(usize, Verb, Instant)>,
    write_armed: bool,
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The wire pass: one thread, `plan.lanes` connections.
fn wire_pass(plan: &Plan, addr: SocketAddr, manager: &SessionManager) -> Result<Pass, String> {
    let mut poll = Poll::new().map_err(|e| format!("poll: {e}"))?;
    let mut events = Events::with_capacity(256);
    let mut conns = Vec::with_capacity(plan.lanes);
    for c in 0..plan.lanes {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        poll.register(&stream, Token(c), Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
        conns.push(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            inflight: VecDeque::new(),
            write_armed: false,
        });
    }
    let mut pass = Pass::default();
    let mut timers: BinaryHeap<Timer> = BinaryHeap::new();
    let mut pending: Vec<Option<Request>> = Vec::new();
    let mut seq = 0u64;
    let start = Instant::now() + Duration::from_millis(5);
    let mut next_arrival = 0usize;
    let mut live = 0usize;
    let mut last_done = start;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut frames = Vec::new();

    let send = |conns: &mut Vec<Conn>, pass: &mut Pass, t: usize, req: Request, due: Instant| {
        let lanes = conns.len();
        let conn = &mut conns[t % lanes];
        conn.out.extend_from_slice(req.line.as_bytes());
        conn.out.push(b'\n');
        conn.inflight.push_back((t, req.verb, due));
        pass.ledger.attempted[req.verb as usize] += 1;
        conn.flush()
    };

    loop {
        let now = Instant::now();
        while next_arrival < plan.specs.len() && start + plan.offsets[next_arrival] <= now {
            let due = start + plan.offsets[next_arrival];
            pass.lag_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            pass.queue_depth.push(manager.queue_depth() as f64);
            let (spec, job) = plan.specs[next_arrival].clone();
            let mut tenant = Tenant::new(spec, job, due);
            let req = tenant.create();
            pass.tenants.push(tenant);
            pending.push(None);
            live += 1;
            send(&mut conns, &mut pass, next_arrival, req, due)
                .map_err(|e| format!("send: {e}"))?;
            next_arrival += 1;
        }
        while let Some(&Reverse((due, _, t))) = timers.peek() {
            if due > now {
                break;
            }
            timers.pop();
            pass.lag_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            if let Some(req) = pending[t].take() {
                send(&mut conns, &mut pass, t, req, due).map_err(|e| format!("send: {e}"))?;
            }
        }
        if next_arrival == plan.specs.len() && live == 0 {
            break;
        }
        let window_end = start + plan.offsets.last().copied().unwrap_or_default();
        if now > window_end + DRAIN_LIMIT {
            pass.errors.push(format!(
                "{live} sessions still open {DRAIN_LIMIT:?} after the last arrival"
            ));
            break;
        }
        let mut wake = now + Duration::from_millis(50);
        if let Some(off) = plan.offsets.get(next_arrival) {
            wake = wake.min(start + *off);
        }
        if let Some(&Reverse((due, _, _))) = timers.peek() {
            wake = wake.min(due);
        }
        poll.poll(&mut events, Some(wake.saturating_duration_since(now)))
            .map_err(|e| format!("poll: {e}"))?;
        for event in &events {
            let Token(c) = event.token();
            let conn = &mut conns[c];
            if event.is_writable() {
                conn.flush().map_err(|e| format!("write: {e}"))?;
            }
            if !event.is_readable() {
                continue;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => return Err("daemon closed a connection".into()),
                    Ok(n) => conn.decoder.push(&scratch[..n], &mut frames),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            let now = Instant::now();
            for frame in frames.drain(..) {
                let Some((t, verb, due)) = conn.inflight.pop_front() else {
                    return Err("unsolicited frame from the daemon".into());
                };
                let DecodedFrame::Line(bytes) = frame else {
                    return Err("oversized frame from the daemon".into());
                };
                let text = String::from_utf8_lossy(&bytes);
                match pass.tenants[t].on_reply(verb, &text, due, now, &plan.space, &mut pass.ledger)
                {
                    Next::Now(req) => {
                        conn.out.extend_from_slice(req.line.as_bytes());
                        conn.out.push(b'\n');
                        conn.inflight.push_back((t, req.verb, now));
                        pass.ledger.attempted[req.verb as usize] += 1;
                    }
                    Next::After(delay, req) => {
                        pending[t] = Some(req);
                        seq += 1;
                        timers.push(Reverse((now + delay, seq, t)));
                    }
                    Next::Done => {
                        live -= 1;
                        last_done = now;
                    }
                    Next::Failed(why) => {
                        live -= 1;
                        pass.errors.push(format!("tenant {t}: {why}"));
                    }
                }
            }
            conn.flush().map_err(|e| format!("write: {e}"))?;
            let want = !conn.out.is_empty();
            if want != conn.write_armed {
                let interest = if want {
                    Interest::READABLE | Interest::WRITABLE
                } else {
                    Interest::READABLE
                };
                poll.reregister(&conn.stream, Token(c), interest)
                    .map_err(|e| format!("reregister: {e}"))?;
                conn.write_armed = want;
            }
        }
    }
    for conn in &conns {
        for &(_, verb, _) in &conn.inflight {
            pass.ledger.failed[verb as usize] += 1;
        }
    }
    pass.wall_s = last_done.duration_since(start).as_secs_f64();
    Ok(pass)
}

/// The in-process pass: the same schedule, one thread per connection
/// of the wire pass, each calling `handle_line` in turn.
fn handle_pass(plan: &Plan, manager: &SessionManager) -> Pass {
    let start = Instant::now() + Duration::from_millis(5);
    let lanes: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.lanes)
            .map(|lane| s.spawn(move || handle_lane(plan, manager, lane, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Pass {
                    errors: vec!["lane panicked".into()],
                    ..Pass::default()
                })
            })
            .collect()
    });
    let mut pass = Pass::default();
    for lane in lanes {
        for v in Verb::ALL {
            let i = v as usize;
            pass.ledger.rtt_ms[i].extend(lane.ledger.rtt_ms[i].iter());
            pass.ledger.attempted[i] += lane.ledger.attempted[i];
            pass.ledger.failed[i] += lane.ledger.failed[i];
        }
        pass.ledger.queued += lane.ledger.queued;
        pass.ledger.suggests += lane.ledger.suggests;
        pass.ledger.first_ask_ms.extend(lane.ledger.first_ask_ms);
        pass.tenants.extend(lane.tenants);
        pass.errors.extend(lane.errors);
        pass.spans.extend(lane.spans);
    }
    pass
}

fn handle_lane(plan: &Plan, manager: &SessionManager, lane: usize, start: Instant) -> Pass {
    let mut pass = Pass::default();
    let mine: Vec<usize> = (lane..plan.specs.len()).step_by(plan.lanes).collect();
    let mut timers: BinaryHeap<Timer> = BinaryHeap::new();
    let mut pending: Vec<Option<(Request, Instant)>> = Vec::new();
    let mut seq = 0u64;
    for (slot, &i) in mine.iter().enumerate() {
        let (spec, job) = plan.specs[i].clone();
        let due = start + plan.offsets[i];
        let mut tenant = Tenant::new(spec, job, due);
        pending.push(Some((tenant.create(), due)));
        pass.tenants.push(tenant);
        seq += 1;
        timers.push(Reverse((due, seq, slot)));
    }
    trace::start();
    while let Some(Reverse((due, _, slot))) = timers.pop() {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let Some((req, due)) = pending[slot].take() else {
            continue;
        };
        pass.ledger.attempted[req.verb as usize] += 1;
        let reply = {
            let _s = trace::span(match req.verb {
                Verb::Create => "service.handle.create_session",
                Verb::Suggest => "service.handle.suggest",
                Verb::Observe => "service.handle.observe",
            });
            manager.handle_line(&req.line)
        };
        let now = Instant::now();
        match pass.tenants[slot].on_reply(req.verb, &reply, due, now, &plan.space, &mut pass.ledger)
        {
            Next::Now(next) => {
                pending[slot] = Some((next, now));
                seq += 1;
                timers.push(Reverse((now, seq, slot)));
            }
            Next::After(delay, next) => {
                pending[slot] = Some((next, now + delay));
                seq += 1;
                timers.push(Reverse((now + delay, seq, slot)));
            }
            Next::Done => {}
            Next::Failed(why) => pass
                .errors
                .push(format!("in-process tenant {}: {why}", mine[slot])),
        }
    }
    pass.spans = trace::finish();
    pass
}

/// Opens (creating) a persistent store in `dir`.
fn open_store(dir: &Path) -> Result<SharedMemoStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    PersistentMemoStore::open(dir).map(PersistentMemoStore::into_shared)
}

/// Runs `body` against a daemon serving `store`, then drains it.
fn with_daemon<R>(
    store: SharedMemoStore,
    body: impl FnOnce(&SessionManager, SocketAddr) -> R,
) -> Result<R, String> {
    let manager = SessionManager::new(service_options(), store);
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(listener, &manager));
        let out = body(&manager, addr);
        let stopped = TuningClient::connect(addr).and_then(|mut c| c.shutdown());
        let served = daemon.join();
        match (stopped, served) {
            (Ok(()), Ok(Ok(()))) => Ok(out),
            (Err(e), _) => Err(format!("shutdown: {e}")),
            (_, Ok(Err(e))) => Err(format!("serve: {e}")),
            (_, Err(_)) => Err("daemon thread panicked".into()),
        }
    })
}

/// Warms the selection cache of every workload key over the wire.
/// Returns (requests attempted, requests failed).
fn warm(cfg: &Config, addr: SocketAddr, space: &ConfigSpace, seed: u64) -> (u64, u64) {
    let mut client = match TuningClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return (1, 1),
    };
    let (mut attempted, mut failed) = (0, 0);
    for (i, &w) in ALL_WORKLOADS.iter().enumerate() {
        let mut job = SparkJob::new(space.clone(), w, Dataset::D1, seed ^ (i as u64 + 0xC01D));
        match drive_session(
            &mut client,
            space,
            &mut job,
            &key(i),
            seed.wrapping_add(i as u64),
            1,
            cfg.profile,
        ) {
            Ok(r) => {
                attempted +=
                    1 + r.suggest_latencies_s.len() as u64 + r.observe_latencies_s.len() as u64
            }
            Err(_) => {
                attempted += 1;
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

fn scratch_dir(cfg: &Config, rep: usize) -> PathBuf {
    crate::work_dir()
        .join("stores")
        .join(format!("{}-{}-{rep}", cfg.name, std::process::id()))
}

/// Checks every tenant finished its whole budget with the answers the
/// client saw, and returns (best times, costs to within 5%).
fn check_tenants(
    o: &mut Outcome,
    what: &str,
    pass: &Pass,
    expected: usize,
) -> (Vec<f64>, Vec<f64>) {
    o.check(pass.tenants.len() == expected, || {
        format!(
            "{what}: {} of {expected} tenants arrived",
            pass.tenants.len()
        )
    });
    let (mut bests, mut costs) = (Vec::new(), Vec::new());
    for (i, t) in pass.tenants.iter().enumerate() {
        let Some(f) = &t.finished else {
            o.errors.push(format!("{what}: tenant {i} never finished"));
            continue;
        };
        let budget = t.budget();
        o.check(
            f.evals_reported == budget as u64 && t.evals.len() == budget,
            || {
                format!(
                    "{what}: tenant {i} finished with {} recorded / {} run of {budget} evaluations",
                    f.evals_reported,
                    t.evals.len()
                )
            },
        );
        o.check(f.cache_hit, || {
            format!("{what}: tenant {i} missed the warmed selection cache")
        });
        let client_best = t.best_s();
        o.check(f.best_s == client_best, || {
            format!(
                "{what}: tenant {i} best {:?} but the client saw {client_best:?}",
                f.best_s
            )
        });
        // A short session on a workload that fails at most settings can
        // complete nothing; it never reached the band, so it is charged
        // everything it ran.
        bests.extend(client_best);
        costs.push(
            t.cost_to_5pct_s()
                .unwrap_or_else(|| t.evals.iter().map(|e| e.0).sum()),
        );
    }
    o.errors
        .extend(pass.errors.iter().map(|e| format!("{what}: {e}")));
    (bests, costs)
}

/// Runs the workload; `traced` selects the per-layer metrics.
pub fn run(cfg: &Config, seed: u64, seconds: u64, traced: bool) -> Outcome {
    // `experiments serve` runs with scoped telemetry on by default.
    robotune_obs::enable_null();
    let mut o = Outcome::default();
    let plan = plan(cfg, seed, seconds);
    let mut setup_s = Vec::new();
    let mut warm_counts = (0, 0);
    let mut wire: Option<Result<Pass, String>> = None;
    let mut timed: Option<Arc<TimedStore>> = None;
    let mut last_store: Option<SharedMemoStore> = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let dir = scratch_dir(cfg, rep);
        let t = Instant::now();
        let store = match open_store(&dir) {
            Ok(s) => s,
            Err(e) => {
                o.errors.push(format!("store: {e}"));
                return o;
            }
        };
        let store: SharedMemoStore = if traced && last {
            let w = Arc::new(TimedStore::new(store));
            timed = Some(w.clone());
            w
        } else {
            store
        };
        let served = with_daemon(store.clone(), |manager, addr| {
            let (a, f) = warm(cfg, addr, &plan.space, WARM_SEED);
            warm_counts.0 += a;
            warm_counts.1 += f;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(w) = &timed {
                w.reset();
            }
            last.then(|| {
                let (cpu, t) = (crate::report::cpu_s(), Instant::now());
                let pass = wire_pass(&plan, addr, manager);
                let busy = (crate::report::cpu_s() - cpu) / t.elapsed().as_secs_f64();
                eprintln!(
                    "{}: the pinned CPU was {:.0}% busy during the run",
                    cfg.name,
                    busy * 100.0
                );
                pass
            })
        });
        match served {
            Ok(Some(p)) => wire = Some(p),
            Ok(None) => {}
            Err(e) => o.errors.push(e),
        }
        if last {
            last_store = Some(store);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let wire = match wire {
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            o.errors.push(format!("wire pass: {e}"));
            return o;
        }
        None => return o,
    };
    let n = plan.specs.len();
    o.check(warm_counts.1 == 0, || {
        format!("{} warm-up requests failed", warm_counts.1)
    });
    let (bests, costs) = check_tenants(&mut o, "wire", &wire, n);
    let lag_p99 = pct(&wire.lag_ms, 99.0);
    o.check(lag_p99 <= LAG_LIMIT_MS, || {
        format!("generator fell behind its schedule: lag p99 {lag_p99:.2} ms")
    });
    let l = &wire.ledger;
    o.attempted = warm_counts.0 + l.attempted.iter().sum::<u64>();
    o.failed = warm_counts.1 + l.failed.iter().sum::<u64>();
    let finished = wire.tenants.iter().filter(|t| t.finished.is_some()).count();
    eprintln!(
        "{}: {n} sessions over {} connections, {:.2}s wall, {} requests ({} failed), {} queued polls, lag p99 {lag_p99:.2} ms, setup {:?}",
        cfg.name,
        plan.lanes,
        wire.wall_s,
        l.attempted.iter().sum::<u64>(),
        l.failed.iter().sum::<u64>(),
        l.queued,
        setup_s
    );
    for v in Verb::ALL {
        let i = v as usize;
        eprintln!(
            "  {:<15} attempted {:>6} failed {:>3}  rtt p50 {:>8.3} ms  p99 {:>8.3} ms",
            v.name(),
            l.attempted[i],
            l.failed[i],
            pct(&l.rtt_ms[i], 50.0),
            pct(&l.rtt_ms[i], 99.0)
        );
    }
    let suggest = &l.rtt_ms[Verb::Suggest as usize];
    let observe = &l.rtt_ms[Verb::Observe as usize];
    eprintln!(
        "  suggest ms p50/75/90/95/99 {}",
        crate::report::spread(suggest)
    );
    eprintln!(
        "  first ask ms p50/75/90/95/99 {}",
        crate::report::spread(&l.first_ask_ms)
    );
    let m = &mut o.metrics;
    m.put("tune_wall_s", wire.wall_s, "s");
    m.put("best_runtime_geomean_s", geomean(&bests), "s");
    m.put("quality.cost_to_5pct_s", costs.iter().sum(), "s");
    m.put("suggest_ms_p50", pct(suggest, 50.0), "ms");
    m.put("latency.suggest_ms.p95", pct(suggest, 95.0), "ms");
    m.put("latency.suggest_ms.p99", pct(suggest, 99.0), "ms");
    m.put("latency.first_ask_ms.p50", pct(&l.first_ask_ms, 50.0), "ms");
    m.put("latency.first_ask_ms.p90", pct(&l.first_ask_ms, 90.0), "ms");
    m.put("latency.first_ask_ms.p99", pct(&l.first_ask_ms, 99.0), "ms");
    m.put(
        "completed_sessions_per_s",
        finished as f64 / wire.wall_s,
        "1/s",
    );
    m.put("setup_s", pct(&setup_s, 50.0), "s");
    m.put("service.observe_ms.p50", pct(observe, 50.0), "ms");
    m.put("service.observe_ms.p99", pct(observe, 99.0), "ms");
    m.put(
        "service.queued_ratio",
        l.queued as f64 / l.suggests.max(1) as f64,
        "ratio",
    );
    m.put(
        "service.queue_depth.p50",
        pct(&wire.queue_depth, 50.0),
        "count",
    );
    m.put(
        "service.queue_depth.max",
        wire.queue_depth.iter().copied().fold(0.0, f64::max),
        "count",
    );
    m.put("loadgen.lag_ms.p99", lag_p99, "ms");
    m.put("req.warmup.attempted", warm_counts.0 as f64, "count");
    m.put("req.warmup.failed", warm_counts.1 as f64, "count");
    for v in Verb::ALL {
        m.put(
            format!("req.run.{}.attempted", v.name()),
            l.attempted[v as usize] as f64,
            "count",
        );
        m.put(
            format!("req.run.{}.failed", v.name()),
            l.failed[v as usize] as f64,
            "count",
        );
    }

    if traced {
        if let Some(w) = &timed {
            let log = w.log();
            m.put("store.read_us.p50", pct(&log.read_us, 50.0), "us");
            m.put("store.write_us.p50", pct(&log.write_us, 50.0), "us");
            m.put("store.write_us.p99", pct(&log.write_us, 99.0), "us");
            m.put("store.writes", log.write_us.len() as f64, "count");
        }
        if let Some(store) = last_store {
            traced_handle_pass(&mut o, cfg, &plan, store, &wire);
        }
    }
    let last_dir = scratch_dir(cfg, SETUP_REPS - 1);
    let _ = std::fs::remove_dir_all(&last_dir);
    if let Some(parent) = last_dir.parent() {
        // Only succeeds once no other run's store is left in it.
        let _ = std::fs::remove_dir(parent);
    }
    o
}

/// Repeats the schedule in-process and derives the per-verb handle and
/// wire times.
fn traced_handle_pass(
    o: &mut Outcome,
    cfg: &Config,
    plan: &Plan,
    store: SharedMemoStore,
    wire: &Pass,
) {
    let manager = SessionManager::new(service_options(), store);
    let pass = std::thread::scope(|s| {
        let workers: Vec<_> = (0..manager.options().workers)
            .map(|_| s.spawn(|| manager.worker_loop()))
            .collect();
        let pass = handle_pass(plan, &manager);
        manager.begin_shutdown();
        for w in workers {
            let _ = w.join();
        }
        pass
    });
    check_tenants(o, "in-process", &pass, plan.specs.len());
    if let Err(e) = trace::check_nesting(&pass.spans) {
        o.errors.push(e);
    }
    crate::write_trace(cfg.name, &pass.spans);
    let layers = trace::by_name(&pass.spans);
    let spans = pass.spans.len() as f64;
    let busy_ns: u64 = layers.values().map(|l| l.busy_ns).sum();
    let m = &mut o.metrics;
    for v in Verb::ALL {
        let l = layers
            .get(format!("service.handle.{}", v.name()).as_str())
            .cloned()
            .unwrap_or_default();
        let p50 = pct(&l.busy_ms, 50.0);
        m.put(format!("service.handle_ms.{}.p50", v.name()), p50, "ms");
        m.put(
            format!("service.handle_ms.{}.p99", v.name()),
            pct(&l.busy_ms, 99.0),
            "ms",
        );
        m.put(
            format!("service.wire_ms.{}", v.name()),
            pct(&wire.ledger.rtt_ms[v as usize], 50.0) - p50,
            "ms",
        );
    }
    m.put(
        "trace.overhead_pct",
        trace::cost_per_span_ns() * spans / busy_ns.max(1) as f64 * 100.0,
        "%",
    );
}
