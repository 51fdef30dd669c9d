//! The TCP layer: a nonblocking reactor that owns every connection.
//!
//! The daemon has two kinds of thread: this reactor and the compute
//! workers. One event-loop thread (epoll on Linux via the workspace
//! `mio` stand-in, `poll(2)` elsewhere) holds all connection state
//! machines — incremental NDJSON frame reassembly ([`FrameDecoder`]),
//! buffered nonblocking writes with high/low-watermark backpressure,
//! per-connection serial pipelining — and answers every request itself:
//! each verb takes only short locks. Idle tenants cost one registered
//! fd and a few hundred bytes — no thread, no 50 ms wakeup — which is
//! what lets a single process hold 10k+ open sessions while a handful
//! of compute workers step their pipelines.
//!
//! ## Ownership model
//!
//! The reactor thread is the *only* thread that touches sockets. A
//! decoded request travels `inbox → outbuf`; a `suggest` whose ask is
//! not ready parks on its connection until a step or close runs its
//! wake-up, which queues the token and nudges the reactor's [`Waker`],
//! or until its deadline (one timeout for all, so deadlines queue in
//! order). Locally detected conditions (oversized frame, bad UTF-8)
//! become inbox items too, so responses leave in exactly the order
//! requests arrived. One request per connection is in flight at a time
//! — pipelining *across* tenants is what scales, and serial-per-
//! connection keeps `suggest`-then-`observe` semantics and response
//! ordering trivially correct.
//!
//! ## Backpressure
//!
//! A peer that stops reading fills its `outbuf`; past
//! [`WRITE_BUFFER_HIGH`] the reactor stops reading from that peer
//! (level-triggered readiness re-fires once the buffer drains below
//! [`WRITE_BUFFER_LOW`]), so a single slow consumer can neither wedge
//! the loop nor balloon memory. A deep inbox ([`INBOX_LIMIT`]) pauses
//! reads the same way.
//!
//! ## Drain
//!
//! On shutdown the reactor stops accepting, takes one final
//! non-blocking read sweep per connection — so pipelined requests that
//! are already fully buffered in the kernel still get answers — then
//! keeps answering and flushing until every connection is quiet (empty
//! inbox, no parked suggest, flushed outbuf) and closes them without
//! waiting for peer EOF. Shutdown closes every session, which wakes
//! each parked suggest to answer `session_closed`. Only after the loop
//! and the compute workers have both exited is the shared store
//! checkpointed, exactly once.

use crate::framing::{DecodedFrame, FrameDecoder};
use crate::manager::{render, Handled, ParkedSuggest, SessionManager};
use crate::protocol::{error_frame, ErrorCode, ProtoError, MAX_FRAME_BYTES};
use crate::session::Wake;
use mio::{Events, Interest, Poll, Token, Waker};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The listening socket's poll token.
const LISTENER: Token = Token(0);
/// The cross-thread waker's poll token.
const WAKER: Token = Token(1);
/// First connection token; the counter only ever goes up, so a token
/// is never reused and a completion for a closed connection can never
/// be misrouted to a newer one.
const FIRST_CONN: usize = 2;

/// Upper bound on events drained per loop iteration.
const EVENTS_PER_LOOP: usize = 1024;
/// Reactor tick: poll timeout bounding shutdown/gauge latency when no
/// I/O is happening and no parked suggest is due sooner. This replaces
/// the old per-connection 50 ms read timeout — one timer for the whole
/// process instead of one per tenant.
const TICK: Duration = Duration::from_millis(200);
/// Read-side scratch buffer size.
const READ_CHUNK: usize = 16 * 1024;
/// Pause reading from a peer whose response backlog reaches this…
const WRITE_BUFFER_HIGH: usize = 256 * 1024;
/// …and resume once it has drained to this.
const WRITE_BUFFER_LOW: usize = 64 * 1024;
/// Decoded-but-unanswered requests tolerated per connection before
/// its reads pause.
const INBOX_LIMIT: usize = 128;
/// How long the listener stays paused after fd exhaustion before the
/// reactor retries accepting.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(250);

/// One decoded inbox entry, in wire order. Local error renderings ride
/// the same queue as real requests so responses stay ordered.
enum InboxItem {
    /// A well-formed line for the session manager.
    Request(String),
    /// An oversized frame (already resynchronized) → `frame_too_large`.
    TooLong,
    /// A non-UTF-8 frame → `malformed_frame`.
    BadUtf8,
}

/// Connections whose parked suggest a step or a close may have answered.
struct Completions {
    ready: Mutex<Vec<usize>>,
    waker: Waker,
}

impl Completions {
    /// The wake-up of connection `token`'s parked suggests.
    fn wake_for(self: &Arc<Self>, token: usize) -> Wake {
        let done = Arc::clone(self);
        Arc::new(move || {
            lock(&done.ready).push(token);
            let _ = done.waker.wake();
        })
    }
}

/// Per-connection state machine, owned exclusively by the reactor.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    inbox: VecDeque<InboxItem>,
    /// Bytes queued for the peer; `out_cursor` marks how much of the
    /// front has already been written.
    outbuf: Vec<u8>,
    out_cursor: usize,
    /// This connection's suggest waiting for a step.
    parked: Option<ParkedSuggest>,
    wake: Wake,
    /// Peer closed its write half; buffered requests still get answers.
    eof: bool,
    /// Read side paused by the outbuf high watermark (cleared at the
    /// low watermark, not symmetrically — hysteresis).
    write_throttled: bool,
    /// Fatal socket error; close as soon as the event is processed.
    dead: bool,
    /// Interest currently registered with the poll, to avoid
    /// reregister syscalls when nothing changed.
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream, wake: Wake) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            inbox: VecDeque::new(),
            outbuf: Vec::new(),
            out_cursor: 0,
            parked: None,
            wake,
            eof: false,
            write_throttled: false,
            dead: false,
            registered: None,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_cursor
    }

    /// Everything answered and flushed: nothing decoded, nothing
    /// parked, nothing buffered for the peer.
    fn quiet(&self) -> bool {
        self.inbox.is_empty() && self.parked.is_none() && self.pending_out() == 0
    }

    /// Whether the reactor wants read readiness right now.
    fn wants_read(&self, draining: bool) -> bool {
        !self.eof
            && !draining
            && !self.write_throttled
            && self.inbox.len() < INBOX_LIMIT
    }

    fn desired_interest(&self, draining: bool) -> Option<Interest> {
        let read = self.wants_read(draining);
        let write = self.pending_out() > 0;
        match (read, write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }

    /// Turns decoded frames into inbox items. Blank lines are skipped
    /// outright (no response), preserving the old handler's behavior.
    fn enqueue(&mut self, frames: Vec<DecodedFrame>) {
        for frame in frames {
            match frame {
                DecodedFrame::TooLong => self.inbox.push_back(InboxItem::TooLong),
                DecodedFrame::Line(bytes) => match String::from_utf8(bytes) {
                    Ok(line) if line.trim().is_empty() => {}
                    Ok(line) => self.inbox.push_back(InboxItem::Request(line)),
                    Err(_) => self.inbox.push_back(InboxItem::BadUtf8),
                },
            }
        }
    }

    /// Appends one response frame (newline added) to the outbuf and
    /// applies the write-side high watermark.
    fn append_response(&mut self, response: &str) {
        self.outbuf.reserve(response.len() + 1);
        self.outbuf.extend_from_slice(response.as_bytes());
        self.outbuf.push(b'\n');
        if self.pending_out() >= WRITE_BUFFER_HIGH {
            self.write_throttled = true;
        }
    }

    /// Writes as much of the outbuf as the socket accepts right now.
    fn flush(&mut self) {
        while self.pending_out() > 0 {
            match self.stream.write(&self.outbuf[self.out_cursor..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_cursor += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    robotune_obs::incr("service.conn_error", 1);
                    self.dead = true;
                    break;
                }
            }
        }
        if self.pending_out() == 0 {
            self.outbuf.clear();
            self.out_cursor = 0;
            self.write_throttled = false;
        } else if self.pending_out() <= WRITE_BUFFER_LOW {
            self.write_throttled = false;
        }
    }

    /// Reads every byte the kernel has for us (bounded by backpressure)
    /// and decodes it into the inbox.
    fn read_some(&mut self, draining: bool) {
        let mut scratch = [0u8; READ_CHUNK];
        let mut frames = Vec::new();
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.eof = true;
                    if let Some(last) = self.decoder.finish() {
                        frames.push(last);
                    }
                    break;
                }
                Ok(n) => {
                    self.decoder.push(&scratch[..n], &mut frames);
                    if !draining && self.inbox.len() + frames.len() >= INBOX_LIMIT {
                        break; // level-triggered: the rest re-fires
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    robotune_obs::incr("service.conn_error", 1);
                    self.dead = true;
                    break;
                }
            }
        }
        self.enqueue(frames);
    }
}

fn render_error(code: ErrorCode, message: String) -> String {
    render(error_frame(&Value::Null, &ProtoError::new(code, message)))
}

/// The event loop. Owns the poll, the listener, and every connection.
struct Reactor<'m> {
    manager: &'m SessionManager,
    poll: Poll,
    listener: TcpListener,
    listener_registered: bool,
    /// Set after fd exhaustion: when to re-register the listener.
    accept_resume_at: Option<Instant>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    completions: Arc<Completions>,
    /// Deadlines of parked suggests, with their connections, in order.
    deadlines: VecDeque<(Instant, usize)>,
    draining: bool,
}

impl<'m> Reactor<'m> {
    fn run(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(EVENTS_PER_LOOP);
        loop {
            let timeout = self.deadlines.front().map_or(TICK, |&(at, _)| {
                at.saturating_duration_since(Instant::now()).min(TICK)
            });
            let n = match self.poll.poll(&mut events, Some(timeout)) {
                Ok(n) => n,
                Err(e) => {
                    self.manager.begin_shutdown();
                    return Err(e);
                }
            };
            robotune_obs::record("service.reactor.ready_events", n as f64);

            let mut touched: Vec<usize> = Vec::with_capacity(events.len());
            let mut accept_ready = false;
            for event in &events {
                match event.token() {
                    LISTENER => accept_ready = true,
                    WAKER => {} // drained by the poll shim; completions below
                    Token(t) => {
                        if let Some(conn) = self.conns.get_mut(&t) {
                            if event.is_readable() && conn.wants_read(self.draining) {
                                conn.read_some(self.draining);
                            }
                            if event.is_writable() {
                                conn.flush();
                            }
                            touched.push(t);
                        }
                    }
                }
            }
            if accept_ready && !self.draining {
                self.accept_burst()?;
            }

            // Touch the connections whose parked suggest was woken or is
            // due, then advance each touched connection's pipeline
            // (retry the parked suggest, answer the next inbox item,
            // flush, re-arm interest, reap the finished).
            touched.extend(std::mem::take(&mut *lock(&self.completions.ready)));
            let now = Instant::now();
            while let Some(&(at, t)) = self.deadlines.front() {
                if at > now {
                    break;
                }
                self.deadlines.pop_front();
                touched.push(t);
            }
            for t in touched {
                self.advance(t);
            }

            if !self.draining && self.manager.is_shutting_down() {
                self.start_drain();
            }
            if self.draining {
                // Sweep for quiescent connections even without events:
                // a drain can complete on the tick alone.
                let tokens: Vec<usize> = self.conns.keys().copied().collect();
                for t in tokens {
                    self.advance(t);
                }
                if self.conns.is_empty() {
                    return Ok(());
                }
            }

            self.maybe_resume_listener();
            self.emit_gauges();
        }
    }

    /// Accepts until the backlog is empty. Fd exhaustion pauses the
    /// listener (instead of killing the daemon) and retries shortly;
    /// other errors shut the service down as before.
    fn accept_burst(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        robotune_obs::incr("service.conn_error", 1);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    robotune_obs::incr("service.connections", 1);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream, self.completions.wake_for(token));
                    if self
                        .poll
                        .register(&conn.stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        robotune_obs::incr("service.conn_error", 1);
                        continue; // conn drops; peer sees a close
                    }
                    conn.registered = Some(Interest::READABLE);
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // EMFILE/ENFILE: per-process or system fd table is
                // full. Stop accepting briefly; existing tenants keep
                // being served and closes will free descriptors.
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    robotune_obs::incr("service.accept_error", 1);
                    if self.listener_registered {
                        let _ = self.poll.deregister(&self.listener);
                        self.listener_registered = false;
                    }
                    self.accept_resume_at = Some(Instant::now() + ACCEPT_BACKOFF);
                    return Ok(());
                }
                Err(e) => {
                    self.manager.begin_shutdown();
                    return Err(e);
                }
            }
        }
    }

    fn maybe_resume_listener(&mut self) {
        if let Some(at) = self.accept_resume_at {
            if Instant::now() >= at
                && !self.draining
                && self
                    .poll
                    .register(&self.listener, LISTENER, Interest::READABLE)
                    .is_ok()
            {
                self.listener_registered = true;
                self.accept_resume_at = None;
            }
        }
    }

    /// Moves one connection forward: retry its parked suggest, answer
    /// the next inbox item(s), flush, re-arm poll interest, and reap it
    /// if finished. Safe to call repeatedly and with stale tokens.
    fn advance(&mut self, token: usize) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if let Some(parked) = conn.parked.take() {
            match self.manager.resume(parked, &conn.wake) {
                Handled::Answer(response) => conn.append_response(&response),
                Handled::Parked(parked) => conn.parked = Some(parked),
            }
        }

        // Serial pipeline: a parked suggest blocks this connection's
        // queue (and only this connection's) until it is answered.
        while conn.parked.is_none() && !conn.dead {
            match conn.inbox.pop_front() {
                None => break,
                Some(InboxItem::TooLong) => {
                    let msg = format!("frame exceeds {MAX_FRAME_BYTES} bytes");
                    conn.append_response(&render_error(ErrorCode::FrameTooLarge, msg));
                }
                Some(InboxItem::BadUtf8) => {
                    conn.append_response(&render_error(
                        ErrorCode::MalformedFrame,
                        "frame is not valid UTF-8".into(),
                    ));
                }
                Some(InboxItem::Request(line)) => {
                    // Mint the request's causal context under a
                    // `service.frame_read` span: the span is the trace
                    // root every downstream span links back to.
                    let ctx = {
                        let _read = robotune_obs::span("service.frame_read");
                        robotune_obs::TraceCtx::mint()
                    };
                    let handled = {
                        let _trace = robotune_obs::adopt(ctx);
                        let _span = robotune_obs::span("service.dispatch");
                        self.manager.handle(&line, &conn.wake)
                    };
                    match handled {
                        Handled::Answer(response) => conn.append_response(&response),
                        Handled::Parked(parked) => {
                            self.deadlines.push_back((parked.deadline, token));
                            conn.parked = Some(parked);
                        }
                    }
                }
            }
        }

        if conn.pending_out() > 0 {
            conn.flush();
        }

        let finished = conn.dead || ((conn.eof || draining) && conn.quiet());
        if finished {
            let conn = self.conns.remove(&token);
            if let Some(conn) = conn {
                if conn.registered.is_some() {
                    let _ = self.poll.deregister(&conn.stream);
                }
            }
            return;
        }

        let desired = conn.desired_interest(draining);
        if desired != conn.registered {
            let changed = match (conn.registered, desired) {
                (None, Some(interest)) => {
                    self.poll.register(&conn.stream, Token(token), interest).is_ok()
                }
                (Some(_), Some(interest)) => {
                    self.poll.reregister(&conn.stream, Token(token), interest).is_ok()
                }
                (Some(_), None) => self.poll.deregister(&conn.stream).is_ok(),
                (None, None) => true,
            };
            if changed {
                conn.registered = desired;
            } else {
                robotune_obs::incr("service.conn_error", 1);
                conn.dead = true;
                self.conns.remove(&token);
            }
        }
    }

    /// Enters drain: stop accepting, take one final read sweep per
    /// connection so fully-buffered pipelined requests still get
    /// answered, then let `advance` retire connections as they quiesce
    /// — without waiting for peer EOF.
    fn start_drain(&mut self) {
        self.draining = true;
        if self.listener_registered {
            let _ = self.poll.deregister(&self.listener);
            self.listener_registered = false;
        }
        self.accept_resume_at = None;
        for conn in self.conns.values_mut() {
            if !conn.eof && !conn.dead {
                conn.read_some(true);
            }
        }
    }

    fn emit_gauges(&self) {
        if !robotune_obs::is_enabled() {
            return;
        }
        robotune_obs::record("service.reactor.registered_fds", self.conns.len() as f64);
        let buffered: usize = self.conns.values().map(Conn::pending_out).sum();
        robotune_obs::record("service.reactor.write_buffer_bytes", buffered as f64);
    }
}

/// Runs the daemon on `listener` until a `shutdown` request drains it.
///
/// Structure: one scope holds the compute workers (session steps) and
/// the reactor on the calling thread, which answers every request.
/// The reactor returns once a drain completes, by which time
/// `begin_shutdown` has stopped the compute workers; once the scope
/// joins, the shared store is checkpointed (snapshot + WAL truncate)
/// exactly once.
pub fn serve(listener: TcpListener, manager: &SessionManager) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Waker::new(&poll, WAKER)?;
    let completions = Arc::new(Completions { ready: Mutex::new(Vec::new()), waker });

    std::thread::scope(|scope| -> io::Result<()> {
        for _ in 0..manager.options().workers.max(1) {
            scope.spawn(|| manager.worker_loop());
        }
        let mut reactor = Reactor {
            manager,
            poll,
            listener,
            listener_registered: true,
            accept_resume_at: None,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            completions,
            deadlines: VecDeque::new(),
            draining: false,
        };
        reactor.run()
    })?;
    // Every worker and connection has exited: quiesce, then persist.
    if let Err(e) = manager.store().checkpoint() {
        robotune_obs::incr("service.store.checkpoint_error", 1);
        robotune_obs::mark("service.store.checkpoint_error", || {
            serde_json::json!({ "error": e.clone() })
        });
    }
    Ok(())
}
