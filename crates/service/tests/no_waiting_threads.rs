//! No thread waits for a step. A `suggest` whose ask is not ready parks
//! as data on its connection, so while any number of them wait for a
//! stalled compute worker, every other verb is still answered at once;
//! and a parked suggest times out, keeps its ask, and answers a close
//! exactly as a waiting thread did.
//!
//! The compute worker is stalled with a store whose selection read
//! blocks until the test opens a gate: every session's first step reads
//! it.

mod common;

use robotune::{ConcurrentMemoStore, InMemoryMemoStore, SharedMemoStore};
use robotune_service::ServiceOptions;
use robotune_space::Configuration;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a verb that needs no step may take while steps are stalled.
const PROMPT: Duration = Duration::from_secs(1);
/// How long a parked suggest may take once its step can run.
const STEP: Duration = Duration::from_secs(30);

/// Blocks `selection` reads until opened.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// An in-memory store whose `selection` read waits for the gate.
struct GatedStore {
    inner: SharedMemoStore,
    gate: Arc<Gate>,
}

impl ConcurrentMemoStore for GatedStore {
    fn selection(&self, workload: &str) -> Option<Vec<String>> {
        let open = self.gate.open.lock().unwrap();
        drop(self.gate.cv.wait_while(open, |open| !*open).unwrap());
        self.inner.selection(workload)
    }
    fn put_selection(&self, workload: &str, names: Vec<String>) {
        self.inner.put_selection(workload, names);
    }
    fn record_config(&self, workload: &str, config: Configuration, time_s: f64) {
        self.inner.record_config(workload, config, time_s);
    }
    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.inner.best_recent(workload, n)
    }
    fn workloads(&self) -> Vec<String> {
        self.inner.workloads()
    }
}

fn gated_store() -> (SharedMemoStore, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let inner = InMemoryMemoStore::new().into_shared();
    (Arc::new(GatedStore { inner, gate: Arc::clone(&gate) }), gate)
}

/// One client connection speaking raw NDJSON.
struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Wire { stream, reader }
    }

    fn send(&mut self, frame: &str) {
        self.stream.write_all(format!("{frame}\n").as_bytes()).expect("send");
    }

    /// Reads one response, failing if none arrives within `within`.
    fn recv(&mut self, what: &str, within: Duration) -> Value {
        self.stream.set_read_timeout(Some(within)).expect("read timeout");
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => serde_json::from_str(line.trim_end()).expect("response is JSON"),
            Ok(_) => panic!("{what}: the server closed the connection"),
            Err(e) => panic!("{what}: no answer within {within:?} ({e})"),
        }
    }

    fn call(&mut self, frame: &str, what: &str, within: Duration) -> Value {
        self.send(frame);
        self.recv(what, within)
    }
}

fn create_frame(workload: &str) -> String {
    format!(
        r#"{{"verb":"create_session","workload":"{workload}","space":"spark","seed":1,"budget":4,"profile":"fast"}}"#
    )
}

fn suggest_frame(sid: &str) -> String {
    format!(r#"{{"verb":"suggest","session":"{sid}"}}"#)
}

fn create(wire: &mut Wire, workload: &str) -> String {
    let r = wire.call(&create_frame(workload), "create_session", PROMPT);
    r["session"].as_str().unwrap_or_else(|| panic!("create refused: {r:?}")).to_string()
}

fn error_code(v: &Value) -> Option<&str> {
    v["error"]["code"].as_str()
}

#[test]
fn other_verbs_answer_at_once_while_more_suggests_park_than_dispatch_threads_existed() {
    const PARKED: usize = 3;
    let (store, gate) = gated_store();
    // One compute worker, and more suggests park than `dispatch_workers`:
    // a daemon that held each waiting suggest on a dispatch thread would
    // have none left for the probes.
    let server = common::start(
        ServiceOptions { workers: 1, dispatch_workers: 1, ..ServiceOptions::default() },
        store,
    );
    let mut admin = Wire::connect(server.addr);
    // The first session's first step stalls the worker on the gate; the
    // others' first steps queue behind it.
    let sessions: Vec<String> =
        (0..PARKED).map(|i| create(&mut admin, &format!("wl-{i}"))).collect();
    let mut waiting: Vec<Wire> = sessions
        .iter()
        .map(|sid| {
            let mut wire = Wire::connect(server.addr);
            wire.send(&suggest_frame(sid));
            wire
        })
        .collect();
    // Nothing on the wire tells a parked suggest apart; give the reactor
    // time to read them, so the probes below find them parked.
    std::thread::sleep(Duration::from_millis(200));

    // Every verb that needs no step answers on a fresh connection at once.
    for (frame, what) in [
        (r#"{"verb":"health"}"#.to_string(), "health"),
        (r#"{"verb":"status"}"#.to_string(), "status"),
        (create_frame("wl-late"), "create_session"),
    ] {
        let mut wire = Wire::connect(server.addr);
        let started = Instant::now();
        let r = wire.call(&frame, what, PROMPT);
        assert_eq!(r["ok"], Value::Bool(true), "{what}: {r:?}");
        assert!(started.elapsed() < PROMPT, "{what} took {:?}", started.elapsed());
    }
    let health = admin.call(r#"{"verb":"health"}"#, "health", PROMPT);
    assert_eq!(health["sessions_active"].as_u64(), Some(1), "the worker is stalled: {health:?}");

    // Opening the gate lets the steps run; each parked suggest answers
    // with its configuration.
    gate.open();
    for (sid, wire) in sessions.iter().zip(&mut waiting) {
        let r = wire.recv(&format!("suggest {sid}"), STEP);
        assert_eq!(r["type"].as_str(), Some("config"), "{sid}: {r:?}");
        assert_eq!(r["index"].as_u64(), Some(0), "{sid}: {r:?}");
    }
    server.shutdown();
}

#[test]
fn a_parked_suggest_times_out_keeps_its_ask_and_answers_a_close_at_once() {
    const TIMEOUT: Duration = Duration::from_millis(500);
    let (store, gate) = gated_store();
    let server = common::start(
        ServiceOptions { workers: 1, suggest_timeout: TIMEOUT, ..ServiceOptions::default() },
        store,
    );
    let mut admin = Wire::connect(server.addr);
    let stalled = create(&mut admin, "wl-0");
    let queued = create(&mut admin, "wl-1");

    // A suggest whose step cannot run answers the retryable `timeout`,
    // at its deadline and well before twice it.
    let mut client = Wire::connect(server.addr);
    let started = Instant::now();
    let r = client.call(&suggest_frame(&stalled), "suggest", 4 * TIMEOUT);
    let waited = started.elapsed();
    assert_eq!(error_code(&r), Some("timeout"), "{r:?}");
    assert!(waited >= TIMEOUT && waited <= 2 * TIMEOUT, "timeout answered after {waited:?}");

    // A close on another connection answers a parked suggest with
    // `session_closed` at once, not at its deadline.
    let mut other = Wire::connect(server.addr);
    let started = Instant::now();
    other.send(&suggest_frame(&queued));
    std::thread::sleep(TIMEOUT / 5);
    let closed = admin.call(
        &format!(r#"{{"verb":"close_session","session":"{queued}"}}"#),
        "close_session",
        PROMPT,
    );
    assert_eq!(closed["state"].as_str(), Some("closed"), "{closed:?}");
    let r = other.recv("suggest on a closed session", PROMPT);
    assert_eq!(error_code(&r), Some("session_closed"), "{r:?}");
    assert!(started.elapsed() < TIMEOUT, "answered after {:?}", started.elapsed());

    // Once the step runs, the next suggest gets the ask the timed-out
    // one waited for: index 0, so no ask was lost.
    gate.open();
    let deadline = Instant::now() + STEP;
    let ask = loop {
        let r = client.call(&suggest_frame(&stalled), "suggest", STEP);
        if error_code(&r) != Some("timeout") || Instant::now() > deadline {
            break r;
        }
    };
    assert_eq!(ask["type"].as_str(), Some("config"), "{ask:?}");
    assert_eq!(ask["index"].as_u64(), Some(0), "{ask:?}");
    server.shutdown();
}
