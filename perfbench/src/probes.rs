//! Timing wrappers the benchmark slides under the program's public
//! traits: an [`Objective`] around the simulator and a
//! [`ConcurrentMemoStore`] around the memo store. Both only read the
//! clock; they pass every call and every value through untouched.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use robotune::{ConcurrentMemoStore, SharedMemoStore, StoreStatus};
use robotune_space::Configuration;
use robotune_tuners::{Evaluation, Fidelity, Objective};

use crate::trace;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times what a tenant of the in-process tuner sees: how long until the
/// first configuration is asked, and how long each later ask of the
/// tuning budget takes after the previous measurement was handed back.
pub struct Probe<'a> {
    inner: &'a mut dyn Objective,
    origin: Instant,
    /// Asks before the tuning budget starts (the selection samples of a
    /// cold session).
    skip: usize,
    calls: usize,
    last_return: Instant,
    /// Session start → first configuration asked, milliseconds.
    pub first_ask_ms: Option<f64>,
    /// Gaps before each budgeted ask except the first, milliseconds.
    pub ask_gaps_ms: Vec<f64>,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; the session clock starts now.
    pub fn new(inner: &'a mut dyn Objective, skip: usize) -> Self {
        let now = Instant::now();
        Probe {
            inner,
            origin: now,
            skip,
            calls: 0,
            last_return: now,
            first_ask_ms: None,
            ask_gaps_ms: Vec::new(),
        }
    }
}

impl Objective for Probe<'_> {
    fn evaluate(&mut self, config: &Configuration, cap_s: f64) -> Evaluation {
        if self.calls == 0 {
            self.first_ask_ms = Some(ms_since(self.origin));
        } else if self.calls > self.skip {
            self.ask_gaps_ms.push(ms_since(self.last_return));
        }
        self.calls += 1;
        let eval = {
            let _s = trace::span("sparksim.eval");
            self.inner.evaluate(config, cap_s)
        };
        self.last_return = Instant::now();
        eval
    }

    fn set_fidelity(&mut self, fidelity: Fidelity) -> bool {
        self.inner.set_fidelity(fidelity)
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }
}

/// What the timed store saw.
#[derive(Debug, Default, Clone)]
pub struct StoreLog {
    /// Each read call, microseconds.
    pub read_us: Vec<f64>,
    /// Each write call, microseconds.
    pub write_us: Vec<f64>,
    /// Selection lookups.
    pub lookups: u64,
    /// Selection lookups that found a cached selection.
    pub hits: u64,
}

/// A [`ConcurrentMemoStore`] that times every read and write of the
/// store it wraps. Calls from a thread that is recording spans also
/// open a `memo.read` / `memo.write` span.
pub struct TimedStore {
    inner: SharedMemoStore,
    log: Mutex<StoreLog>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: SharedMemoStore) -> Self {
        TimedStore {
            inner,
            log: Mutex::new(StoreLog::default()),
        }
    }

    /// Forgets everything timed so far.
    pub fn reset(&self) {
        *self.lock() = StoreLog::default();
    }

    /// A copy of everything timed so far.
    pub fn log(&self) -> StoreLog {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, StoreLog> {
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn read<T>(&self, f: impl FnOnce(&dyn ConcurrentMemoStore) -> T) -> T {
        let _s = trace::span("memo.read");
        let t = Instant::now();
        let out = f(self.inner.as_ref());
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.lock().read_us.push(us);
        out
    }

    fn write(&self, f: impl FnOnce(&dyn ConcurrentMemoStore)) {
        let _s = trace::span("memo.write");
        let t = Instant::now();
        f(self.inner.as_ref());
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.lock().write_us.push(us);
    }
}

impl ConcurrentMemoStore for TimedStore {
    fn selection(&self, workload: &str) -> Option<Vec<String>> {
        let out = self.read(|s| s.selection(workload));
        let mut log = self.lock();
        log.lookups += 1;
        log.hits += u64::from(out.is_some());
        out
    }

    fn put_selection(&self, workload: &str, names: Vec<String>) {
        self.write(|s| s.put_selection(workload, names));
    }

    fn record_config(&self, workload: &str, config: Configuration, time_s: f64) {
        self.write(|s| s.record_config(workload, config, time_s));
    }

    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.read(|s| s.best_recent(workload, n))
    }

    fn has_selection(&self, workload: &str) -> bool {
        self.read(|s| s.has_selection(workload))
    }

    fn has_configs(&self, workload: &str) -> bool {
        self.read(|s| s.has_configs(workload))
    }

    fn workloads(&self) -> Vec<String> {
        self.read(|s| s.workloads())
    }

    fn checkpoint(&self) -> Result<(), String> {
        self.inner.checkpoint()
    }

    fn wal_lag(&self) -> u64 {
        self.inner.wal_lag()
    }

    fn status(&self) -> StoreStatus {
        self.inner.status()
    }
}
