//! `experiments serve`: boots a `robotune-service` daemon on loopback
//! (optionally with a persistent store directory and a `--flight-dir`
//! failure flight recorder; scoped telemetry is on by default) and
//! blocks until a client sends the `shutdown` verb. Its client side is
//! `experiments loadgen` ([`crate::loadgen`]).

use robotune::InMemoryMemoStore;
use robotune_service::{serve, PersistentMemoStore, ServiceOptions, SessionManager};
use std::net::TcpListener;
use std::path::PathBuf;

use crate::report::fatal;

/// Flags for `experiments serve`.
pub struct ServeArgs {
    /// Loopback port (0 = OS-assigned).
    pub port: u16,
    /// Persistent store directory; in-memory when absent.
    pub store: Option<PathBuf>,
    /// Compute workers that step sessions.
    pub workers: usize,
    /// Admission headroom: `overloaded` once `workers + queue` sessions
    /// are live.
    pub queue: usize,
    /// Failure flight-recorder directory; disabled when absent.
    pub flight_dir: Option<PathBuf>,
    /// Leave tracing off (per-session metrics and flight dumps will be
    /// empty; the `metrics`/`health` verbs still answer).
    pub no_telemetry: bool,
}

fn take_value(flag: &str, v: Option<&String>) -> String {
    v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
}

/// Parses `experiments serve` flags.
pub fn parse_serve_args(rest: &[String]) -> ServeArgs {
    let mut args = ServeArgs {
        port: 7651,
        store: None,
        workers: 4,
        queue: 64,
        flight_dir: None,
        no_telemetry: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                args.port = take_value("--port N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--port: {e}")));
            }
            "--store" => args.store = Some(PathBuf::from(take_value("--store DIR", it.next()))),
            "--workers" => {
                args.workers = take_value("--workers N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--workers: {e}")));
            }
            "--queue" => {
                args.queue = take_value("--queue N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--queue: {e}")));
            }
            "--flight-dir" => {
                args.flight_dir = Some(PathBuf::from(take_value("--flight-dir DIR", it.next())));
            }
            "--no-telemetry" => args.no_telemetry = true,
            other => fatal(format!("serve: unknown flag {other}")),
        }
    }
    args
}

/// Boots the daemon and serves until a `shutdown` verb drains it.
/// Returns the process exit code.
pub fn serve_main(rest: &[String]) -> i32 {
    let args = parse_serve_args(rest);
    // Scoped telemetry is bit-transparent and within the 2% overhead
    // budget, so the daemon runs with it on by default: per-session
    // `metrics` views and flight-recorder dumps need the event stream.
    if args.no_telemetry {
        eprintln!("telemetry: disabled (--no-telemetry)");
    } else {
        robotune_obs::enable_null();
        eprintln!("telemetry: enabled (null sink; per-session scopes live)");
    }
    let store = match &args.store {
        Some(dir) => match PersistentMemoStore::open(dir) {
            Ok(s) => {
                eprintln!("store: {} (persistent)", dir.display());
                s.into_shared()
            }
            Err(e) => fatal(format!("--store {}: {e}", dir.display())),
        },
        None => InMemoryMemoStore::new().into_shared(),
    };
    if let Some(dir) = &args.flight_dir {
        eprintln!("flight recorder: {}", dir.display());
    }
    let manager = SessionManager::new(
        ServiceOptions {
            workers: args.workers,
            queue_capacity: args.queue,
            flight_dir: args.flight_dir.clone(),
            ..ServiceOptions::default()
        },
        store,
    );
    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => fatal(format!("bind 127.0.0.1:{}: {e}", args.port)),
    };
    match listener.local_addr() {
        Ok(addr) => println!("robotune-service listening on {addr}"),
        Err(e) => fatal(format!("local_addr: {e}")),
    }
    match serve(listener, &manager) {
        Ok(()) => {
            println!("drained and checkpointed; bye");
            0
        }
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}
