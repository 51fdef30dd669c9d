//! `experiments loadgen` end to end: the multiplexed generator against
//! an in-process daemon on a loopback port over a persistent store.
//!
//! - a cold run finishes every session with no selection-cache hits, so
//!   `--expect-warm` fails it;
//! - a second daemon on the same store directory serves cache hits;
//! - a `--faults hostile` run still finishes every session.

use robotune_bench::loadgen::{run_loadgen, LoadgenArgs, LoadgenReport};
use robotune_service::{serve, PersistentMemoStore, ServiceOptions, SessionManager, TuningClient};
use robotune_sparksim::FaultProfile;
use serde_json::Value;
use std::net::TcpListener;
use std::path::Path;

const TENANTS: usize = 3;

/// Boots a daemon over the store at `dir`, runs `args` against it (with
/// `--shutdown`, so the daemon drains and checkpoints), and returns the
/// report once the daemon has exited.
fn run_against_daemon(dir: &Path, mut args: LoadgenArgs) -> LoadgenReport {
    let store = PersistentMemoStore::open(dir).expect("open store").into_shared();
    let manager = SessionManager::new(
        ServiceOptions { workers: 2, ..ServiceOptions::default() },
        store,
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    args.addr = listener.local_addr().expect("local addr").to_string();
    args.shutdown = true;
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &manager));
        let report = run_loadgen(&args);
        if report.is_err() {
            // The run stopped before its own shutdown; stop the daemon
            // so the scope can join it and the failure surfaces.
            let _ = TuningClient::connect(args.addr.as_str()).and_then(|mut c| c.shutdown());
        }
        server.join().expect("server thread").expect("serve exits cleanly");
        report.expect("loadgen run")
    })
}

fn census(report: &LoadgenReport) -> Value {
    report.to_json()["census"].clone()
}

fn args(budget: usize) -> LoadgenArgs {
    LoadgenArgs { tenants: TENANTS, budget, ..LoadgenArgs::default() }
}

#[test]
fn cold_then_warm_daemons_and_hostile_faults_finish_every_session() {
    let dir = std::env::temp_dir().join(format!("rt-loadgen-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = run_against_daemon(&dir, LoadgenArgs { expect_warm: true, ..args(3) });
    let c = census(&cold);
    assert_eq!(c["sessions_created"].as_u64(), Some(TENANTS as u64), "{c:?}");
    assert_eq!(c["sessions_finished"], c["sessions_created"], "{c:?}");
    assert_eq!(c["cache_hits"].as_u64(), Some(0), "{c:?}");
    assert_eq!(
        cold.failures,
        ["--expect-warm set but no session hit the selection cache"],
        "a cold store fails --expect-warm and nothing else"
    );

    let warm = run_against_daemon(&dir, LoadgenArgs { expect_warm: true, ..args(3) });
    let c = census(&warm);
    assert!(warm.failures.is_empty(), "{:?}", warm.failures);
    assert!(c["cache_hits"].as_u64().unwrap_or(0) > 0, "{c:?}");
    assert_eq!(c["sessions_finished"].as_u64(), Some(TENANTS as u64), "{c:?}");

    let hostile = run_against_daemon(&dir, LoadgenArgs { faults: FaultProfile::Hostile, ..args(4) });
    let c = census(&hostile);
    assert!(hostile.failures.is_empty(), "{:?}", hostile.failures);
    assert_eq!(c["sessions_finished"].as_u64(), Some(TENANTS as u64), "{c:?}");
    assert!(c["evals_observed"].as_u64().unwrap_or(0) > 0, "{c:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
