//! Sessions are plain data stepped by a compute pool: one worker serves
//! many live sessions, each holding an outstanding ask while its client
//! runs the configuration; and a session has left the live count by the
//! time its client reads `finished`.

mod common;

use robotune::InMemoryMemoStore;
use robotune_service::client::drive_session;
use robotune_service::protocol::ObservedStatus;
use robotune_service::{Profile, ServiceOptions, Suggestion, TuningClient};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, SparkJob, Workload, ALL_WORKLOADS};
use robotune_tuners::Objective;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SESSIONS: usize = 8;
const BUDGET: usize = 3;

#[test]
fn one_worker_holds_eight_outstanding_asks_at_once() {
    let space = Arc::new(spark_space());
    let server = common::start(
        ServiceOptions { workers: 1, ..ServiceOptions::default() },
        InMemoryMemoStore::new().into_shared(),
    );
    let mut client = TuningClient::connect(server.addr).expect("connect");
    let sessions: Vec<String> = (0..SESSIONS)
        .map(|i| {
            client
                .create_session(&format!("wl-{i}"), "spark", 100 + i as u64, BUDGET, Profile::Fast)
                .expect("admitted")
        })
        .collect();

    // Every session answers its first suggest with a configuration: none
    // waits for another to finish.
    let mut asks = Vec::new();
    for sid in &sessions {
        match client.suggest(sid, &space).expect("suggest") {
            Suggestion::Config { index, config, cap_s } => asks.push((index, config, cap_s)),
            other => panic!("{sid}: expected a configuration, got {other:?}"),
        }
    }
    let health = client.health().expect("health");
    assert_eq!(health["sessions_live"].as_u64(), Some(SESSIONS as u64), "{health:?}");
    for sid in &sessions {
        let row = client.session_status(sid).expect("status");
        assert_eq!(row["state"].as_str(), Some("running"), "{row:?}");
        assert_eq!((row["asked"].as_u64(), row["observed"].as_u64()), (Some(1), Some(0)));
    }

    // Then all eight run to the end, interleaved on the one worker.
    let mut jobs: Vec<SparkJob> = (0..SESSIONS)
        .map(|i| {
            let w = ALL_WORKLOADS[i % ALL_WORKLOADS.len()];
            SparkJob::new((*space).clone(), w, Dataset::D1, 7 + i as u64)
        })
        .collect();
    let mut pending: Vec<Option<(u64, robotune_space::Configuration, f64)>> =
        asks.into_iter().map(Some).collect();
    let mut finished = 0;
    while finished < SESSIONS {
        for (i, sid) in sessions.iter().enumerate() {
            let Some((index, config, cap_s)) = pending[i].take() else {
                continue;
            };
            let eval = jobs[i].evaluate(&config, cap_s);
            client
                .observe(sid, index, eval.time_s, ObservedStatus::of(&eval))
                .expect("observe");
            match client.suggest(sid, &space).expect("suggest") {
                Suggestion::Config { index, config, cap_s } => {
                    pending[i] = Some((index, config, cap_s));
                }
                Suggestion::Finished { evals, .. } => {
                    assert_eq!(evals as usize, BUDGET, "{sid}");
                    finished += 1;
                }
            }
        }
    }
    let health = client.health().expect("health");
    assert_eq!(health["sessions_live"].as_u64(), Some(0), "{health:?}");
    server.shutdown();
}

#[test]
fn health_never_counts_a_session_its_client_saw_finish() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 50;
    let space = Arc::new(spark_space());
    let server = common::start(
        ServiceOptions { workers: 4, ..ServiceOptions::default() },
        InMemoryMemoStore::new().into_shared(),
    );
    let job = || SparkJob::new((*space).clone(), Workload::KMeans, Dataset::D1, 7);
    // One cold session fills the selection cache, so every later session
    // is a few asks long and the finishes come thick and fast.
    let mut client = TuningClient::connect(server.addr).expect("connect");
    drive_session(&mut client, &space, &mut job(), "wl", 1, BUDGET, Profile::Fast)
        .expect("warm-up session");

    // `created` counts create requests before they are sent, `seen`
    // finishes after their client read them. A health answer can count
    // at most the sessions created by the time it returns minus those
    // seen finished before it was asked.
    let created = AtomicU64::new(1);
    let seen = AtomicU64::new(1);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (created, seen, space, job) = (&created, &seen, &space, &job);
            scope.spawn(move || {
                let mut client = TuningClient::connect(server.addr).expect("connect");
                let mut objective = job();
                for r in 0..ROUNDS {
                    created.fetch_add(1, Ordering::SeqCst);
                    let seed = 1000 + c * ROUNDS + r;
                    let report = drive_session(
                        &mut client,
                        space,
                        &mut objective,
                        "wl",
                        seed,
                        BUDGET,
                        Profile::Fast,
                    )
                    .expect("drive");
                    assert!(report.cache_hit, "{}: selection cache missed", report.session);
                    let seen_before = seen.fetch_add(1, Ordering::SeqCst) + 1;
                    let health = client.health().expect("health");
                    let live = health["sessions_live"].as_u64().expect("sessions_live");
                    let open = created.load(Ordering::SeqCst) - seen_before;
                    assert!(
                        live <= open,
                        "{}: health counts {live} live sessions, at most {open} are open",
                        report.session
                    );
                }
            });
        }
    });
    let health = client.health().expect("health");
    assert_eq!(health["sessions_live"].as_u64(), Some(0), "{health:?}");
    server.shutdown();
}
