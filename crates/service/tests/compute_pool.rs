//! Sessions are plain data stepped by a compute pool: one worker serves
//! many live sessions, each holding an outstanding ask while its client
//! runs the configuration.

mod common;

use robotune::InMemoryMemoStore;
use robotune_service::protocol::ObservedStatus;
use robotune_service::{Profile, ServiceOptions, Suggestion, TuningClient};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, SparkJob, ALL_WORKLOADS};
use robotune_tuners::Objective;
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
