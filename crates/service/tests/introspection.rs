//! Live introspection and the failure flight recorder, end to end over
//! the real TCP protocol: `metrics` (JSON and Prometheus), `health`,
//! and the JSONL dumps written when sessions are cancelled or trip
//! fault injection.
//!
//! Every test here runs with tracing enabled (null sink) and never
//! disables it — the tests share one process, and the transparency
//! guarantee is covered separately in `determinism.rs`.

mod common;

use robotune::InMemoryMemoStore;
use robotune_service::client::drive_session;
use robotune_service::{Profile, ServiceOptions, Suggestion, TuningClient, FLIGHT_FORMAT_VERSION};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, FaultPlan, FaultProfile, SparkJob, Workload};
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flight_opts(dir: &Path) -> ServiceOptions {
    ServiceOptions {
        workers: 1,
        flight_dir: Some(dir.to_path_buf()),
        ..ServiceOptions::default()
    }
}

/// Polls for the flight dump of `session` until the worker writes it.
fn wait_for_dump(dir: &Path, session: &str) -> String {
    let path = dir.join(format!("flight-{session}.jsonl"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(&path) {
            return text;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("no flight dump at {} within 10s", path.display());
}

fn parse_dump(text: &str) -> Vec<Value> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("every dump line is JSON"))
        .collect()
}

#[test]
fn metrics_and_health_answer_over_the_wire() {
    robotune_obs::enable_null();
    let space = Arc::new(spark_space());
    let server = common::start(
        ServiceOptions { workers: 1, ..ServiceOptions::default() },
        InMemoryMemoStore::new().into_shared(),
    );
    let mut client = TuningClient::connect(server.addr).expect("connect");
    let mut job = SparkJob::new((*space).clone(), Workload::KMeans, Dataset::D1, 7);
    let report = drive_session(&mut client, &space, &mut job, "km", 31, 6, Profile::Fast)
        .expect("session completes");

    // Aggregate JSON view.
    let agg = client.metrics().expect("aggregate metrics");
    assert_eq!(agg["scope"].as_str(), Some("aggregate"));
    assert_eq!(agg["tracing_enabled"].as_bool(), Some(true));
    assert!(
        agg["counters"]["service.requests"].as_u64().unwrap_or(0) > 0,
        "aggregate counters include the service's own: {agg:?}"
    );

    // Per-session JSON view: scoped to this tenant only.
    let per = client.session_metrics(&report.session).expect("session metrics");
    assert_eq!(per["scope"].as_str(), Some(report.session.as_str()));
    assert!(per["counters"]["bo.observe"].as_u64().unwrap_or(0) > 0);
    assert!(per["hists"]["service.req_ns.suggest"]["count"].as_u64().unwrap_or(0) > 0);
    assert_eq!(
        per["counters"]["service.connections"].as_u64(),
        None,
        "a session scope must not see server-wide counters"
    );

    // Prometheus text, aggregate and per-session (labelled).
    let body = client.metrics_prometheus(None).expect("prometheus body");
    assert!(body.contains("# TYPE robotune_service_requests counter"), "{body}");
    let labelled = client
        .metrics_prometheus(Some(&report.session))
        .expect("labelled prometheus body");
    assert!(
        labelled.contains(&format!("session=\"{}\"", report.session)),
        "per-session exposition carries the session label: {labelled}"
    );
    assert!(labelled.contains("workload=\"km\""), "{labelled}");

    // Health: pressure, SLO windows, store.
    let h = client.health().expect("health");
    assert_eq!(h["status"].as_str(), Some("ok"));
    assert_eq!(h["workers"].as_u64(), Some(1));
    assert!(h["worker_utilization"].as_f64().is_some());
    assert!(h["slo"]["suggest"]["count"].as_u64().unwrap_or(0) > 0);
    assert!(h["slo"]["suggest"]["p50_ms"].as_f64().unwrap_or(-1.0) >= 0.0);
    assert!(h["store"]["wal_lag"].as_u64().is_some());
    assert_eq!(h["flight_recorder"], Value::Null);

    // Unknown session id is a typed protocol error, not a hang.
    assert!(client.session_metrics("s-99999").is_err());
    server.shutdown();
}

#[test]
fn cancelled_session_leaves_a_parseable_flight_dump() {
    robotune_obs::enable_null();
    let dir = std::env::temp_dir().join(format!("rt-flight-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = Arc::new(spark_space());
    let server = common::start(flight_opts(&dir), InMemoryMemoStore::new().into_shared());
    let mut client = TuningClient::connect(server.addr).expect("connect");

    let session = client
        .create_session("km", "spark", 5, 8, Profile::Fast)
        .expect("create session");
    // Pull one real suggestion so the trajectory has at least one ask.
    match client.suggest(&session, &space).expect("suggest") {
        Suggestion::Config { .. } => {}
        other => panic!("unexpected suggestion {other:?}"),
    }
    client.close_session(&session).expect("cancel");

    let lines = parse_dump(&wait_for_dump(&dir, &session));
    let header = &lines[0];
    assert_eq!(header["kind"].as_str(), Some("flight"));
    assert_eq!(header["version"].as_i64(), Some(FLIGHT_FORMAT_VERSION));
    assert_eq!(header["session"].as_str(), Some(session.as_str()));
    assert_eq!(header["reason"].as_str(), Some("cancelled"));
    assert_eq!(header["workload"].as_str(), Some("km"));
    let footer = lines.last().expect("non-empty dump");
    assert_eq!(footer["kind"].as_str(), Some("recorder"));
    let kind_count =
        |k: &str| lines.iter().filter(|l| l["kind"].as_str() == Some(k)).count();
    assert_eq!(kind_count("stats"), 1);
    assert_eq!(kind_count("counters"), 1);
    assert_eq!(kind_count("fault_counters"), 1);
    assert!(kind_count("ask") >= 1, "trajectory records the pulled ask");
    assert!(kind_count("event") > 0, "scope ring captured events");
    // Ask lines decode: each carries a config object.
    for l in lines.iter().filter(|l| l["kind"].as_str() == Some("ask")) {
        assert!(l["config"].as_object().is_some());
        assert!(l["cap_s"].as_f64().unwrap_or(-1.0) > 0.0);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_killed_session_leaves_a_dump_with_the_failure_story() {
    robotune_obs::enable_null();
    let dir = std::env::temp_dir().join(format!("rt-flight-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = Arc::new(spark_space());
    let server = common::start(flight_opts(&dir), InMemoryMemoStore::new().into_shared());
    let mut client = TuningClient::connect(server.addr).expect("connect");

    // A hostile fault plan guarantees failed evaluations at this budget.
    let mut job = SparkJob::new((*space).clone(), Workload::PageRank, Dataset::D1, 11)
        .with_faults(FaultPlan::from_profile(FaultProfile::Hostile, 11));
    let report = drive_session(&mut client, &space, &mut job, "pr", 11, 4, Profile::Fast)
        .expect("faulted session still completes");

    let lines = parse_dump(&wait_for_dump(&dir, &report.session));
    assert_eq!(lines[0]["reason"].as_str(), Some("fault_injection"));
    let stats = lines
        .iter()
        .find(|l| l["kind"].as_str() == Some("stats"))
        .expect("stats line");
    assert!(stats["failed"].as_u64().unwrap_or(0) > 0, "{stats:?}");
    // The retry layer runs server-side, so the scope's fault_counters
    // carry the retry story for the injected chaos.
    let fc = lines
        .iter()
        .find(|l| l["kind"].as_str() == Some("fault_counters"))
        .expect("fault_counters line");
    assert!(
        fc["counters"]["retry.attempt"].as_u64().unwrap_or(0) > 0,
        "retries recorded for injected faults: {fc:?}"
    );
    let asks = lines.iter().filter(|l| l["kind"].as_str() == Some("ask")).count();
    let tells = lines.iter().filter(|l| l["kind"].as_str() == Some("tell")).count();
    assert!(asks > 0 && tells > 0, "config trajectory present ({asks} asks, {tells} tells)");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
