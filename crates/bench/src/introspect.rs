//! Live-service introspection tools: the `experiments top` per-tenant
//! monitor and the `experiments flightcheck` dump validator.
//!
//! `top` polls a running daemon over the ordinary protocol — `status`
//! for the session roster, `health` for pressure/SLO/store gauges,
//! per-session `metrics` for each tenant's scoped counters, and
//! per-session `diagnose` for the `health` column (the doctor's rules,
//! rendered as one word) — and renders one table per refresh. With
//! `--once` it prints a single frame and exits, which is how the CI
//! smoke job asserts that live per-tenant introspection works end to
//! end.
//!
//! `flightcheck` parses a failure flight-recorder dump (see
//! `robotune_service::flight` for the line schema), validates its
//! structure — including the `diag` tuner-health lines, whose
//! per-series iteration numbers must be strictly increasing, and the
//! embedded telemetry events, whose kinds must come from the known
//! schema — and summarises the post-mortem; a malformed dump exits
//! non-zero.

use robotune_service::{TuningClient, FLIGHT_FORMAT_VERSION};
use robotune_stats::OnlineStats;
use serde_json::Value;
use std::time::Duration;

use crate::report::fatal;

/// Flags for `experiments top`.
pub struct TopArgs {
    /// Daemon address.
    pub addr: String,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
    /// Print one frame and exit.
    pub once: bool,
}

/// Parses `experiments top` flags.
pub fn parse_top_args(rest: &[String]) -> TopArgs {
    let mut args =
        TopArgs { addr: "127.0.0.1:7651".to_string(), interval_ms: 1000, once: false };
    let mut it = rest.iter();
    let value = |flag: &str, v: Option<&String>| -> String {
        v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = value("--addr HOST:PORT", it.next()),
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms N", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--interval-ms: {e}")));
            }
            "--once" => args.once = true,
            other => fatal(format!("top: unknown flag {other}")),
        }
    }
    args
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.2}"),
        _ => "—".to_string(),
    }
}

fn slo_line(health: &Value, which: &str) -> String {
    let w = &health["slo"][which];
    let count = w["count"].as_u64().unwrap_or(0);
    if count == 0 {
        return format!("{which}: no samples");
    }
    format!(
        "{which}: p50 {} ms, p99 {} ms (n={count})",
        fmt_ms(w["p50_ms"].as_f64()),
        fmt_ms(w["p99_ms"].as_f64()),
    )
}

/// One refresh: polls the daemon and renders the frame as text.
fn render_frame(client: &mut TuningClient, addr: &str) -> Result<String, String> {
    let status = client.status().map_err(|e| format!("status: {e}"))?;
    let health = client.health().map_err(|e| format!("health: {e}"))?;
    let mut out = String::new();

    out.push_str(&format!(
        "robotune-service @ {addr} — {} | workers {} | busy {} | live {} | steps queued {} | tracing {}\n",
        health["status"].as_str().unwrap_or("?"),
        health["workers"].as_u64().unwrap_or(0),
        health["sessions_active"].as_u64().unwrap_or(0),
        health["sessions_live"].as_u64().unwrap_or(0),
        health["queue_depth"].as_u64().unwrap_or(0),
        if health["tracing_enabled"].as_bool().unwrap_or(false) { "on" } else { "off" },
    ));
    out.push_str(&format!(
        "SLO window {}: {} | {}\n",
        health["slo"]["window"].as_u64().unwrap_or(0),
        slo_line(&health, "suggest"),
        slo_line(&health, "observe"),
    ));
    let store = &health["store"];
    let durability = if store["degraded"].as_bool().unwrap_or(false) {
        "DEGRADED"
    } else if store["persistent"].as_bool().unwrap_or(false) {
        "durable"
    } else {
        "memory"
    };
    out.push_str(&format!(
        "store: {durability} | shards {} ({} degraded) | segments {} | corrupt {} | wal_lag {} | \
         workloads {} | checkpoints {} | wal_errors {} | flight {}\n\n",
        store["shards"].as_u64().unwrap_or(0),
        store["degraded_shards"].as_u64().unwrap_or(0),
        store["segments"].as_u64().unwrap_or(0),
        store["corrupt_segments"].as_u64().unwrap_or(0),
        store["wal_lag"].as_u64().unwrap_or(0),
        store["workloads"].as_u64().unwrap_or(0),
        store["checkpoints"].as_u64().unwrap_or(0),
        store["wal_errors"].as_u64().unwrap_or(0),
        health["flight_recorder"].as_str().unwrap_or("off"),
    ));

    out.push_str(&format!(
        "{:<8} {:<10} {:<10} {:<6} {:>5} {:>8} {:>7} {:>8} {:>7} {:>8} {:>6} {:>6} {:>9} {:>12} {:>12}\n",
        "session",
        "state",
        "workload",
        "health",
        "asked",
        "observed",
        "failed",
        "best(s)",
        "bo.obs",
        "retries",
        "rungs",
        "promo",
        "mf(s)",
        "sug p50/p99",
        "obs p50/p99"
    ));
    let empty = Vec::new();
    let sessions = status["sessions"].as_array().unwrap_or(&empty);
    for s in sessions {
        let sid = s["session"].as_str().unwrap_or("?");
        // Scoped metrics are best-effort: a telemetry-off daemon still
        // lists the session, just with empty counters.
        let metrics = client.session_metrics(sid).unwrap_or(Value::Null);
        let counter =
            |name: &str| -> u64 { metrics["counters"][name].as_u64().unwrap_or(0) };
        let req = |name: &str| -> (String, String) {
            let h = &metrics["hists"][name];
            if h["count"].as_u64().unwrap_or(0) == 0 {
                ("—".to_string(), "—".to_string())
            } else {
                (
                    fmt_ms(h["p50"].as_f64().map(|v| v / 1e6)),
                    fmt_ms(h["p99"].as_f64().map(|v| v / 1e6)),
                )
            }
        };
        let (sp50, sp99) = req("service.req_ns.suggest");
        let (op50, op99) = req("service.req_ns.observe");
        // The health word runs the doctor's per-session rules over the
        // diagnose payload; best-effort like the scoped metrics.
        let health_word = match client.diagnose(sid) {
            Ok(diag) => crate::doctor::health_word(&crate::doctor::run_session_rules(&diag)),
            Err(_) => "—",
        };
        // Simulated seconds burned on partial- and full-fidelity rungs:
        // the sum across every `mf.budget_spent.<fidelity>` histogram.
        let mf_spent: f64 = metrics["hists"]
            .as_object()
            .map(|hists| {
                hists
                    .iter()
                    .filter(|(name, _)| name.starts_with("mf.budget_spent."))
                    .filter_map(|(_, h)| h["sum"].as_f64())
                    .sum()
            })
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:<8} {:<10} {:<10} {:<6} {:>5} {:>8} {:>7} {:>8} {:>7} {:>8} {:>6} {:>6} {:>9} {:>12} {:>12}\n",
            sid,
            s["state"].as_str().unwrap_or("?"),
            s["workload"].as_str().unwrap_or("?"),
            health_word,
            s["asked"].as_u64().unwrap_or(0),
            s["observed"].as_u64().unwrap_or(0),
            s["failed"].as_u64().unwrap_or(0),
            s["best_time_s"].as_f64().map_or("—".to_string(), |b| format!("{b:.1}")),
            counter("bo.observe"),
            counter("retry.attempt"),
            counter("mf.rung_evals"),
            counter("mf.promotions"),
            if mf_spent > 0.0 { format!("{mf_spent:.0}") } else { "—".to_string() },
            format!("{sp50}/{sp99}"),
            format!("{op50}/{op99}"),
        ));
    }
    if sessions.is_empty() {
        out.push_str("(no sessions)\n");
    }
    Ok(out)
}

/// Entry point for `experiments top`. Returns the exit code.
pub fn top_main(rest: &[String]) -> i32 {
    let args = parse_top_args(rest);
    let mut client = match TuningClient::connect(args.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("top: connect {}: {e}", args.addr);
            return 1;
        }
    };
    loop {
        let frame = match render_frame(&mut client, &args.addr) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("top: {e}");
                return 1;
            }
        };
        if args.once {
            print!("{frame}");
            return 0;
        }
        // Clear + home, then the frame: a minimal live view without
        // pulling in a terminal library.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        std::io::stdout().flush().ok();
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

/// Validation summary of one flight dump.
#[derive(Debug)]
struct FlightSummary {
    session: String,
    reason: String,
    version: i64,
    asks: usize,
    tells: usize,
    events: usize,
    diags: usize,
    fault_total: u64,
    events_dropped: u64,
    trajectory_dropped: u64,
    /// Streaming summary of the recorded `tell` evaluation times.
    eval_times: OnlineStats,
}

/// Event kinds the telemetry JSONL schema can emit; an `event` line
/// with any other kind means the dump and the reader disagree about
/// the schema, which is exactly what flightcheck exists to catch.
const KNOWN_EVENT_KINDS: [&str; 6] =
    ["span_start", "span_end", "counter", "hist", "mark", "diag"];

/// Parses and validates one flight-recorder dump.
fn check_flight(text: &str, path: &str) -> Result<FlightSummary, String> {
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: not JSON: {e}", i + 1))?;
        if v.get("kind").and_then(Value::as_str).is_none() {
            return Err(format!("{path}:{}: line has no \"kind\"", i + 1));
        }
        lines.push(v);
    }
    let header = lines.first().ok_or_else(|| format!("{path}: empty dump"))?;
    if header["kind"].as_str() != Some("flight") {
        return Err(format!("{path}: first line is not the flight header"));
    }
    let version = header["version"].as_i64().unwrap_or(-1);
    if version != FLIGHT_FORMAT_VERSION {
        return Err(format!(
            "{path}: format version {version} (expected {FLIGHT_FORMAT_VERSION})"
        ));
    }
    let footer = lines.last().ok_or_else(|| format!("{path}: empty dump"))?;
    if footer["kind"].as_str() != Some("recorder") {
        return Err(format!("{path}: last line is not the recorder footer"));
    }
    let mut summary = FlightSummary {
        session: header["session"].as_str().unwrap_or("?").to_string(),
        reason: header["reason"].as_str().unwrap_or("?").to_string(),
        version,
        asks: 0,
        tells: 0,
        events: 0,
        diags: 0,
        fault_total: 0,
        events_dropped: footer["events_dropped"].as_u64().unwrap_or(0),
        trajectory_dropped: footer["trajectory_dropped"].as_u64().unwrap_or(0),
        eval_times: OnlineStats::new(),
    };
    let (mut saw_stats, mut saw_counters) = (false, false);
    // Per-series high-water mark for diag iteration numbers: every
    // series must be strictly increasing within one dump.
    let mut diag_iters: Vec<(String, u64)> = Vec::new();
    for v in &lines[1..lines.len() - 1] {
        match v["kind"].as_str().unwrap_or("") {
            "stats" => saw_stats = true,
            "counters" => saw_counters = true,
            "fault_counters" => {
                summary.fault_total = v["total"].as_u64().unwrap_or(0);
            }
            "ask" => {
                if v["config"].as_object().is_none() {
                    return Err(format!("{path}: ask line without a config object"));
                }
                summary.asks += 1;
            }
            "tell" => {
                summary.tells += 1;
                if let Some(t) = v["time_s"].as_f64() {
                    summary.eval_times.push(t);
                }
            }
            "diag" => {
                let name = v["name"]
                    .as_str()
                    .ok_or_else(|| format!("{path}: diag line without a name"))?;
                let iter = v["iter"]
                    .as_u64()
                    .ok_or_else(|| format!("{path}: diag {name:?} without an iter"))?;
                if v["data"].as_object().is_none() {
                    return Err(format!("{path}: diag {name:?} without a data object"));
                }
                match diag_iters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, last)) => {
                        if iter <= *last {
                            return Err(format!(
                                "{path}: diag {name:?} iter {iter} not after {last}"
                            ));
                        }
                        *last = iter;
                    }
                    None => diag_iters.push((name.to_string(), iter)),
                }
                summary.diags += 1;
            }
            "event" => {
                let kind = v["event"]["kind"]
                    .as_str()
                    .ok_or_else(|| format!("{path}: event line without an event kind"))?;
                if !KNOWN_EVENT_KINDS.contains(&kind) {
                    return Err(format!("{path}: unknown event kind {kind:?}"));
                }
                summary.events += 1;
            }
            other => return Err(format!("{path}: unknown line kind {other:?}")),
        }
    }
    if !saw_stats || !saw_counters {
        return Err(format!("{path}: missing stats/counters lines"));
    }
    Ok(summary)
}

/// Entry point for `experiments flightcheck <file>...`. Returns the
/// exit code (non-zero when any dump fails validation).
pub fn flightcheck_main(rest: &[String]) -> i32 {
    if rest.is_empty() {
        eprintln!("usage: experiments flightcheck <flight.jsonl>...");
        return 2;
    }
    let mut code = 0;
    for path in rest {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("flightcheck: {path}: {e}");
                code = 1;
                continue;
            }
        };
        match check_flight(&text, path) {
            Ok(s) => {
                let evals = match s.eval_times.count() {
                    0 => String::new(),
                    1 => format!(", eval time {:.1}s", s.eval_times.mean()),
                    _ => format!(
                        ", eval time {:.1}s mean (σ {:.1})",
                        s.eval_times.mean(),
                        s.eval_times.std_dev()
                    ),
                };
                println!(
                    "{path}: ok — session {} (v{}), reason {}, {} asks / {} tells, \
                     {} events ({} dropped), {} diag samples, {} trajectory dropped, \
                     {} fault/retry events{evals}",
                    s.session,
                    s.version,
                    s.reason,
                    s.asks,
                    s.tells,
                    s.events,
                    s.events_dropped,
                    s.diags,
                    s.trajectory_dropped,
                    s.fault_total,
                );
            }
            Err(e) => {
                eprintln!("flightcheck: {e}");
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(lines: &[&str]) -> String {
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }

    #[test]
    fn flightcheck_accepts_a_well_formed_dump() {
        let text = dump(&[
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"cancelled","state":"cancelled","workload":"wl-0","seed":1,"budget":4,"profile":"fast"}"#,
            r#"{"kind":"stats","asked":2,"observed":1,"completed":1,"failed":0,"capped":0,"best_time_s":10.0}"#,
            r#"{"kind":"counters","counters":{"bo.suggest":2}}"#,
            r#"{"kind":"fault_counters","counters":{"fault.straggler":1},"total":1}"#,
            r#"{"kind":"diag","name":"diag.gp.fit","iter":3,"data":{"cond":1.5,"fallback":false}}"#,
            r#"{"kind":"diag","name":"diag.bo.observe","iter":0,"data":{"y":10.0,"best":10.0}}"#,
            r#"{"kind":"diag","name":"diag.gp.fit","iter":7,"data":{"cond":2.0,"fallback":false}}"#,
            r#"{"kind":"ask","index":0,"cap_s":480.0,"config":{"a":1}}"#,
            r#"{"kind":"tell","index":0,"time_s":10.0,"status":"completed"}"#,
            r#"{"kind":"event","event":{"kind":"counter","name":"bo.suggest"}}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        let s = check_flight(&text, "t.jsonl").map_err(|e| e.to_string()).unwrap();
        assert_eq!((s.asks, s.tells, s.events), (1, 1, 1));
        assert_eq!(s.diags, 3);
        assert_eq!(s.fault_total, 1);
        assert_eq!(s.session, "s-1");
    }

    #[test]
    fn flightcheck_rejects_non_monotone_diag_iters_and_bad_schemas() {
        let head = [
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"counters","counters":{}}"#,
        ];
        let foot = r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#;

        // Repeated iter within one series: not strictly increasing.
        let mut lines: Vec<&str> = head.to_vec();
        lines.push(r#"{"kind":"diag","name":"diag.gp.fit","iter":5,"data":{}}"#);
        lines.push(r#"{"kind":"diag","name":"diag.gp.fit","iter":5,"data":{}}"#);
        lines.push(foot);
        let err = check_flight(&dump(&lines), "t").unwrap_err();
        assert!(err.contains("not after"), "{err}");

        // Independent series keep independent watermarks.
        let mut lines: Vec<&str> = head.to_vec();
        lines.push(r#"{"kind":"diag","name":"diag.gp.fit","iter":5,"data":{}}"#);
        lines.push(r#"{"kind":"diag","name":"diag.mf.rung","iter":0,"data":{}}"#);
        lines.push(foot);
        assert!(check_flight(&dump(&lines), "t").is_ok());

        // A diag line without iter or data is malformed.
        let mut lines: Vec<&str> = head.to_vec();
        lines.push(r#"{"kind":"diag","name":"diag.gp.fit","data":{}}"#);
        lines.push(foot);
        assert!(check_flight(&dump(&lines), "t").is_err());
        let mut lines: Vec<&str> = head.to_vec();
        lines.push(r#"{"kind":"diag","name":"diag.gp.fit","iter":1}"#);
        lines.push(foot);
        assert!(check_flight(&dump(&lines), "t").is_err());
    }

    #[test]
    fn flightcheck_rejects_unknown_event_kinds() {
        let text = dump(&[
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"counters","counters":{}}"#,
            r#"{"kind":"event","event":{"kind":"hologram","name":"x"}}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        let err = check_flight(&text, "t").unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
        // An event line with no kind at all is just as malformed.
        let text = dump(&[
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"counters","counters":{}}"#,
            r#"{"kind":"event","event":{"name":"x"}}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        assert!(check_flight(&text, "t").is_err());
    }

    #[test]
    fn flightcheck_rejects_malformed_dumps() {
        // Not JSON.
        assert!(check_flight("not json\n", "t").is_err());
        // Missing header.
        let no_header = dump(&[
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        assert!(check_flight(&no_header, "t").is_err());
        // Missing footer.
        let no_footer = dump(&[
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"counters","counters":{}}"#,
        ]);
        assert!(check_flight(&no_footer, "t").is_err());
        // Wrong version.
        let bad_version = dump(&[
            r#"{"kind":"flight","version":99,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        assert!(check_flight(&bad_version, "t").is_err());
        // Unknown kind.
        let unknown = dump(&[
            r#"{"kind":"flight","version":1,"session":"s-1","reason":"x"}"#,
            r#"{"kind":"stats","asked":0}"#,
            r#"{"kind":"counters","counters":{}}"#,
            r#"{"kind":"mystery"}"#,
            r#"{"kind":"recorder","events_dropped":0,"trajectory_dropped":0}"#,
        ]);
        assert!(check_flight(&unknown, "t").is_err());
    }
}
