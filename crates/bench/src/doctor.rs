//! `experiments doctor`: rule-based tuner-health detectors over the
//! service's `diagnose` and `health` payloads.
//!
//! The doctor never re-runs anything — it reads the versioned diagnose
//! schema (`diag.*` series + derived summary, see
//! `robotune_service::diagnose`) for each session plus the server
//! `health` frame, and applies a fixed set of named rules:
//!
//! | rule                    | signal                                             |
//! |-------------------------|----------------------------------------------------|
//! | `stalled_convergence`   | incumbent flat over the last half of the rounds    |
//! | `ill_conditioned_kernel`| Cholesky condition estimate above 1e8 / 1e12       |
//! | `fallback_storm`        | > half of GP fits fell back to default θ           |
//! | `lengthscale_collapse`  | the GP lengthscale pinned at the hyperfit's floor  |
//! | `wal_lag`               | store WAL lag above threshold or shard degraded    |
//! | `slo_burn`              | rolling suggest p99 above the SLO target           |
//!
//! Each finding carries a severity; `--expect RULE` turns the run into
//! an assertion (exit 1 unless every expected rule fired), which is how
//! the CI smoke job proves the detectors catch seeded pathologies.

use robotune_gp::HyperFitOptions;
use robotune_service::TuningClient;
use serde_json::{Map, Value};

use crate::report::fatal;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, not actionable by itself.
    Info,
    /// The tuner is degraded; results are still usable.
    Warning,
    /// The tuner is effectively not optimizing.
    Critical,
}

impl Severity {
    /// The display spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One detector hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule name (what `--expect` matches).
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-oriented evidence.
    pub message: String,
}

/// Condition-number thresholds: warn, then critical.
const COND_WARN: f64 = 1e8;
const COND_CRIT: f64 = 1e12;
/// Fallback-storm ratio over at least this many fits.
const FALLBACK_RATIO: f64 = 0.5;
const FALLBACK_MIN_FITS: u64 = 4;
/// A lengthscale within this factor of the hyperfit's lower bound on ℓ
/// counts as pinned there.
const LENGTHSCALE_MARGIN: f64 = 1.05;
/// Rounds needed before flat-incumbent detection means anything.
const STALL_MIN_ROUNDS: usize = 6;
/// Store WAL lag (unflushed appends) considered unhealthy.
const WAL_LAG_WARN: u64 = 64;
/// Rolling suggest p99 SLO target, milliseconds.
const SLO_SUGGEST_P99_MS: f64 = 1000.0;

/// Runs every per-session rule over one diagnose payload.
pub fn run_session_rules(diag: &Value) -> Vec<Finding> {
    let mut findings = Vec::new();
    let summary = &diag["summary"];

    // fallback_storm: the hyperparameter fits are not converging and
    // the model keeps running on default θ — acquisitions are near-blind.
    let fits = summary["gp_fits"].as_u64().unwrap_or(0);
    let fallbacks = summary["gp_fallbacks"].as_u64().unwrap_or(0);
    if fits >= FALLBACK_MIN_FITS && fallbacks as f64 > FALLBACK_RATIO * fits as f64 {
        let warm = diag["series"]["diag.gp.fit"].as_array().map_or(0, |fits| {
            fits.iter()
                .filter(|p| {
                    p["fallback"].as_bool() == Some(true) && p["warm"].as_bool() == Some(true)
                })
                .count()
        });
        findings.push(Finding {
            rule: "fallback_storm",
            severity: Severity::Critical,
            message: format!(
                "{fallbacks} of {fits} GP fits fell back to default hyperparameters \
                 ({warm} of them warm-started from the previous fit)"
            ),
        });
    }

    // ill_conditioned_kernel: the covariance factorization is living on
    // jitter; predictions (and acquisitions) are numerically suspect.
    if let Some(cond) = summary["gp_max_cond"].as_f64() {
        if cond > COND_CRIT {
            findings.push(Finding {
                rule: "ill_conditioned_kernel",
                severity: Severity::Critical,
                message: format!("kernel condition estimate reached {cond:.3e} (> {COND_CRIT:e})"),
            });
        } else if cond > COND_WARN {
            findings.push(Finding {
                rule: "ill_conditioned_kernel",
                severity: Severity::Warning,
                message: format!("kernel condition estimate reached {cond:.3e} (> {COND_WARN:e})"),
            });
        }
    }

    // lengthscale_collapse: a lengthscale pinned at the floor means the
    // kernel treats the inputs as pure noise — usually a scaling bug or a
    // degenerate observation set.
    // The floor is the default hyperfit box's lower bound on ℓ, e^−4 ≈
    // 0.018, plus 5%: a fit pinned there reads the bound itself.
    if let Some(ls) = summary["gp_min_lengthscale"].as_f64() {
        let floor = HyperFitOptions::default().log_length_bounds.0.exp() * LENGTHSCALE_MARGIN;
        if ls < floor {
            findings.push(Finding {
                rule: "lengthscale_collapse",
                severity: Severity::Warning,
                message: format!(
                    "minimum lengthscale {ls:.3e} is at the hyperfit's floor (below {floor:.3e})"
                ),
            });
        }
    }

    // stalled_convergence: the incumbent has not moved over the entire
    // second half of the observed rounds.
    let empty = Vec::new();
    let observes = diag["series"]["diag.bo.observe"].as_array().unwrap_or(&empty);
    if observes.len() >= STALL_MIN_ROUNDS {
        let bests: Vec<f64> =
            observes.iter().filter_map(|p| p["best"].as_f64()).collect();
        if bests.len() >= STALL_MIN_ROUNDS {
            let half = bests.len() / 2;
            let tail = &bests[half..];
            let flat = tail.windows(2).all(|w| w[1] >= w[0] - f64::EPSILON * w[0].abs());
            if flat && tail.first() == tail.last() {
                findings.push(Finding {
                    rule: "stalled_convergence",
                    severity: Severity::Warning,
                    message: format!(
                        "incumbent flat at {:.4} over the last {} of {} rounds",
                        tail.last().copied().unwrap_or(f64::NAN),
                        tail.len(),
                        bests.len()
                    ),
                });
            }
        }
    }

    findings
}

/// Runs the server-wide rules over one `health` payload with the
/// default SLO target.
pub fn run_server_rules(health: &Value) -> Vec<Finding> {
    run_server_rules_with(health, SLO_SUGGEST_P99_MS)
}

/// Runs the server-wide rules with an explicit suggest-p99 SLO target
/// in milliseconds (the `doctor --slo-ms` knob: operators with tighter
/// latency budgets lower it, and the CI smoke tightens it to prove
/// burn detection fires end to end).
pub fn run_server_rules_with(health: &Value, slo_suggest_p99_ms: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let store = &health["store"];
    let wal_lag = store["wal_lag"].as_u64().unwrap_or(0);
    if store["degraded"].as_bool().unwrap_or(false) {
        findings.push(Finding {
            rule: "wal_lag",
            severity: Severity::Critical,
            message: format!(
                "store degraded: {} shard(s) failing WAL appends (lag {wal_lag})",
                store["degraded_shards"].as_u64().unwrap_or(0)
            ),
        });
    } else if wal_lag > WAL_LAG_WARN {
        findings.push(Finding {
            rule: "wal_lag",
            severity: Severity::Warning,
            message: format!("store WAL lag {wal_lag} exceeds {WAL_LAG_WARN}"),
        });
    }
    let suggest = &health["slo"]["suggest"];
    if suggest["count"].as_u64().unwrap_or(0) > 0 {
        if let Some(p99) = suggest["p99_ms"].as_f64() {
            if p99 > slo_suggest_p99_ms {
                findings.push(Finding {
                    rule: "slo_burn",
                    severity: Severity::Warning,
                    message: format!(
                        "rolling suggest p99 {p99:.1} ms exceeds {slo_suggest_p99_ms} ms"
                    ),
                });
            }
        }
    }
    findings
}

/// One word summarising a finding set — the `health` column in
/// `experiments top`.
pub fn health_word(findings: &[Finding]) -> &'static str {
    match findings.iter().map(|f| f.severity).max() {
        Some(Severity::Critical) => "CRIT",
        Some(Severity::Warning) => "warn",
        Some(Severity::Info) | None => "ok",
    }
}

/// Flags for `experiments doctor`.
pub struct DoctorArgs {
    /// Daemon address.
    pub addr: String,
    /// Explicit session ids; empty means every session in `status`.
    pub sessions: Vec<String>,
    /// Emit the report as one JSON object instead of text.
    pub json: bool,
    /// Rules that must fire (anywhere) for exit 0.
    pub expect: Vec<String>,
    /// Suggest-p99 SLO target in milliseconds for the `slo_burn` rule.
    pub slo_ms: f64,
}

/// Parses `experiments doctor` flags.
pub fn parse_doctor_args(rest: &[String]) -> DoctorArgs {
    let mut args = DoctorArgs {
        addr: "127.0.0.1:7651".to_string(),
        sessions: Vec::new(),
        json: false,
        expect: Vec::new(),
        slo_ms: SLO_SUGGEST_P99_MS,
    };
    let mut it = rest.iter();
    let value = |flag: &str, v: Option<&String>| -> String {
        v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = value("--addr HOST:PORT", it.next()),
            "--session" => args.sessions.push(value("--session ID", it.next())),
            "--json" => args.json = true,
            "--expect" => args.expect.push(value("--expect RULE", it.next())),
            "--slo-ms" => {
                args.slo_ms = value("--slo-ms MS", it.next())
                    .parse()
                    .unwrap_or_else(|e| fatal(format!("--slo-ms: {e}")));
            }
            other => fatal(format!("doctor: unknown flag {other}")),
        }
    }
    args
}

fn findings_json(findings: &[Finding]) -> Value {
    Value::Array(
        findings
            .iter()
            .map(|f| {
                let mut m = Map::new();
                m.insert("rule".into(), Value::from(f.rule));
                m.insert("severity".into(), Value::from(f.severity.as_str()));
                m.insert("message".into(), Value::from(f.message.clone()));
                Value::Object(m)
            })
            .collect(),
    )
}

/// Entry point for `experiments doctor`. Returns the exit code.
pub fn doctor_main(rest: &[String]) -> i32 {
    let args = parse_doctor_args(rest);
    let mut client = match TuningClient::connect(args.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("doctor: connect {}: {e}", args.addr);
            return 1;
        }
    };
    let health = match client.health() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("doctor: health: {e}");
            return 1;
        }
    };
    let sessions = if args.sessions.is_empty() {
        match client.status() {
            Ok(status) => status["sessions"]
                .as_array()
                .map(|rows| {
                    rows.iter()
                        .filter_map(|s| s["session"].as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default(),
            Err(e) => {
                eprintln!("doctor: status: {e}");
                return 1;
            }
        }
    } else {
        args.sessions.clone()
    };

    let server_findings = run_server_rules_with(&health, args.slo_ms);
    let mut per_session: Vec<(String, Vec<Finding>)> = Vec::new();
    for sid in &sessions {
        match client.diagnose(sid) {
            Ok(diag) => per_session.push((sid.clone(), run_session_rules(&diag))),
            Err(e) => eprintln!("doctor: diagnose {sid}: {e}"),
        }
    }

    let mut fired: Vec<&'static str> = server_findings.iter().map(|f| f.rule).collect();
    for (_, fs) in &per_session {
        fired.extend(fs.iter().map(|f| f.rule));
    }

    if args.json {
        let mut m = Map::new();
        m.insert("server".into(), findings_json(&server_findings));
        let mut sess = Map::new();
        for (sid, fs) in &per_session {
            sess.insert(sid.clone(), findings_json(fs));
        }
        m.insert("sessions".into(), Value::Object(sess));
        println!(
            "{}",
            serde_json::to_string(&Value::Object(m))
                .unwrap_or_else(|e| format!("{{\"error\":\"render: {e}\"}}"))
        );
    } else {
        let total: usize =
            server_findings.len() + per_session.iter().map(|(_, f)| f.len()).sum::<usize>();
        println!(
            "doctor @ {} — {} session(s) examined, {} finding(s)",
            args.addr,
            per_session.len(),
            total
        );
        for f in &server_findings {
            println!("  [server] {:<8} {}: {}", f.severity.as_str(), f.rule, f.message);
        }
        for (sid, fs) in &per_session {
            for f in fs {
                println!("  [{sid}] {:<8} {}: {}", f.severity.as_str(), f.rule, f.message);
            }
        }
        if total == 0 {
            println!("  all clear");
        }
    }

    let mut code = 0;
    for want in &args.expect {
        if !fired.iter().any(|r| r == want) {
            eprintln!("doctor: expected rule {want:?} did not fire");
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// Builds a minimal diagnose payload from a summary object and an
    /// optional `diag.bo.observe` best-so-far series.
    fn diag_payload(summary: Value, bests: &[f64]) -> Value {
        let observes: Vec<Value> = bests
            .iter()
            .enumerate()
            .map(|(i, b)| {
                serde_json::json!({ "i": i as u64, "y": *b, "best": *b, "improvement": 0.0 })
            })
            .collect();
        serde_json::json!({
            "schema": "robotune.diagnose.v1",
            "summary": summary,
            "series": json!({ "diag.bo.observe": observes }),
        })
    }

    fn rules_fired(findings: &[Finding], rule: &str) -> Vec<Severity> {
        findings.iter().filter(|f| f.rule == rule).map(|f| f.severity).collect()
    }

    #[test]
    fn healthy_payload_yields_no_findings() {
        let diag = diag_payload(
            serde_json::json!({
                "gp_fits": 10u64, "gp_fallbacks": 0u64, "gp_max_cond": 1e4,
                "gp_min_lengthscale": 0.5,
            }),
            &[10.0, 9.0, 8.5, 8.0, 7.5, 7.0, 6.5, 6.0],
        );
        assert!(run_session_rules(&diag).is_empty());
    }

    #[test]
    fn flat_regret_fires_stalled_convergence_exactly_once() {
        let diag = diag_payload(
            serde_json::json!({ "gp_fits": 2u64, "gp_fallbacks": 0u64 }),
            &[10.0, 9.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0],
        );
        let findings = run_session_rules(&diag);
        assert_eq!(rules_fired(&findings, "stalled_convergence"), vec![Severity::Warning]);
        assert_eq!(findings.len(), 1, "no other rule should fire: {findings:?}");
    }

    #[test]
    fn exploding_condition_number_escalates_to_critical() {
        let warn = diag_payload(
            serde_json::json!({ "gp_fits": 2u64, "gp_fallbacks": 0u64, "gp_max_cond": 1e9 }),
            &[],
        );
        assert_eq!(
            rules_fired(&run_session_rules(&warn), "ill_conditioned_kernel"),
            vec![Severity::Warning]
        );
        let crit = diag_payload(
            serde_json::json!({ "gp_fits": 2u64, "gp_fallbacks": 0u64, "gp_max_cond": 1e13 }),
            &[],
        );
        let findings = run_session_rules(&crit);
        assert_eq!(rules_fired(&findings, "ill_conditioned_kernel"), vec![Severity::Critical]);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn all_fallback_fits_fire_fallback_storm_once() {
        let diag = diag_payload(
            serde_json::json!({ "gp_fits": 6u64, "gp_fallbacks": 6u64 }),
            &[],
        );
        let findings = run_session_rules(&diag);
        assert_eq!(rules_fired(&findings, "fallback_storm"), vec![Severity::Critical]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("(0 of them warm-started"), "{findings:?}");
        // The message counts the warm fits among the fallbacks.
        let fits = Value::Array(vec![
            json!({ "fallback": true, "warm": false }),
            json!({ "fallback": true, "warm": true }),
            json!({ "fallback": false, "warm": true }),
        ]);
        let warm = json!({
            "summary": diag["summary"].clone(),
            "series": json!({ "diag.gp.fit": fits }),
        });
        let findings = run_session_rules(&warm);
        assert!(findings[0].message.contains("(1 of them warm-started"), "{findings:?}");
        // Below the minimum sample size the rule stays quiet.
        let few = diag_payload(serde_json::json!({ "gp_fits": 2u64, "gp_fallbacks": 2u64 }), &[]);
        assert!(rules_fired(&run_session_rules(&few), "fallback_storm").is_empty());
    }

    #[test]
    fn lengthscale_collapse_fires_on_pinned_axis() {
        let diag = diag_payload(
            serde_json::json!({
                "gp_fits": 2u64, "gp_fallbacks": 0u64, "gp_min_lengthscale": 1e-4,
            }),
            &[],
        );
        assert_eq!(
            rules_fired(&run_session_rules(&diag), "lengthscale_collapse"),
            vec![Severity::Warning]
        );
    }

    #[test]
    fn lengthscale_collapse_fires_at_the_hyperfit_box_floor() {
        let fired = |ls: f64| {
            let diag = diag_payload(
                serde_json::json!({
                    "gp_fits": 2u64, "gp_fallbacks": 0u64, "gp_min_lengthscale": ls,
                }),
                &[],
            );
            rules_fired(&run_session_rules(&diag), "lengthscale_collapse")
        };
        assert_eq!(fired((-4.0f64).exp()), vec![Severity::Warning]);
        assert!(fired(0.5).is_empty());
    }

    #[test]
    fn server_rules_cover_wal_lag_and_slo_burn() {
        let healthy = serde_json::json!({
            "store": json!({ "degraded": false, "wal_lag": 0u64 }),
            "slo": json!({ "suggest": json!({ "count": 10u64, "p99_ms": 12.0 }) }),
        });
        assert!(run_server_rules(&healthy).is_empty());

        let lagging = serde_json::json!({
            "store": json!({ "degraded": false, "wal_lag": 1000u64 }),
            "slo": json!({ "suggest": json!({ "count": 0u64 }) }),
        });
        assert_eq!(rules_fired(&run_server_rules(&lagging), "wal_lag"), vec![Severity::Warning]);

        let degraded = serde_json::json!({
            "store": json!({ "degraded": true, "degraded_shards": 2u64, "wal_lag": 5u64 }),
            "slo": json!({ "suggest": json!({ "count": 0u64 }) }),
        });
        assert_eq!(rules_fired(&run_server_rules(&degraded), "wal_lag"), vec![Severity::Critical]);

        let slow = serde_json::json!({
            "store": json!({ "degraded": false, "wal_lag": 0u64 }),
            "slo": json!({ "suggest": json!({ "count": 10u64, "p99_ms": 5000.0 }) }),
        });
        assert_eq!(rules_fired(&run_server_rules(&slow), "slo_burn"), vec![Severity::Warning]);
    }

    #[test]
    fn slo_threshold_is_an_operator_knob() {
        let health = serde_json::json!({
            "store": json!({ "degraded": false, "wal_lag": 0u64 }),
            "slo": json!({ "suggest": json!({ "count": 10u64, "p99_ms": 12.0 }) }),
        });
        assert!(run_server_rules_with(&health, 100.0).is_empty(), "under a loose target");
        assert_eq!(
            rules_fired(&run_server_rules_with(&health, 1.0), "slo_burn"),
            vec![Severity::Warning],
            "a tightened target flips the same payload to burning"
        );
    }

    #[test]
    fn health_word_reflects_worst_severity() {
        assert_eq!(health_word(&[]), "ok");
        let warn = Finding {
            rule: "x",
            severity: Severity::Warning,
            message: String::new(),
        };
        let crit = Finding {
            rule: "y",
            severity: Severity::Critical,
            message: String::new(),
        };
        assert_eq!(health_word(std::slice::from_ref(&warn)), "warn");
        assert_eq!(health_word(&[warn, crit]), "CRIT");
    }
}
