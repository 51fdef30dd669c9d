//! Calibrated performance campaigns and the versioned `BENCH_*.json`
//! trajectory manifests — the repo's persistent perf record.
//!
//! `experiments bench` runs three campaign groups and writes one
//! manifest:
//!
//! - **GP micro-kernels** — `fit_gp`, `BoEngine::suggest`, and the
//!   256-query batched/pointwise posterior, the same shapes as the
//!   `gp_hotpath` Criterion harness but with warmup + fixed repetitions
//!   and robust statistics so the numbers are comparable across runs;
//! - **multi-fidelity sessions** — Hyperband+BO wall-clock plus the
//!   simulated `mf.cost_to_target_s` trajectory metric;
//! - **store contention** — concurrent writers against a single-stripe
//!   and the default sharded persistent store.
//!
//! Whole tuner sessions and served verbs are measured end to end by the
//! repository benchmark (`perfbench/`: `tune-paper`, `serve-bo`,
//! `serve-slow`), so no campaign group times them a second way.
//!
//! Every series is summarised by median / MAD / p95 after MAD-based
//! outlier rejection (`robotune_stats`), so one scheduler hiccup cannot
//! poison a trajectory point. The manifest records the commit hash and
//! machine info; `--check --baseline` compares two manifests with
//! noise-aware thresholds (relative tolerance plus a MAD allowance) and
//! exits non-zero on regression, which is how future PRs are judged
//! against the committed `BENCH_baseline.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::Rng;
use robotune_bo::{BoEngine, BoOptions};
use robotune_gp::{fit_gp, GpModel, HyperFitOptions, Matern52};
use robotune_service::{PersistentMemoStore, StoreOptions};
use robotune_sparksim::{Dataset, Workload};
use robotune_stats::{mad, median, percentile, reject_outliers, rng_from_seed};
use serde_json::{json, Value};

use crate::report::{fatal, markdown_table};
use crate::runner::{run_mf, MfKind};

/// Manifest discriminator (`"kind"` field).
pub const MANIFEST_KIND: &str = "robotune-bench-manifest";
/// Current manifest schema version.
pub const MANIFEST_SCHEMA_VERSION: i64 = 1;
/// MAD multiple beyond which a sample is rejected as an outlier.
const OUTLIER_K: f64 = 5.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, wall times).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Direction {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        }
    }

    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

/// Raw samples for one named metric, before summarisation.
#[derive(Debug, Clone)]
pub struct SeriesSamples {
    /// Metric name (e.g. `gp.fit_ms`).
    pub name: &'static str,
    /// Unit label (e.g. `ms`, `req/s`).
    pub unit: &'static str,
    /// Which way the metric improves.
    pub direction: Direction,
    /// The collected samples.
    pub samples: Vec<f64>,
}

/// Robust summary of one metric series as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Which way the metric improves.
    pub direction: Direction,
    /// Samples kept after outlier rejection.
    pub reps: u64,
    /// Samples rejected as outliers (or non-finite).
    pub rejected: u64,
    /// Median of the kept samples.
    pub median: f64,
    /// Median absolute deviation of the kept samples.
    pub mad: f64,
    /// 95th percentile of the kept samples.
    pub p95: f64,
    /// Minimum kept sample.
    pub min: f64,
    /// Maximum kept sample.
    pub max: f64,
}

/// Summarises raw samples into the manifest statistics: NaN/outlier
/// rejection at [`OUTLIER_K`] MADs, then median/MAD/p95/min/max.
pub fn summarize(s: &SeriesSamples) -> SeriesSummary {
    let kept = reject_outliers(&s.samples, OUTLIER_K);
    let rejected = (s.samples.len() - kept.len()) as u64;
    SeriesSummary {
        name: s.name.to_string(),
        unit: s.unit.to_string(),
        direction: s.direction,
        reps: kept.len() as u64,
        rejected,
        median: median(&kept),
        mad: mad(&kept),
        p95: percentile(&kept, 95.0),
        min: kept.iter().copied().fold(f64::INFINITY, f64::min),
        max: kept.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Host description recorded alongside every manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineInfo {
    /// Logical CPU count.
    pub cpus: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Build profile the campaign binary was compiled with.
    pub build: String,
}

impl MachineInfo {
    /// Detects the current host.
    pub fn detect() -> Self {
        MachineInfo {
            cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            build: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        }
    }
}

/// Renders one summarised series in the manifest's metric-series
/// shape. Shared by the manifest writer and every other machine-read
/// report that records metric series (e.g. `loadgen --json`'s
/// `openloop.json`), so downstream tooling parses one schema.
pub fn series_to_json(s: &SeriesSummary) -> Value {
    json!({
        "name": &s.name,
        "unit": &s.unit,
        "direction": s.direction.as_str(),
        "reps": s.reps,
        "rejected": s.rejected,
        "median": s.median,
        "mad": s.mad,
        "p95": s.p95,
        "min": s.min,
        "max": s.max,
    })
}

/// One versioned benchmark manifest: the unit of the perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (`BENCH_<campaign>.json`).
    pub campaign: String,
    /// Commit hash the campaign ran at (`"unknown"` outside a checkout).
    pub commit: String,
    /// Unix timestamp of the run, seconds.
    pub created_unix_s: u64,
    /// Host description.
    pub machine: MachineInfo,
    /// The metric series.
    pub series: Vec<SeriesSummary>,
}

impl Manifest {
    /// The manifest's conventional file name.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.campaign)
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&SeriesSummary> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the manifest as its JSON document.
    pub fn to_json(&self) -> Value {
        let series: Vec<Value> = self.series.iter().map(series_to_json).collect();
        json!({
            "kind": MANIFEST_KIND,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "campaign": &self.campaign,
            "commit": &self.commit,
            "created_unix_s": self.created_unix_s,
            "machine": json!({
                "cpus": self.machine.cpus,
                "os": &self.machine.os,
                "arch": &self.machine.arch,
                "build": &self.machine.build,
            }),
            "series": series,
        })
    }

    /// Parses and validates a manifest document.
    pub fn from_json(v: &Value) -> Result<Manifest, String> {
        validate_manifest(v)?;
        let machine = &v["machine"];
        let series = v["series"]
            .as_array()
            .ok_or("series must be an array")?
            .iter()
            .map(|s| {
                Ok(SeriesSummary {
                    name: s["name"].as_str().ok_or("series name")?.to_string(),
                    unit: s["unit"].as_str().ok_or("series unit")?.to_string(),
                    direction: Direction::parse(s["direction"].as_str().ok_or("direction")?)
                        .ok_or("direction")?,
                    reps: s["reps"].as_u64().ok_or("reps")?,
                    rejected: s["rejected"].as_u64().ok_or("rejected")?,
                    median: s["median"].as_f64().ok_or("median")?,
                    mad: s["mad"].as_f64().ok_or("mad")?,
                    p95: s["p95"].as_f64().ok_or("p95")?,
                    min: s["min"].as_f64().ok_or("min")?,
                    max: s["max"].as_f64().ok_or("max")?,
                })
            })
            .collect::<Result<Vec<_>, &str>>()
            .map_err(|field| format!("series field {field} missing or mistyped"))?;
        Ok(Manifest {
            campaign: v["campaign"].as_str().unwrap_or_default().to_string(),
            commit: v["commit"].as_str().unwrap_or_default().to_string(),
            created_unix_s: v["created_unix_s"].as_u64().unwrap_or(0),
            machine: MachineInfo {
                cpus: machine["cpus"].as_u64().unwrap_or(0),
                os: machine["os"].as_str().unwrap_or_default().to_string(),
                arch: machine["arch"].as_str().unwrap_or_default().to_string(),
                build: machine["build"].as_str().unwrap_or_default().to_string(),
            },
            series,
        })
    }

    /// Loads and validates a manifest file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Manifest, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let v = serde_json::from_str(&text)
            .map_err(|e| format!("parse {}: {e:?}", path.display()))?;
        Manifest::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the manifest JSON to `path`.
    pub fn write<P: AsRef<Path>>(&self, path: P) -> Result<(), String> {
        let path = path.as_ref();
        let text = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| format!("serialise manifest: {e:?}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Renders the summary table printed after a campaign.
    pub fn render(&self) -> String {
        let mut md = format!(
            "## Bench campaign `{}`\n\ncommit {} · {} cpus · {}/{} · build {}\n\n",
            self.campaign,
            &self.commit[..self.commit.len().min(12)],
            self.machine.cpus,
            self.machine.os,
            self.machine.arch,
            self.machine.build,
        );
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.unit.clone(),
                    format!("{}{}", s.reps, if s.rejected > 0 { "*" } else { "" }),
                    format!("{:.3}", s.median),
                    format!("{:.3}", s.mad),
                    format!("{:.3}", s.p95),
                ]
            })
            .collect();
        md.push_str(&markdown_table(
            &["series", "unit", "reps", "median", "MAD", "p95"],
            &rows,
        ));
        if self.series.iter().any(|s| s.rejected > 0) {
            md.push_str("\n\\* outlier repetitions rejected (beyond 5 MADs)\n");
        }
        md
    }
}

/// Structural validation of a manifest document (the schema the CI job
/// enforces on every emitted `BENCH_*.json`).
pub fn validate_manifest(v: &Value) -> Result<(), String> {
    if v["kind"].as_str() != Some(MANIFEST_KIND) {
        return Err(format!("kind must be {MANIFEST_KIND:?}"));
    }
    match v["schema_version"].as_i64() {
        Some(MANIFEST_SCHEMA_VERSION) => {}
        Some(other) => return Err(format!("unsupported schema_version {other}")),
        None => return Err("schema_version missing".into()),
    }
    if v["campaign"].as_str().is_none_or(str::is_empty) {
        return Err("campaign must be a non-empty string".into());
    }
    if v["commit"].as_str().is_none_or(str::is_empty) {
        return Err("commit must be a non-empty string".into());
    }
    if v["created_unix_s"].as_u64().is_none() {
        return Err("created_unix_s must be an unsigned integer".into());
    }
    let machine = &v["machine"];
    if machine["cpus"].as_u64().is_none_or(|c| c == 0) {
        return Err("machine.cpus must be a positive integer".into());
    }
    for key in ["os", "arch", "build"] {
        if machine[key].as_str().is_none_or(str::is_empty) {
            return Err(format!("machine.{key} must be a non-empty string"));
        }
    }
    let series = v["series"].as_array().ok_or("series must be an array")?;
    if series.is_empty() {
        return Err("series must not be empty".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for (i, s) in series.iter().enumerate() {
        let name = s["name"]
            .as_str()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| format!("series[{i}].name must be a non-empty string"))?;
        if !seen.insert(name.to_string()) {
            return Err(format!("duplicate series name {name:?}"));
        }
        if s["unit"].as_str().is_none_or(str::is_empty) {
            return Err(format!("series[{i}].unit must be a non-empty string"));
        }
        if s["direction"].as_str().and_then(Direction::parse).is_none() {
            return Err(format!("series[{i}].direction must be \"lower\" or \"higher\""));
        }
        if s["reps"].as_u64().is_none_or(|r| r == 0) {
            return Err(format!("series[{i}].reps must be a positive integer"));
        }
        if s["rejected"].as_u64().is_none() {
            return Err(format!("series[{i}].rejected must be an unsigned integer"));
        }
        for key in ["median", "mad", "p95", "min", "max"] {
            if s[key].as_f64().is_none_or(|x| !x.is_finite()) {
                return Err(format!("series[{i}].{key} must be a finite number"));
            }
        }
        let (lo, med, hi) = (
            s["min"].as_f64().unwrap_or(f64::NAN),
            s["median"].as_f64().unwrap_or(f64::NAN),
            s["max"].as_f64().unwrap_or(f64::NAN),
        );
        if !(lo <= med && med <= hi) {
            return Err(format!("series[{i}]: min ≤ median ≤ max violated"));
        }
    }
    Ok(())
}

/// Best-effort commit-hash detection without shelling out: walk up from
/// the working directory to the nearest `.git`, then resolve `HEAD`
/// through loose and packed refs. Returns `"unknown"` outside a
/// repository.
pub fn detect_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_git_head(&git).unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn resolve_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_string());
    };
    if let Ok(h) = std::fs::read_to_string(git.join(refname)) {
        let h = h.trim();
        if !h.is_empty() {
            return Some(h.to_string());
        }
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
        .find_map(|l| l.split_once(' ').filter(|(_, n)| *n == refname).map(|(h, _)| h.to_string()))
}

/// Knobs for one campaign run: repetition counts and workload sizes.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign (and manifest) name.
    pub name: String,
    /// Untimed warmup repetitions before each micro-kernel series.
    pub warmup: usize,
    /// Timed repetitions per micro-kernel series.
    pub reps: usize,
    /// GP training-set size.
    pub gp_obs: usize,
    /// Posterior query batch size.
    pub gp_queries: usize,
    /// Timed repetitions per multi-fidelity session series.
    pub tuner_reps: usize,
    /// Evaluation budget per multi-fidelity session.
    pub tuner_budget: usize,
    /// Writer threads hammering the persistent store concurrently.
    pub store_threads: usize,
    /// Store operations per writer thread.
    pub store_ops: usize,
    /// Store-contention rounds (one throughput sample each).
    pub store_rounds: usize,
}

impl CampaignConfig {
    /// The calibrated default campaign.
    pub fn full() -> Self {
        CampaignConfig {
            name: "full".into(),
            warmup: 3,
            reps: 15,
            gp_obs: 100,
            gp_queries: 256,
            tuner_reps: 5,
            tuner_budget: 20,
            store_threads: 8,
            store_ops: 2000,
            store_rounds: 3,
        }
    }

    /// CI-sized campaign: same series, fewer repetitions.
    pub fn quick() -> Self {
        CampaignConfig {
            name: "quick".into(),
            warmup: 1,
            reps: 5,
            tuner_reps: 2,
            tuner_budget: 10,
            store_threads: 4,
            store_ops: 500,
            store_rounds: 2,
            ..CampaignConfig::full()
        }
    }

    /// Minimal config for unit tests (seconds, not minutes).
    pub fn tiny() -> Self {
        CampaignConfig {
            name: "tiny".into(),
            warmup: 0,
            reps: 2,
            gp_obs: 20,
            gp_queries: 16,
            tuner_reps: 1,
            tuner_budget: 4,
            store_threads: 2,
            store_ops: 50,
            store_rounds: 1,
        }
    }
}

/// Times `f` (milliseconds per call) for `warmup + reps` calls,
/// discarding the warmup.
fn time_ms<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

const GP_DIM: usize = 5;

/// Engine pre-loaded with `n_obs` observations of a smooth objective
/// (the `gp_hotpath` harness shape), primed so the next `suggest` runs
/// the full hyperfit + nomination.
fn seeded_engine(n_obs: usize, seed: u64) -> Result<(BoEngine, rand::rngs::StdRng), String> {
    let mut engine = BoEngine::new(GP_DIM, BoOptions::default());
    let mut rng = rng_from_seed(seed);
    for _ in 0..n_obs {
        let x: Vec<f64> = (0..GP_DIM).map(|_| rng.gen::<f64>()).collect();
        let y = x.iter().map(|v| (v - 0.4).powi(2)).sum::<f64>();
        engine.observe(x, y).map_err(|e| format!("campaign: observe: {e}"))?;
    }
    Ok((engine, rng))
}

/// GP micro-kernel campaign: `fit_gp`, `suggest`, and the batched vs
/// pointwise posterior at `gp_queries` queries.
pub fn run_gp_campaign(cfg: &CampaignConfig) -> Result<Vec<SeriesSamples>, String> {
    let (engine, mut rng) = seeded_engine(cfg.gp_obs, 42)?;
    let (xs, ys) = engine.observations();
    let xs: Vec<Vec<f64>> = xs.to_vec();
    let ys: Vec<f64> = ys.to_vec();

    let fit = time_ms(cfg.warmup, cfg.reps, || {
        let mut r = rng_from_seed(7);
        if fit_gp(&xs, &ys, &HyperFitOptions::default(), None, &mut r).is_err() {
            // A failed fit would make the timing meaningless; surface it
            // through the sample instead of panicking mid-campaign.
        }
    });

    let mut suggest = Vec::with_capacity(cfg.reps);
    for rep in 0..cfg.warmup + cfg.reps {
        // `suggest` consumes engine state (the fit caches), so each
        // repetition gets a freshly seeded engine; construction is
        // untimed, exactly like the Criterion `iter_batched` setup.
        let (mut engine, mut erng) = seeded_engine(cfg.gp_obs, 42)?;
        let t = Instant::now();
        let _ = engine.suggest(&mut erng);
        if rep >= cfg.warmup {
            suggest.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    let model = GpModel::fit(xs.clone(), &ys, Matern52::new(0.5, 1.0), 1e-4)
        .map_err(|e| format!("campaign: model fit: {e}"))?;
    let queries: Vec<Vec<f64>> = (0..cfg.gp_queries)
        .map(|_| (0..GP_DIM).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let batched = time_ms(cfg.warmup, cfg.reps, || {
        let _ = model.predict_batch(&queries);
    });
    let pointwise = time_ms(cfg.warmup, cfg.reps, || {
        for q in &queries {
            let _ = model.predict(q);
        }
    });

    Ok(vec![
        SeriesSamples { name: "gp.fit_ms", unit: "ms", direction: Direction::Lower, samples: fit },
        SeriesSamples {
            name: "gp.suggest_ms",
            unit: "ms",
            direction: Direction::Lower,
            samples: suggest,
        },
        SeriesSamples {
            name: "gp.predict_batch_ms",
            unit: "ms",
            direction: Direction::Lower,
            samples: batched,
        },
        SeriesSamples {
            name: "gp.predict_pointwise_ms",
            unit: "ms",
            direction: Direction::Lower,
            samples: pointwise,
        },
    ])
}

/// Multi-fidelity tuner campaign: one warm-started Hyperband+BO session
/// per rep on TeraSort/D1. Two series: session wall-clock, and the
/// *simulated* evaluation cost charged until the session first lands
/// within 5% of its own final best (`mf.cost_to_target_s` — the
/// headline metric of `experiments mf`, here on a fixed cell so the
/// trajectory is comparable across commits). A session that never
/// completes a full-fidelity run inside the campaign's small budget is
/// charged its entire search cost.
pub fn run_mf_campaign(cfg: &CampaignConfig) -> Result<Vec<SeriesSamples>, String> {
    let mut wall = Vec::with_capacity(cfg.tuner_reps);
    let mut cost = Vec::with_capacity(cfg.tuner_reps);
    for rep in 0..cfg.tuner_reps {
        let t = Instant::now();
        let (r, accounting) =
            run_mf(MfKind::HyperbandBo, Workload::TeraSort, Dataset::D1, cfg.tuner_budget, rep);
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        if r.session.len() != cfg.tuner_budget {
            return Err("campaign: short Hyperband+BO session".into());
        }
        if accounting.total_evals() == 0 {
            return Err("campaign: Hyperband phase ran no rung evaluations".into());
        }
        let to_target = r
            .best_time
            .and_then(|best| r.session.cost_to_within_of(best, 0.05))
            .unwrap_or(r.search_cost);
        cost.push(to_target);
    }
    Ok(vec![
        SeriesSamples {
            name: "mf.hyperband_bo_session_ms",
            unit: "ms",
            direction: Direction::Lower,
            samples: wall,
        },
        SeriesSamples {
            name: "mf.cost_to_target_s",
            unit: "s",
            direction: Direction::Lower,
            samples: cost,
        },
    ])
}

/// One store-contention round: `threads` writers hammer a fresh
/// persistent store with distinct workloads; returns aggregate
/// durable ops/s.
fn store_round(cfg: &CampaignConfig, shards: usize, round: usize) -> Result<f64, String> {
    let dir = std::env::temp_dir().join(format!(
        "robotune-bench-store-{}-{shards}-{round}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PersistentMemoStore::open_with(
        &dir,
        StoreOptions { shards, ..StoreOptions::default() },
    )
    .map_err(|e| format!("campaign: store open: {e}"))?
    .into_shared();
    let threads = cfg.store_threads.max(1);
    let config = robotune_space::spark::spark_space().default_configuration();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..threads {
            let store = store.clone();
            let config = config.clone();
            scope.spawn(move || {
                // Each tenant cycles through 16 private workloads, so
                // fingerprint routing spreads the fleet across shards
                // and a global lock is the only cross-tenant coupling.
                for k in 0..cfg.store_ops {
                    let wl = format!("tenant{tenant}-wl{:02}", k % 16);
                    if k % 2 == 0 {
                        store.put_selection(&wl, vec!["spark.executor.cores".into()]);
                    } else {
                        store.record_config(&wl, config.clone(), 100.0 + k as f64);
                    }
                }
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let degraded = store.status().degraded();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if degraded {
        return Err("campaign: store went degraded under load".into());
    }
    Ok((threads * cfg.store_ops) as f64 / wall.max(1e-9))
}

/// Store-contention campaign: the same concurrent write load against a
/// single-stripe store (one big lock, one WAL) and the default sharded
/// layout. The pair quantifies what fingerprint-striped locks/WALs buy.
pub fn run_store_campaign(cfg: &CampaignConfig) -> Result<Vec<SeriesSamples>, String> {
    let mut global = Vec::with_capacity(cfg.store_rounds);
    let mut sharded = Vec::with_capacity(cfg.store_rounds);
    for round in 0..cfg.store_rounds {
        global.push(store_round(cfg, 1, round)?);
        sharded.push(store_round(cfg, 16, round)?);
    }
    Ok(vec![
        SeriesSamples {
            name: "store.global_ops_per_s",
            unit: "ops/s",
            direction: Direction::Higher,
            samples: global,
        },
        SeriesSamples {
            name: "store.sharded_ops_per_s",
            unit: "ops/s",
            direction: Direction::Higher,
            samples: sharded,
        },
    ])
}

/// Runs the three campaign groups and assembles the manifest.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<Manifest, String> {
    eprintln!(
        "bench campaign `{}`: gp micro-kernels (n={}, {} reps)...",
        cfg.name, cfg.gp_obs, cfg.reps
    );
    let mut all = run_gp_campaign(cfg)?;
    eprintln!(
        "bench campaign `{}`: multi-fidelity sessions (budget {}, {} reps)...",
        cfg.name, cfg.tuner_budget, cfg.tuner_reps
    );
    all.extend(run_mf_campaign(cfg)?);
    eprintln!(
        "bench campaign `{}`: store contention ({} threads x {} ops, {} rounds)...",
        cfg.name, cfg.store_threads, cfg.store_ops, cfg.store_rounds
    );
    all.extend(run_store_campaign(cfg)?);
    let created_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Ok(Manifest {
        campaign: cfg.name.clone(),
        commit: detect_commit(),
        created_unix_s,
        machine: MachineInfo::detect(),
        series: all.iter().map(summarize).collect(),
    })
}

/// Noise thresholds for a manifest comparison.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Relative tolerance on the median (0.30 = 30%).
    pub rel_tolerance: f64,
    /// Additional allowance in MAD multiples (uses the larger of the two
    /// manifests' MADs).
    pub mad_mult: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        // Shared runners are noisy: a regression must clear 30% plus
        // four robust standard-deviations-worth of spread to fail the
        // gate.
        CheckOptions { rel_tolerance: 0.30, mad_mult: 4.0 }
    }
}

/// Verdict for one compared series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// Within the noise envelope.
    Ok,
    /// Better than baseline beyond the noise envelope.
    Improved,
    /// Worse than baseline beyond the noise envelope.
    Regressed,
    /// Present in the baseline, absent from the new manifest.
    Missing,
}

impl CheckStatus {
    /// Display label.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckStatus::Ok => "ok",
            CheckStatus::Improved => "improved",
            CheckStatus::Regressed => "REGRESSED",
            CheckStatus::Missing => "MISSING",
        }
    }
}

/// One row of a manifest comparison.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Series name.
    pub name: String,
    /// Baseline median.
    pub base: f64,
    /// New median (`NaN` when missing).
    pub new: f64,
    /// Allowed absolute drift for this series.
    pub allowed: f64,
    /// The verdict.
    pub status: CheckStatus,
}

/// Compares `new` against `base` series-by-series with noise-aware
/// thresholds. Series only present in `new` are ignored (new metrics
/// join the trajectory without failing old baselines); series missing
/// from `new` are flagged.
pub fn check_manifests(new: &Manifest, base: &Manifest, opts: &CheckOptions) -> Vec<CheckOutcome> {
    base.series
        .iter()
        .map(|b| {
            let Some(n) = new.series(&b.name) else {
                return CheckOutcome {
                    name: b.name.clone(),
                    base: b.median,
                    new: f64::NAN,
                    allowed: 0.0,
                    status: CheckStatus::Missing,
                };
            };
            let spread = b.mad.max(n.mad);
            let allowed = b.median.abs() * opts.rel_tolerance + opts.mad_mult * spread;
            let delta = match b.direction {
                // Positive delta = worse, for either direction.
                Direction::Lower => n.median - b.median,
                Direction::Higher => b.median - n.median,
            };
            let status = if delta > allowed {
                CheckStatus::Regressed
            } else if delta < -allowed {
                CheckStatus::Improved
            } else {
                CheckStatus::Ok
            };
            CheckOutcome { name: b.name.clone(), base: b.median, new: n.median, allowed, status }
        })
        .collect()
}

/// Renders a comparison as an aligned text table.
pub fn render_check(outcomes: &[CheckOutcome]) -> String {
    let mut out = String::from("## Bench trajectory check\n\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let delta_pct = if o.base.abs() > 0.0 && o.new.is_finite() {
                format!("{:+.1}%", 100.0 * (o.new - o.base) / o.base)
            } else {
                "—".into()
            };
            vec![
                o.name.clone(),
                format!("{:.3}", o.base),
                if o.new.is_finite() { format!("{:.3}", o.new) } else { "—".into() },
                delta_pct,
                format!("{:.3}", o.allowed),
                o.status.as_str().into(),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &["series", "baseline median", "new median", "Δ", "allowed drift", "status"],
        &rows,
    ));
    let failed = outcomes
        .iter()
        .filter(|o| matches!(o.status, CheckStatus::Regressed | CheckStatus::Missing))
        .count();
    if failed > 0 {
        out.push_str(&format!("\n{failed} series regressed or went missing.\n"));
    } else {
        out.push_str("\nno regressions beyond the noise envelope.\n");
    }
    out
}

/// Whether a comparison result should fail the process.
pub fn check_failed(outcomes: &[CheckOutcome]) -> bool {
    outcomes
        .iter()
        .any(|o| matches!(o.status, CheckStatus::Regressed | CheckStatus::Missing))
}

/// Flags for `experiments bench`.
struct BenchArgs {
    quick: bool,
    reps: Option<usize>,
    out: PathBuf,
    campaign: Option<String>,
    check: bool,
    baseline: Option<PathBuf>,
    manifest: Option<PathBuf>,
    validate: Option<PathBuf>,
    tolerance_pct: Option<f64>,
}

fn parse_bench_args(rest: &[String]) -> BenchArgs {
    let mut args = BenchArgs {
        quick: false,
        reps: None,
        out: PathBuf::from("."),
        campaign: None,
        check: false,
        baseline: None,
        manifest: None,
        validate: None,
        tolerance_pct: None,
    };
    let mut it = rest.iter();
    let value = |flag: &str, v: Option<&String>| -> String {
        v.cloned().unwrap_or_else(|| fatal(format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--reps" => {
                args.reps = Some(
                    value("--reps N", it.next())
                        .parse()
                        .unwrap_or_else(|e| fatal(format!("--reps: {e}"))),
                );
            }
            "--out" => args.out = PathBuf::from(value("--out DIR", it.next())),
            "--campaign" => args.campaign = Some(value("--campaign NAME", it.next())),
            "--check" => args.check = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(value("--baseline FILE", it.next())));
            }
            "--manifest" => {
                args.manifest = Some(PathBuf::from(value("--manifest FILE", it.next())));
            }
            "--validate" => {
                args.validate = Some(PathBuf::from(value("--validate FILE", it.next())));
            }
            "--tolerance" => {
                args.tolerance_pct = Some(
                    value("--tolerance PCT", it.next())
                        .parse()
                        .unwrap_or_else(|e| fatal(format!("--tolerance: {e}"))),
                );
            }
            other => fatal(format!("bench: unknown flag {other}")),
        }
    }
    args
}

/// Entry point for `experiments bench`. Returns the exit code.
pub fn bench_main(rest: &[String]) -> i32 {
    let args = parse_bench_args(rest);
    let mut check_opts = CheckOptions::default();
    if let Some(pct) = args.tolerance_pct {
        check_opts.rel_tolerance = pct / 100.0;
    }

    // Pure validation: no campaign run.
    if let Some(path) = &args.validate {
        return match Manifest::load(path) {
            Ok(m) => {
                println!(
                    "{}: valid manifest — campaign {}, {} series, commit {}",
                    path.display(),
                    m.campaign,
                    m.series.len(),
                    &m.commit[..m.commit.len().min(12)],
                );
                0
            }
            Err(e) => {
                eprintln!("bench: {e}");
                1
            }
        };
    }

    // Pure comparison: --check with an existing manifest file.
    if args.check && args.manifest.is_some() {
        let baseline = args
            .baseline
            .as_ref()
            .unwrap_or_else(|| fatal("--check requires --baseline FILE"));
        let new = match Manifest::load(args.manifest.as_ref().unwrap_or_else(|| fatal("unreachable"))) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench: {e}");
                return 1;
            }
        };
        let base = match Manifest::load(baseline) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench: {e}");
                return 1;
            }
        };
        let outcomes = check_manifests(&new, &base, &check_opts);
        print!("{}", render_check(&outcomes));
        return i32::from(check_failed(&outcomes));
    }

    // Run a campaign, write the manifest, optionally check it.
    let mut cfg = if args.quick { CampaignConfig::quick() } else { CampaignConfig::full() };
    if let Some(reps) = args.reps {
        cfg.reps = reps;
    }
    if let Some(name) = &args.campaign {
        cfg.name = name.clone();
    }
    let manifest = match run_campaign(&cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench: {e}");
            return 1;
        }
    };
    print!("{}", manifest.render());
    let path = args.out.join(manifest.file_name());
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        fatal(format!("create {}: {e}", args.out.display()));
    }
    if let Err(e) = manifest.write(&path) {
        fatal(e);
    }
    eprintln!("manifest written to {}", path.display());

    if args.check {
        let baseline = args
            .baseline
            .as_ref()
            .unwrap_or_else(|| fatal("--check requires --baseline FILE"));
        let base = match Manifest::load(baseline) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench: {e}");
                return 1;
            }
        };
        let outcomes = check_manifests(&manifest, &base, &check_opts);
        print!("{}", render_check(&outcomes));
        return i32::from(check_failed(&outcomes));
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        let series = [
            SeriesSamples {
                name: "gp.fit_ms",
                unit: "ms",
                direction: Direction::Lower,
                samples: vec![70.0, 72.0, 71.0, 73.0, 500.0],
            },
            SeriesSamples {
                name: "service.throughput_rps",
                unit: "req/s",
                direction: Direction::Higher,
                samples: vec![4000.0, 4100.0, 3900.0],
            },
        ];
        Manifest {
            campaign: "test".into(),
            commit: "0123456789abcdef".into(),
            created_unix_s: 1_700_000_000,
            machine: MachineInfo {
                cpus: 8,
                os: "linux".into(),
                arch: "x86_64".into(),
                build: "release".into(),
            },
            series: series.iter().map(summarize).collect(),
        }
    }

    #[test]
    fn summarize_rejects_outliers_robustly() {
        let s = summarize(&SeriesSamples {
            name: "x_ms",
            unit: "ms",
            direction: Direction::Lower,
            samples: vec![70.0, 72.0, 71.0, 73.0, 500.0],
        });
        assert_eq!(s.reps, 4);
        assert_eq!(s.rejected, 1);
        assert!((s.median - 71.5).abs() < 1e-9);
        assert!(s.max <= 73.0, "the 500ms hiccup must not poison the summary");
    }

    #[test]
    fn manifest_round_trips_through_json_text() {
        let m = sample_manifest();
        let text = serde_json::to_string_pretty(&m.to_json()).expect("serialise");
        let v = serde_json::from_str(&text).expect("parse");
        let back = Manifest::from_json(&v).expect("validate");
        assert_eq!(back, m);
    }

    #[test]
    fn validate_rejects_malformed_manifests() {
        let good = sample_manifest().to_json();
        assert!(validate_manifest(&good).is_ok());

        let mut wrong_kind = good.clone();
        if let Value::Object(m) = &mut wrong_kind {
            m.insert("kind".into(), Value::from("something-else"));
        }
        assert!(validate_manifest(&wrong_kind).is_err());

        let mut wrong_version = good.clone();
        if let Value::Object(m) = &mut wrong_version {
            m.insert("schema_version".into(), Value::from(99));
        }
        assert!(validate_manifest(&wrong_version).is_err());

        let mut empty_series = good.clone();
        if let Value::Object(m) = &mut empty_series {
            m.insert("series".into(), Value::Array(Vec::new()));
        }
        assert!(validate_manifest(&empty_series).is_err());

        // A non-finite statistic must not validate.
        let mut bad_median = sample_manifest();
        bad_median.series[0].median = f64::NAN;
        assert!(validate_manifest(&bad_median.to_json()).is_err());

        // min > median must not validate either.
        let mut inverted = sample_manifest();
        inverted.series[0].min = inverted.series[0].max + 1.0;
        assert!(validate_manifest(&inverted.to_json()).is_err());
    }

    #[test]
    fn check_passes_on_identical_and_fails_on_perturbed() {
        let m = sample_manifest();
        let outcomes = check_manifests(&m, &m, &CheckOptions::default());
        assert!(outcomes.iter().all(|o| o.status == CheckStatus::Ok));
        assert!(!check_failed(&outcomes));

        // Perturb one latency series upward by 10x: must regress.
        let mut worse = m.clone();
        worse.series[0].median *= 10.0;
        let outcomes = check_manifests(&worse, &m, &CheckOptions::default());
        assert_eq!(outcomes[0].status, CheckStatus::Regressed);
        assert!(check_failed(&outcomes));

        // Throughput (higher-is-better) collapsing must also regress.
        let mut slow = m.clone();
        slow.series[1].median /= 10.0;
        let outcomes = check_manifests(&slow, &m, &CheckOptions::default());
        assert_eq!(outcomes[1].status, CheckStatus::Regressed);

        // A massive improvement is reported but does not fail the gate.
        let mut faster = m.clone();
        faster.series[0].median /= 10.0;
        let outcomes = check_manifests(&faster, &m, &CheckOptions::default());
        assert_eq!(outcomes[0].status, CheckStatus::Improved);
        assert!(!check_failed(&outcomes));

        // A dropped series is flagged.
        let mut missing = m.clone();
        missing.series.remove(0);
        let outcomes = check_manifests(&missing, &m, &CheckOptions::default());
        assert_eq!(outcomes[0].status, CheckStatus::Missing);
        assert!(check_failed(&outcomes));
    }

    #[test]
    fn tiny_campaign_emits_a_valid_manifest_with_all_groups() {
        let cfg = CampaignConfig::tiny();
        let m = run_campaign(&cfg).expect("tiny campaign");
        assert!(m.series.len() >= 8, "expected >= 8 series, got {}", m.series.len());
        for prefix in ["gp.", "mf.", "store."] {
            assert!(
                m.series.iter().any(|s| s.name.starts_with(prefix)),
                "missing {prefix} series"
            );
        }
        validate_manifest(&m.to_json()).expect("tiny manifest validates");
        // Round-trip through disk, then self-check: a manifest must
        // always pass a --check against itself.
        let dir = std::env::temp_dir().join("robotune-bench-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(m.file_name());
        m.write(&path).expect("write manifest");
        let loaded = Manifest::load(&path).expect("load manifest");
        assert_eq!(loaded, m);
        assert!(!check_failed(&check_manifests(&loaded, &m, &CheckOptions::default())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_detection_finds_this_repository() {
        // The test runs inside the repo checkout, so a 40-hex commit (or
        // at minimum a non-empty id) must be found.
        let c = detect_commit();
        assert!(!c.is_empty());
        if c != "unknown" {
            assert!(c.len() >= 7, "suspicious commit id {c:?}");
        }
    }
}
