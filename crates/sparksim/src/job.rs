//! [`SparkJob`]: the objective function tuners evaluate.

use rand::rngs::StdRng;
use robotune_faults::{EvalFaults, FaultPlan};
use robotune_space::{ConfigSpace, Configuration};
use robotune_stats::{lognormal, rng_from_seed};
use robotune_tuners::{Evaluation, Fidelity, Objective};

use crate::cluster::Cluster;
use crate::event::simulate_event;
use crate::params::SparkParams;
use crate::sim::{simulate_plan, Outcome, RunReport};
use crate::workload::{Dataset, Workload};

/// Which simulation engine evaluates configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEngine {
    /// The analytic wave model (default; what the paper-shape experiments
    /// run on).
    Analytic,
    /// The discrete-event scheduler with per-task duration noise — see
    /// [`crate::event`].
    Event {
        /// Per-task lognormal duration σ.
        task_sigma: f64,
    },
}

/// A (workload, dataset) pair on a cluster, evaluable as an
/// [`Objective`]. Adds multiplicative lognormal noise over the
/// deterministic simulator — the shared-cluster interference the paper
/// motivates BO's noise model with — and enforces the per-run cap.
#[derive(Debug, Clone)]
pub struct SparkJob {
    cluster: Cluster,
    space: ConfigSpace,
    workload: Workload,
    dataset: Dataset,
    engine: SimEngine,
    noise_sigma: f64,
    rng: StdRng,
    evaluations: usize,
    /// The fraction of `dataset` each evaluation processes. FULL unless a
    /// multi-fidelity tuner switches it (see [`Objective::set_fidelity`]);
    /// switching never touches the noise or fault streams, so the same
    /// seed replays the same schedule whatever fidelities were requested.
    fidelity: Fidelity,
    /// When set, each evaluation is perturbed by the plan's schedule for
    /// its (global) evaluation index. Independent of the noise stream, so
    /// every tuner sharing a plan seed sees the same fault at the same
    /// evaluation index.
    faults: Option<FaultPlan>,
}

impl SparkJob {
    /// Default run-to-run noise (σ of the underlying normal).
    pub const DEFAULT_NOISE_SIGMA: f64 = 0.05;

    /// Creates a job on the NoleLand-like cluster with default noise.
    pub fn new(space: ConfigSpace, workload: Workload, dataset: Dataset, seed: u64) -> Self {
        SparkJob {
            cluster: Cluster::noleland(),
            space,
            workload,
            dataset,
            engine: SimEngine::Analytic,
            noise_sigma: Self::DEFAULT_NOISE_SIGMA,
            rng: rng_from_seed(seed),
            evaluations: 0,
            fidelity: Fidelity::FULL,
            faults: None,
        }
    }

    /// Starts the job at `fidelity` (see [`Objective::set_fidelity`] for
    /// switching mid-stream).
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Seconds burned by a cluster-side submit rejection: the gateway
    /// bounces the application before any executor starts.
    pub const SUBMIT_FAILURE_S: f64 = 6.0;

    /// Injects a deterministic fault schedule into every subsequent
    /// [`Objective::evaluate`] call (see [`robotune_faults::FaultPlan`]).
    /// The schedule is keyed by the job's running evaluation counter, so a
    /// retried evaluation advances to the next scheduled fault rather than
    /// replaying the same one forever.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Switches the evaluation engine (see [`SimEngine`]). Event mode
    /// derives a fresh scheduler seed per evaluation from the job's RNG,
    /// so the whole evaluation stream stays reproducible.
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the noise level (0 disables noise).
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        self.noise_sigma = sigma;
        self
    }

    /// Overrides the cluster.
    pub fn with_cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = cluster;
        self
    }

    /// The workload under tuning.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The dataset under tuning.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The configuration space this job expects.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// How many evaluations this job has served.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Runs the deterministic simulator without noise or cap — useful for
    /// inspecting the model itself. Honours the current fidelity.
    pub fn dry_run(&self, config: &Configuration) -> RunReport {
        let p = SparkParams::extract(&self.space, config);
        simulate_plan(&self.cluster, &p, &self.workload.plan_at(self.dataset, self.fidelity))
    }

    /// Runs with noise but no cap; returns the "true" noisy runtime (or
    /// time-to-failure). Used for the §5.2 default-configuration
    /// comparison, which measured uncapped runs.
    pub fn run_uncapped(&mut self, config: &Configuration) -> (f64, Outcome) {
        use rand::Rng;
        self.evaluations += 1;
        let report = match self.engine {
            SimEngine::Analytic => self.dry_run(config),
            SimEngine::Event { task_sigma } => {
                let seed = self.rng.gen::<u64>();
                let p = SparkParams::extract(&self.space, config);
                let plan = self.workload.plan_at(self.dataset, self.fidelity);
                simulate_event(&self.cluster, &p, &plan, seed, task_sigma)
            }
        };
        let noise = if self.noise_sigma > 0.0 {
            lognormal(&mut self.rng, 0.0, self.noise_sigma)
        } else {
            1.0
        };
        (report.elapsed_s() * noise, report.outcome)
    }
}

impl Objective for SparkJob {
    fn set_fidelity(&mut self, fidelity: Fidelity) -> bool {
        self.fidelity = fidelity;
        true
    }

    fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    fn evaluate(&mut self, config: &Configuration, cap_s: f64) -> Evaluation {
        let fault = match &self.faults {
            Some(plan) => plan.for_eval(self.evaluations as u64),
            None => EvalFaults::CLEAN,
        };

        // A submit rejection bounces the application before any executor
        // starts: the run never happens, only the gateway round trip is
        // burned. The evaluation counter still advances so a retry draws
        // the *next* scheduled fault, not the same rejection forever.
        if fault.submit_failure {
            self.evaluations += 1;
            robotune_obs::incr("fault.submit_failure", 1);
            return Evaluation::transient_failure(Self::SUBMIT_FAILURE_S.min(cap_s));
        }

        let (t, outcome) = self.run_uncapped(config);
        // Executor losses (recompute), straggler storms and disk-pressure
        // spill amplification stretch the wall clock of runs that did
        // execute; crashes (OOM, launch failure) already burned their time.
        let slowdown = fault.slowdown();
        let t = t * slowdown;
        if slowdown > 1.0 {
            robotune_obs::record("fault.slowdown", slowdown);
            if fault.executor_losses > 0 {
                robotune_obs::incr("fault.executor_loss", fault.executor_losses as u64);
            }
            if fault.straggler_factor > 1.0 {
                robotune_obs::incr("fault.straggler", 1);
            }
            if fault.disk_amplification > 1.0 {
                robotune_obs::incr("fault.disk_pressure", 1);
            }
        }

        match outcome {
            Outcome::Completed(_) => {
                if fault.measurement_timeout {
                    // The run finished but the harness lost the timing —
                    // the burned wall clock is charged, the measurement is
                    // not trusted, and a retry may succeed.
                    robotune_obs::incr("fault.measurement_timeout", 1);
                    Evaluation::transient_failure(t.min(cap_s))
                } else if t <= cap_s {
                    Evaluation::completed(t)
                } else {
                    Evaluation::capped(cap_s)
                }
            }
            Outcome::Oom { .. } | Outcome::LaunchFailure => Evaluation::failed(t.min(cap_s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::{names, spark_space};
    use robotune_space::{ParamValue, SearchSpace};

    fn tuned_config(space: &ConfigSpace) -> Configuration {
        let mut cfg = space.default_configuration();
        cfg.set(space.index_of(names::EXECUTOR_CORES).unwrap(), ParamValue::Int(8));
        cfg.set(space.index_of(names::EXECUTOR_MEMORY).unwrap(), ParamValue::Int(24 * 1024));
        cfg.set(space.index_of(names::EXECUTOR_INSTANCES).unwrap(), ParamValue::Int(20));
        cfg.set(space.index_of(names::DEFAULT_PARALLELISM).unwrap(), ParamValue::Int(400));
        cfg.set(space.index_of(names::SERIALIZER).unwrap(), ParamValue::Cat(1));
        cfg
    }

    #[test]
    fn noise_perturbs_but_does_not_bias() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let mut job = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, 7);
        let truth = job.dry_run(&cfg).elapsed_s();
        let times: Vec<f64> = (0..200).map(|_| job.run_uncapped(&cfg).0).collect();
        let mean = robotune_stats::mean(&times);
        assert!((mean / truth - 1.0).abs() < 0.03, "mean {mean} vs truth {truth}");
        // And noise actually varies.
        assert!(robotune_stats::std_dev(&times) > 0.0);
        assert_eq!(job.evaluations(), 200);
    }

    #[test]
    fn zero_noise_is_exactly_deterministic() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let mut job =
            SparkJob::new(space, Workload::PageRank, Dataset::D2, 1).with_noise(0.0);
        let a = job.run_uncapped(&cfg).0;
        let b = job.run_uncapped(&cfg).0;
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_caps_and_flags_failures() {
        let space = spark_space();
        // A config that cannot launch (task.cpus > cores) → failed fast.
        let mut bad = space.default_configuration();
        bad.set(space.index_of("spark.task.cpus").unwrap(), ParamValue::Int(2));
        let mut job = SparkJob::new(space.clone(), Workload::PageRank, Dataset::D1, 2);
        let e = job.evaluate(&bad, 480.0);
        assert!(e.failed);
        assert!(e.time_s <= 480.0);

        // KM on the (slow) in-range default: capped at whatever cap we pass.
        let default = space.default_configuration();
        let mut job = SparkJob::new(space, Workload::KMeans, Dataset::D1, 3);
        let e = job.evaluate(&default, 100.0);
        assert!(!e.completed && !e.failed);
        assert_eq!(e.time_s, 100.0);
    }

    #[test]
    fn good_config_completes_under_generous_cap() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        for w in crate::workload::ALL_WORKLOADS {
            let mut job = SparkJob::new(space.clone(), w, Dataset::D1, 4);
            let e = job.evaluate(&cfg, 480.0);
            assert!(e.completed, "{w:?} should complete: {e:?}");
        }
    }

    #[test]
    fn event_engine_tunes_end_to_end_and_replays() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let run = |seed: u64| -> Vec<f64> {
            let mut job = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, seed)
                .with_engine(SimEngine::Event { task_sigma: crate::event::DEFAULT_TASK_SIGMA });
            (0..5).map(|_| job.evaluate(&cfg, 480.0).time_s).collect()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "event engine must replay under a fixed seed");
        // Per-evaluation scheduler seeds differ, so times vary within a run.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
        // And event-mode times sit near the analytic engine's.
        let mut analytic = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, 11);
        let t_analytic = analytic.evaluate(&cfg, 480.0).time_s;
        let mean_event = robotune_stats::mean(&a);
        assert!(
            (mean_event / t_analytic - 1.0).abs() < 0.3,
            "event {mean_event:.1}s vs analytic {t_analytic:.1}s"
        );
    }

    #[test]
    fn fault_plan_replays_identically_for_the_same_seed() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let run = |job_seed: u64, plan_seed: u64| -> Vec<(f64, bool, bool)> {
            let plan = FaultPlan::from_profile(robotune_faults::FaultProfile::Hostile, plan_seed);
            let mut job = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, job_seed)
                .with_faults(plan);
            (0..30)
                .map(|_| {
                    let e = job.evaluate(&cfg, 480.0);
                    (e.time_s, e.completed, e.failed)
                })
                .collect()
        };
        assert_eq!(run(9, 77), run(9, 77));
        assert_ne!(run(9, 77), run(9, 78), "different plan seeds must differ");
    }

    #[test]
    fn hostile_faults_perturb_but_never_panic() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let plan = FaultPlan::from_profile(robotune_faults::FaultProfile::Hostile, 5);
        let mut job =
            SparkJob::new(space.clone(), Workload::PageRank, Dataset::D1, 5).with_faults(plan);
        let mut transients = 0;
        let mut slowed = 0;
        let clean = SparkJob::new(space, Workload::PageRank, Dataset::D1, 5)
            .dry_run(&cfg)
            .elapsed_s();
        for _ in 0..60 {
            let e = job.evaluate(&cfg, 480.0);
            assert!(e.time_s.is_finite() && e.time_s >= 0.0);
            if e.failed && e.transient {
                transients += 1;
            }
            if e.completed && e.time_s > clean * 1.3 {
                slowed += 1;
            }
        }
        assert_eq!(job.evaluations(), 60, "every evaluation must be counted");
        assert!(transients > 0, "hostile profile should produce transient failures");
        assert!(slowed > 0, "hostile profile should produce visible slowdowns");
    }

    #[test]
    fn submit_failures_burn_only_the_gateway_round_trip() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        // A plan that always rejects the submit.
        let cfgf = robotune_faults::FaultConfig {
            submit_failure_p: 1.0,
            ..robotune_faults::FaultConfig::NONE
        };
        let mut job = SparkJob::new(space, Workload::KMeans, Dataset::D1, 6)
            .with_faults(FaultPlan::new(cfgf, 1));
        let e = job.evaluate(&cfg, 480.0);
        assert!(e.failed && e.transient && !e.completed);
        assert_eq!(e.time_s, SparkJob::SUBMIT_FAILURE_S);
        assert_eq!(job.evaluations(), 1);
    }

    #[test]
    fn none_profile_matches_the_unfaulted_job_exactly() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let plan = FaultPlan::from_profile(robotune_faults::FaultProfile::None, 3);
        let mut faulted =
            SparkJob::new(space.clone(), Workload::TeraSort, Dataset::D1, 12).with_faults(plan);
        let mut clean = SparkJob::new(space, Workload::TeraSort, Dataset::D1, 12);
        for _ in 0..10 {
            assert_eq!(faulted.evaluate(&cfg, 480.0), clean.evaluate(&cfg, 480.0));
        }
    }

    #[test]
    fn fidelity_cuts_cost_roughly_proportionally() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        for w in crate::workload::ALL_WORKLOADS {
            let full = SparkJob::new(space.clone(), w, Dataset::D2, 1)
                .dry_run(&cfg)
                .elapsed_s();
            let sixteenth = SparkJob::new(space.clone(), w, Dataset::D2, 1)
                .with_fidelity(Fidelity::new(1.0 / 16.0).unwrap())
                .dry_run(&cfg)
                .elapsed_s();
            // Fixed overheads (app startup, scheduling) don't shrink, so the
            // ratio lands between the data fraction and ~1/2.
            let ratio = sixteenth / full;
            assert!(
                ratio > 1.0 / 32.0 && ratio < 0.5,
                "{w:?}: 1/16 fidelity ratio {ratio:.3} (full {full:.1}s, sub {sixteenth:.1}s)"
            );
        }
    }

    #[test]
    fn fidelity_switching_preserves_the_noise_and_fault_streams() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let half = Fidelity::new(0.5).unwrap();
        // Stream A: evaluate twice at FULL. Stream B: one half-fidelity
        // probe first, then FULL. The shared noise RNG must hand the same
        // multiplier to evaluation #2 either way.
        let plan = || FaultPlan::from_profile(robotune_faults::FaultProfile::Hostile, 21);
        let mut a = SparkJob::new(space.clone(), Workload::PageRank, Dataset::D1, 13)
            .with_faults(plan());
        let mut b = SparkJob::new(space.clone(), Workload::PageRank, Dataset::D1, 13)
            .with_faults(plan());
        let _ = a.evaluate(&cfg, 480.0);
        assert!(b.set_fidelity(half));
        assert_eq!(b.fidelity(), half);
        let _ = b.evaluate(&cfg, 480.0);
        assert!(b.set_fidelity(Fidelity::FULL));
        assert_eq!(a.evaluate(&cfg, 480.0), b.evaluate(&cfg, 480.0));
    }

    #[test]
    fn full_fidelity_job_is_bit_identical_to_the_default_path() {
        let space = spark_space();
        let cfg = tuned_config(&space);
        let mut plain = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D3, 17);
        let mut tagged = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D3, 17)
            .with_fidelity(Fidelity::FULL);
        for _ in 0..5 {
            assert_eq!(plain.evaluate(&cfg, 480.0), tagged.evaluate(&cfg, 480.0));
        }
    }

    #[test]
    fn same_seed_reproduces_the_whole_evaluation_stream() {
        let space = spark_space();
        use rand::Rng;
        let mut point_rng = robotune_stats::rng_from_seed(5);
        let points: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..space.dim()).map(|_| point_rng.gen::<f64>()).collect())
            .collect();
        let stream = |seed: u64| -> Vec<f64> {
            let mut job = SparkJob::new(space.clone(), Workload::TeraSort, Dataset::D1, seed);
            points
                .iter()
                .map(|p| job.evaluate(&space.decode(p), 480.0).time_s)
                .collect()
        };
        assert_eq!(stream(42), stream(42));
    }
}
