//! The stage-level cost model.
//!
//! Deterministic: given a cluster, parameters, workload and dataset it
//! produces the same [`RunReport`] every time. Run-to-run noise is layered
//! on top by [`crate::job::SparkJob`], which is also where the per-run cap
//! is enforced.
//!
//! The model is intentionally *analytical* rather than event-driven: each
//! stage's duration is the maximum of its wave-based task time and its
//! aggregate IO floors (HDFS, shuffle disk, shuffle network), plus
//! scheduling overheads. That is exactly the fidelity needed to reproduce
//! the paper's response-surface *shape* — who wins and why — without
//! pretending to predict a real cluster's absolute seconds.

use crate::cluster::Cluster;
use crate::layout::ExecutorLayout;
use crate::params::SparkParams;
use crate::workload::{Dataset, Plan, Source, Stage, Workload};

/// Tunable constants of the cost model, collected for visibility.
pub mod consts {
    /// HDFS block size, MiB — decides input-stage partitioning.
    pub const HDFS_BLOCK_MB: f64 = 128.0;
    /// Application / driver startup cost, seconds.
    pub const APP_STARTUP_S: f64 = 8.0;
    /// Fixed per-stage scheduling cost, seconds.
    pub const STAGE_OVERHEAD_S: f64 = 1.0;
    /// Driver-side cost of launching one task, seconds.
    pub const TASK_LAUNCH_S: f64 = 0.08;
    /// Baseline straggler inflation of a wave (fraction of task time).
    pub const STRAGGLER_BASE: f64 = 0.12;
    /// Fraction of straggler inflation removed by speculation.
    pub const SPECULATION_RESCUE: f64 = 0.5;
    /// Extra work fraction caused by speculative duplicates.
    pub const SPECULATION_COST: f64 = 0.04;
    /// GC inflation strength (quadratic above the pressure knee).
    pub const GC_STRENGTH: f64 = 2.0;
    /// Heap-pressure knee above which GC time grows quadratically.
    pub const GC_KNEE: f64 = 0.55;
    /// Maximum GC inflation factor.
    pub const GC_CAP: f64 = 3.0;
    /// Spill slowdown per unit of working-set overflow.
    pub const SPILL_STRENGTH: f64 = 0.5;
    /// Maximum spill overflow ratio contributing to the penalty.
    pub const SPILL_CAP: f64 = 3.0;
    /// Working-set multiplier of shuffle-producing tasks (sort buffers).
    pub const SHUFFLE_WORKSET: f64 = 1.3;
    /// Working-set multiplier of non-shuffle tasks.
    pub const PLAIN_WORKSET: f64 = 0.4;
    /// Ideal memory per task slot, MiB — the centre of the cores-vs-
    /// memory valley in Figs. 8–9.
    pub const IDEAL_MB_PER_SLOT: f64 = 3072.0;
    /// Strength of the memory-balance penalty (per workload sensitivity).
    pub const BALANCE_MEM_STRENGTH: f64 = 0.10;
    /// Strength of the parallelism-mismatch penalty.
    pub const BALANCE_PAR_STRENGTH: f64 = 0.06;
    /// Partitions per slot considered ideal.
    pub const IDEAL_PARTITIONS_PER_SLOT: f64 = 2.5;
    /// Locality-wait penalty per wave, as a fraction of the wait.
    pub const LOCALITY_WAVE_FACTOR: f64 = 0.25;
    /// Block-manager traffic multiplier under cache-eviction churn.
    pub const CACHE_CHURN: f64 = 4.0;
    /// Time burned before an OOM is diagnosed, per retry, seconds.
    pub const OOM_RETRY_S: f64 = 25.0;
    /// Submit-failure turnaround, seconds.
    pub const LAUNCH_FAILURE_S: f64 = 12.0;
}

/// How a simulated run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Ran to completion in this many seconds.
    Completed(f64),
    /// Died of OutOfMemory (or an equivalent runtime error) after burning
    /// this many seconds on retries.
    Oom {
        /// Seconds consumed before the application gave up.
        after_s: f64,
    },
    /// The configuration could not even launch (executor doesn't fit,
    /// zero task slots).
    LaunchFailure,
}

/// What bounded a stage's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Wave-based task execution (CPU + serialization + per-task IO).
    Tasks,
    /// Aggregate HDFS read bandwidth.
    HdfsRead,
    /// Aggregate shuffle/output disk bandwidth.
    Disk,
    /// Aggregate shuffle network bandwidth.
    Network,
}

/// Per-stage accounting of a completed portion of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// Stage label.
    pub name: &'static str,
    /// Simulated seconds.
    pub seconds: f64,
    /// Whether tasks spilled to disk.
    pub spilled: bool,
    /// Which resource the stage was bound by.
    pub bottleneck: Bottleneck,
}

/// The full result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Stage breakdown (up to the failure point, if any).
    pub stages: Vec<StageCost>,
    /// The resolved executor layout, when launch succeeded.
    pub layout: Option<ExecutorLayout>,
    /// Fraction of the cached RDD that fit in storage memory (1.0 when
    /// nothing needed caching).
    pub cache_fit: f64,
}

impl RunReport {
    /// Total simulated seconds regardless of outcome.
    pub fn elapsed_s(&self) -> f64 {
        match self.outcome {
            Outcome::Completed(t) => t,
            Outcome::Oom { after_s } => after_s,
            Outcome::LaunchFailure => consts::LAUNCH_FAILURE_S,
        }
    }
}

struct StageContext<'a> {
    cluster: &'a Cluster,
    p: &'a SparkParams,
    layout: &'a ExecutorLayout,
    plan: &'a Plan,
    cache_fit: f64,
    cache_resident_per_exec_mb: f64,
}

/// Simulates one run of a built-in workload.
pub fn simulate(
    cluster: &Cluster,
    p: &SparkParams,
    workload: Workload,
    dataset: Dataset,
) -> RunReport {
    simulate_plan(cluster, p, &workload.plan(dataset))
}

/// Simulates one run of a [`Plan`], such as a built-in workload's plan at
/// a reduced fidelity ([`Workload::plan_at`]).
pub fn simulate_plan(cluster: &Cluster, p: &SparkParams, plan: &Plan) -> RunReport {
    simulate_with(cluster, p, plan, |profile, layout| {
        assemble_analytic(profile, p, layout.total_slots)
    })
}

/// Core simulation loop, generic over how a stage profile is assembled
/// into a duration: the analytic wave model ([`simulate_plan`]) or the
/// discrete-event scheduler ([`crate::event::simulate_event`]).
pub(crate) fn simulate_with(
    cluster: &Cluster,
    p: &SparkParams,
    plan: &Plan,
    mut assemble: impl FnMut(&StageProfile, &ExecutorLayout) -> StageCost,
) -> RunReport {
    let plan = plan.clone();
    let _span = robotune_obs::span("sim.run");
    let Some(layout) = ExecutorLayout::solve(cluster, p) else {
        robotune_obs::incr("sim.launch_failure", 1);
        return RunReport {
            outcome: Outcome::LaunchFailure,
            stages: Vec::new(),
            layout: None,
            cache_fit: 1.0,
        };
    };

    // --- Cache sizing -----------------------------------------------------
    // Deserialized caches inflate by the serializer's object expansion;
    // `spark.rdd.compress` switches to a serialized+compressed level.
    let ser = p.serializer_props();
    let obj_factor = plan.object_factor;
    let cache_resident_need = if plan.cache_mb > 0.0 {
        if p.rdd_compress {
            plan.cache_mb * ser.size_ratio * 0.6
        } else {
            plan.cache_mb * ser.object_expansion * obj_factor.max(0.5)
        }
    } else {
        0.0
    };
    let cache_fit = if cache_resident_need > 0.0 {
        (layout.total_storage_mb() / cache_resident_need).min(1.0)
    } else {
        1.0
    };
    let cache_resident_per_exec =
        (cache_resident_need * cache_fit) / layout.executors as f64;

    let ctx = StageContext {
        cluster,
        p,
        layout: &layout,
        plan: &plan,
        cache_fit,
        cache_resident_per_exec_mb: cache_resident_per_exec,
    };

    let mut stages = Vec::new();
    let mut elapsed = consts::APP_STARTUP_S;

    let mut run_stage = |stage: &Stage,
                         stages: &mut Vec<StageCost>,
                         elapsed: &mut f64|
     -> Result<(), f64> {
        match stage_profile(&ctx, stage).map(|pr| assemble(&pr, ctx.layout)) {
            Ok(cost) => {
                robotune_obs::record("sim.stage_s", cost.seconds);
                if cost.spilled {
                    robotune_obs::incr("sim.spill", 1);
                }
                *elapsed += cost.seconds;
                stages.push(cost);
                Ok(())
            }
            Err(partial) => {
                // Tasks OOM, get retried `task.maxFailures` times, then
                // the application aborts.
                robotune_obs::incr("sim.oom", 1);
                let retries = ctx.p.task_max_failures.clamp(1, 8) as f64;
                Err(*elapsed + partial + retries * consts::OOM_RETRY_S)
            }
        }
    };

    if let Err(after_s) = run_stage(&plan.load, &mut stages, &mut elapsed) {
        return RunReport {
            outcome: Outcome::Oom { after_s },
            stages,
            layout: Some(layout),
            cache_fit,
        };
    }
    if let Some(iter) = &plan.iter {
        for _ in 0..plan.iterations {
            if let Err(after_s) = run_stage(iter, &mut stages, &mut elapsed) {
                return RunReport {
                    outcome: Outcome::Oom { after_s },
                    stages,
                    layout: Some(layout),
                    cache_fit,
                };
            }
        }
    }
    if let Some(finish) = &plan.finish {
        if let Err(after_s) = run_stage(finish, &mut stages, &mut elapsed) {
            return RunReport {
                outcome: Outcome::Oom { after_s },
                stages,
                layout: Some(layout),
                cache_fit,
            };
        }
    }

    RunReport {
        outcome: Outcome::Completed(elapsed),
        stages,
        layout: Some(layout),
        cache_fit,
    }
}

/// Computes one stage's cost profile, or `Err(partial_seconds)` on task
/// OOM.
fn stage_profile(ctx: &StageContext<'_>, stage: &Stage) -> Result<StageProfile, f64> {
    let (cluster, p, layout) = (ctx.cluster, ctx.p, ctx.layout);
    let ser = p.serializer_props();
    let codec = p.codec_props();
    let obj_factor = ctx.plan.object_factor;

    // --- Partitioning ------------------------------------------------------
    // HDFS stages split on the plan's block size — normally the 128 MiB
    // HDFS block; fractional-fidelity plans shrink it in step with the
    // subsample (a `sample(f)` keeps its parent's partitioning, so a
    // 1/16 run has the *same* task count with 1/16 the data per task).
    let block_mb = ctx.plan.hdfs_partition_mb;
    let partitions = match stage.source {
        Source::Hdfs => (stage.input_mb / block_mb).ceil().max(1.0),
        // Cached RDDs keep their lineage partitioning; shuffled stages are
        // partitioned by spark.default.parallelism. Graph iterations
        // re-partition through their joins, so they follow parallelism too.
        Source::Cache => {
            if ctx.plan.iter_partitions_by_parallelism {
                p.default_parallelism as f64
            } else {
                (ctx.plan.load.input_mb / block_mb).ceil().max(1.0)
            }
        }
        Source::Shuffle => p.default_parallelism as f64,
    };
    let dpt_mb = stage.input_mb / partitions;
    let total_slots = layout.total_slots as f64;
    let waves = (partitions / total_slots).ceil().max(1.0);

    // --- OOM check ----------------------------------------------------------
    // Deserialized task records live in user memory, with the execution
    // region absorbing part of the overflow (Spark borrows before it
    // dies); when one task's in-flight objects exceed both, the executor
    // is killed. With the paper's 8 GiB heap floor this only fires for
    // genuinely pathological settings — and for the 1 GiB factory default
    // (§5.2's PR/CC OOMs and TS-D2/D3 runtime errors).
    let user_per_slot = layout.user_mb / layout.slots_per_executor as f64;
    let available_mb = user_per_slot + 0.5 * layout.execution_per_task_mb();
    let live_objects_mb = dpt_mb * ser.object_expansion * obj_factor;
    if live_objects_mb > available_mb {
        // Partial work before the abort: roughly one wave's worth.
        return Err(consts::STAGE_OVERHEAD_S + 5.0);
    }

    // --- Spill --------------------------------------------------------------
    let workset_factor = if stage.shuffle_out_mb > 0.0 {
        consts::SHUFFLE_WORKSET
    } else {
        consts::PLAIN_WORKSET
    };
    let workset_mb = dpt_mb * workset_factor;
    let exec_per_task = layout.execution_per_task_mb().max(1.0);
    let overflow = (workset_mb / exec_per_task - 1.0).max(0.0);
    let spilled = overflow > 0.0;
    let spill_penalty = 1.0 + consts::SPILL_STRENGTH * overflow.min(consts::SPILL_CAP);

    // --- GC pressure ----------------------------------------------------------
    let live_per_exec = live_objects_mb * layout.slots_per_executor as f64 * 0.5
        + ctx.cache_resident_per_exec_mb;
    let pressure = (live_per_exec / layout.heap_mb.max(1.0)).min(1.5);
    let gc_factor = (1.0
        + consts::GC_STRENGTH * (pressure - consts::GC_KNEE).max(0.0).powi(2))
    .min(consts::GC_CAP);
    if gc_factor > 1.05 {
        robotune_obs::incr("sim.gc_pressure", 1);
    }

    // --- Balance penalty (the narrow-optimum shaper) --------------------------
    let mem_per_slot = layout.heap_mb / layout.slots_per_executor as f64;
    let mem_dev = (mem_per_slot / consts::IDEAL_MB_PER_SLOT).log2();
    let par_dev = if stage.source != Source::Hdfs {
        (partitions / (total_slots * consts::IDEAL_PARTITIONS_PER_SLOT)).log2()
    } else {
        0.0
    };
    let balance = 1.0
        + ctx.plan.balance_sensitivity
            * (consts::BALANCE_MEM_STRENGTH * mem_dev * mem_dev
                + consts::BALANCE_PAR_STRENGTH * par_dev * par_dev);

    // --- Per-task compute ------------------------------------------------------
    let mut task_s = dpt_mb * stage.cpu_per_mb * gc_factor * balance;

    // Serialization of shuffled bytes (out + in).
    let shuffle_out_pt = stage.shuffle_out_mb / partitions;
    let shuffle_in_pt = if stage.source == Source::Shuffle {
        dpt_mb
    } else {
        // Iterative stages both consume and produce their shuffle.
        shuffle_out_pt
    };
    task_s += (shuffle_out_pt + shuffle_in_pt) / ser.throughput_mbps;

    // Compression of shuffled bytes.
    let (wire_out_pt, wire_in_pt) = if p.shuffle_compress {
        task_s += (shuffle_out_pt + shuffle_in_pt) / codec.throughput_mbps;
        (shuffle_out_pt * codec.ratio, shuffle_in_pt * codec.ratio)
    } else {
        (shuffle_out_pt, shuffle_in_pt)
    };

    // --- Per-task IO ---------------------------------------------------------
    let concurrent_per_node = layout
        .slots_per_node
        .min((partitions / layout.nodes_used as f64).max(1.0));
    // Shuffle write to local disk, shared with node neighbours.
    let buffer_eff = 0.8 + 0.2 * (p.shuffle_file_buffer_kb as f64 / 1024.0).min(1.0).powf(0.3);
    let disk_per_task = (cluster.disk_mbps * buffer_eff / concurrent_per_node).max(0.5);
    task_s += (wire_out_pt * spill_penalty + stage.output_mb / partitions) / disk_per_task;

    // Shuffle fetch over the network, window-limited.
    if wire_in_pt > 0.0 && stage.source == Source::Shuffle
        || ctx.plan.iter_fetches_over_network && stage.source == Source::Cache
    {
        let window = (p.reducer_max_size_in_flight_mb as f64 / 48.0)
            .powf(0.25)
            .clamp(0.7, 1.08);
        let conn_boost = 1.0 + 0.02 * (p.conns_per_peer as f64 - 1.0).min(3.0);
        let net_per_task =
            (cluster.network_mbps * window * conn_boost / concurrent_per_node).max(0.5);
        task_s += wire_in_pt / net_per_task;
    }

    // Cache reads: memory-speed when resident; misses fall back to the OS
    // page cache or disk plus lineage recomputation.
    let mut stage_extra_s = 0.0;
    if stage.source == Source::Cache {
        let miss = 1.0 - ctx.cache_fit;
        if miss > 0.0 {
            // LRU cliff: with a partially fitting iterative RDD, the
            // partition needed next is exactly the one just evicted, so
            // effective misses saturate well above the naive shortfall.
            let miss_eff = if ctx.cache_fit < 0.95 { miss.max(0.7) } else { miss };
            let reread_mb = ctx.plan.load.input_mb * miss_eff;
            // Data read once recently usually sits in the OS page cache on
            // these RAM-heavy nodes; block-manager churn (evict →
            // recompute → re-cache → evict) multiplies the traffic.
            let total_mem = cluster.memory_per_node_mb * cluster.nodes as f64;
            let bw = if ctx.plan.load.input_mb < 0.5 * total_mem {
                cluster.page_cache_mbps
            } else {
                cluster.disk_mbps
            } * layout.nodes_used as f64;
            stage_extra_s += reread_mb * consts::CACHE_CHURN / bw;
            // Recomputation re-runs the lineage (re-parse is pricier than
            // the first parse thanks to allocator/GC churn).
            stage_extra_s += reread_mb * ctx.plan.recompute_cpu_per_mb * 1.5 * gc_factor
                / total_slots.max(1.0);
        }
    }

    // --- Profile + analytic wave assembly -----------------------------------
    let locality_s = if stage.source != Source::Shuffle {
        (p.locality_wait_ms as f64 / 1000.0) * consts::LOCALITY_WAVE_FACTOR * waves.min(8.0)
    } else {
        0.0
    };
    let hdfs_floor = if stage.source == Source::Hdfs {
        stage.input_mb / cluster.hdfs_read_mbps(layout.nodes_used)
    } else {
        0.0
    };
    let wire_total = if p.shuffle_compress {
        stage.shuffle_out_mb * codec.ratio
    } else {
        stage.shuffle_out_mb
    };
    let disk_floor = (wire_total + stage.output_mb)
        / (cluster.disk_mbps * layout.nodes_used as f64);
    let net_floor = wire_total / (cluster.network_mbps * layout.nodes_used as f64);

    Ok(StageProfile {
        name: stage.name,
        partitions: partitions as usize,
        task_s,
        stage_extra_s,
        locality_s,
        hdfs_floor,
        disk_floor,
        net_floor,
        spilled,
    })
}

/// The per-stage cost profile shared by the analytic wave assembly and the
/// discrete-event scheduler ([`crate::event`]).
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Stage label.
    pub name: &'static str,
    /// Task count.
    pub partitions: usize,
    /// Mean per-task seconds, before straggler/speculation effects.
    pub task_s: f64,
    /// Stage-level extra seconds (cache-miss churn and recomputation).
    pub stage_extra_s: f64,
    /// Stage-level delay-scheduling penalty, seconds.
    pub locality_s: f64,
    /// Aggregate HDFS read floor, seconds.
    pub hdfs_floor: f64,
    /// Aggregate shuffle/output disk floor, seconds.
    pub disk_floor: f64,
    /// Aggregate shuffle network floor, seconds.
    pub net_floor: f64,
    /// Whether tasks spill.
    pub spilled: bool,
}

impl StageProfile {
    /// Applies the IO floors and fixed overhead to an assembled task-level
    /// duration, classifying the bottleneck.
    pub fn finish(&self, task_level_s: f64) -> StageCost {
        let dominant = task_level_s
            .max(self.hdfs_floor)
            .max(self.disk_floor)
            .max(self.net_floor);
        let bottleneck = if dominant == task_level_s {
            Bottleneck::Tasks
        } else if dominant == self.hdfs_floor {
            Bottleneck::HdfsRead
        } else if dominant == self.disk_floor {
            Bottleneck::Disk
        } else {
            Bottleneck::Network
        };
        StageCost {
            name: self.name,
            seconds: consts::STAGE_OVERHEAD_S + dominant,
            spilled: self.spilled,
            bottleneck,
        }
    }
}

/// Analytic assembly: waves × (mean task time × straggler inflation),
/// with speculation modelled as a straggler rescue plus a work tax.
fn assemble_analytic(profile: &StageProfile, p: &SparkParams, total_slots: usize) -> StageCost {
    let mut task_s = profile.task_s;
    let mut straggler = 1.0 + consts::STRAGGLER_BASE;
    if p.speculation && p.speculation_quantile < 0.9 && p.speculation_multiplier < 3.0 {
        straggler = 1.0 + consts::STRAGGLER_BASE * (1.0 - consts::SPECULATION_RESCUE);
        task_s *= 1.0 + consts::SPECULATION_COST;
    }
    let waves = (profile.partitions as f64 / total_slots as f64).ceil().max(1.0);
    let launch_s = profile.partitions as f64 * consts::TASK_LAUNCH_S / total_slots as f64;
    let wave_time =
        waves * task_s * straggler + launch_s + profile.locality_s + profile.stage_extra_s;
    profile.finish(wave_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL_DATASETS;
    use robotune_space::spark::{names, spark_space};
    use robotune_space::{ParamValue, SearchSpace};

    /// The 1 GiB Spark factory default (§5.2's baseline).
    fn default_params() -> SparkParams {
        SparkParams::factory_defaults(&spark_space())
    }

    /// A hand-tuned "good" configuration: 8-core 24 GiB executors × 20.
    fn tuned_params() -> SparkParams {
        let space = spark_space();
        let mut cfg = space.default_configuration();
        let set_int = |cfg: &mut robotune_space::Configuration, name: &str, v: i64| {
            cfg.set(space.index_of(name).unwrap(), ParamValue::Int(v));
        };
        set_int(&mut cfg, names::EXECUTOR_CORES, 8);
        set_int(&mut cfg, names::EXECUTOR_MEMORY, 24 * 1024);
        set_int(&mut cfg, names::EXECUTOR_INSTANCES, 20);
        set_int(&mut cfg, names::DEFAULT_PARALLELISM, 400);
        cfg.set(space.index_of(names::SERIALIZER).unwrap(), ParamValue::Cat(1));
        SparkParams::extract(&space, &cfg)
    }

    #[test]
    fn default_config_ooms_on_graph_workloads() {
        // §5.2: the 1 GiB default heap OOMs PR and CC.
        let c = Cluster::noleland();
        for w in [Workload::PageRank, Workload::ConnectedComponents] {
            for d in ALL_DATASETS {
                let r = simulate(&c, &default_params(), w, d);
                assert!(
                    matches!(r.outcome, Outcome::Oom { .. }),
                    "{w:?}/{d:?} should OOM at defaults, got {:?}",
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn default_config_completes_km_and_lr_slowly() {
        let c = Cluster::noleland();
        for w in [Workload::KMeans, Workload::LogisticRegression] {
            let def = simulate(&c, &default_params(), w, Dataset::D1);
            let tuned = simulate(&c, &tuned_params(), w, Dataset::D1);
            let (Outcome::Completed(td), Outcome::Completed(tt)) = (def.outcome, tuned.outcome)
            else {
                panic!("{w:?} should complete under both configs: {def:?}");
            };
            assert!(
                td > 2.0 * tt,
                "{w:?}: default {td:.0}s should be much slower than tuned {tt:.0}s"
            );
        }
    }

    #[test]
    fn terasort_default_fails_only_on_larger_datasets() {
        // §5.2: TS speedup 4.16× on 20 GB; runtime errors on 30/40 GB.
        let c = Cluster::noleland();
        let d1 = simulate(&c, &default_params(), Workload::TeraSort, Dataset::D1);
        assert!(matches!(d1.outcome, Outcome::Completed(_)), "{:?}", d1.outcome);
        for d in [Dataset::D2, Dataset::D3] {
            let r = simulate(&c, &default_params(), Workload::TeraSort, d);
            assert!(
                matches!(r.outcome, Outcome::Oom { .. }),
                "TS/{d:?} should error at defaults, got {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn tuned_config_completes_everything_in_sane_time() {
        let c = Cluster::noleland();
        for w in crate::workload::ALL_WORKLOADS {
            let r = simulate(&c, &tuned_params(), w, Dataset::D1);
            let Outcome::Completed(t) = r.outcome else {
                panic!("{w:?} failed under a good config: {:?}", r.outcome);
            };
            assert!(
                (20.0..480.0).contains(&t),
                "{w:?} tuned time {t:.1}s out of the expected range"
            );
        }
    }

    #[test]
    fn bigger_datasets_take_longer() {
        let c = Cluster::noleland();
        let p = tuned_params();
        for w in crate::workload::ALL_WORKLOADS {
            let t1 = simulate(&c, &p, w, Dataset::D1).elapsed_s();
            let t3 = simulate(&c, &p, w, Dataset::D3).elapsed_s();
            assert!(t3 > t1, "{w:?}: D3 ({t3:.1}s) not slower than D1 ({t1:.1}s)");
        }
    }

    #[test]
    fn launch_failure_when_executor_cannot_fit() {
        let c = Cluster::noleland();
        let mut p = default_params();
        p.executor_memory_mb = 300.0 * 1024.0;
        let r = simulate(&c, &p, Workload::KMeans, Dataset::D1);
        assert_eq!(r.outcome, Outcome::LaunchFailure);
        assert_eq!(r.elapsed_s(), consts::LAUNCH_FAILURE_S);
    }

    #[test]
    fn kmeans_cache_eviction_is_catastrophic() {
        // §5.3: configurations that evict KMeans' cached RDD land in the
        // distribution's long tail.
        let c = Cluster::noleland();
        let mut fits = tuned_params();
        fits.storage_fraction = 0.6;
        let mut evicts = tuned_params();
        // Enough user memory to run, far too little storage to cache D3.
        evicts.executor_memory_mb = 6.0 * 1024.0;
        evicts.storage_fraction = 0.3;
        evicts.executor_instances = 20;
        let good = simulate(&c, &fits, Workload::KMeans, Dataset::D3);
        let bad = simulate(&c, &evicts, Workload::KMeans, Dataset::D3);
        let (Outcome::Completed(tg), Outcome::Completed(tb)) = (good.outcome, bad.outcome)
        else {
            panic!("both should complete: {good:?} / {bad:?}");
        };
        assert!(good.cache_fit > 0.95, "cache_fit = {}", good.cache_fit);
        assert!(bad.cache_fit < 0.5, "cache_fit = {}", bad.cache_fit);
        assert!(tb > 1.5 * tg, "eviction should hurt: {tb:.0}s vs {tg:.0}s");
    }

    #[test]
    fn kryo_beats_java_on_shuffle_heavy_workloads() {
        let c = Cluster::noleland();
        let kryo = tuned_params();
        let mut java = tuned_params();
        java.kryo = false;
        let tk = simulate(&c, &kryo, Workload::PageRank, Dataset::D2).elapsed_s();
        let tj = simulate(&c, &java, Workload::PageRank, Dataset::D2).elapsed_s();
        assert!(tk < tj, "kryo {tk:.1}s should beat java {tj:.1}s");
    }

    #[test]
    fn compression_helps_terasort() {
        let c = Cluster::noleland();
        let comp = tuned_params();
        let mut raw = tuned_params();
        raw.shuffle_compress = false;
        let tc = simulate(&c, &comp, Workload::TeraSort, Dataset::D2).elapsed_s();
        let tr = simulate(&c, &raw, Workload::TeraSort, Dataset::D2).elapsed_s();
        assert!(tc < tr, "compressed {tc:.1}s should beat raw {tr:.1}s");
    }

    #[test]
    fn bottleneck_diagnosis_matches_workload_character() {
        let c = Cluster::noleland();
        let p = tuned_params();
        // TeraSort's map stage writes its whole input to shuffle disk.
        let ts = simulate(&c, &p, Workload::TeraSort, Dataset::D2);
        let map = &ts.stages[0];
        assert!(
            matches!(map.bottleneck, Bottleneck::Disk | Bottleneck::HdfsRead),
            "TS map should be IO-bound, got {:?}",
            map.bottleneck
        );
        // KMeans iterations are compute over cached data.
        let km = simulate(&c, &p, Workload::KMeans, Dataset::D1);
        let iter = km.stages.iter().find(|s| s.name == "assign+update").unwrap();
        assert_eq!(iter.bottleneck, Bottleneck::Tasks, "KM iter should be task-bound");
    }

    #[test]
    fn simulation_is_deterministic() {
        let c = Cluster::noleland();
        let p = tuned_params();
        let a = simulate(&c, &p, Workload::PageRank, Dataset::D1);
        let b = simulate(&c, &p, Workload::PageRank, Dataset::D1);
        assert_eq!(a, b);
    }

    #[test]
    fn random_configs_never_panic_and_report_coherently() {
        use rand::Rng;
        let c = Cluster::noleland();
        let space = spark_space();
        let mut rng = robotune_stats::rng_from_seed(9);
        for _ in 0..300 {
            let pt: Vec<f64> = (0..space.dim()).map(|_| rng.gen::<f64>()).collect();
            let cfg = space.decode(&pt);
            let p = SparkParams::extract(&space, &cfg);
            for w in crate::workload::ALL_WORKLOADS {
                let r = simulate(&c, &p, w, Dataset::D1);
                assert!(r.elapsed_s() > 0.0);
                assert!(r.elapsed_s().is_finite());
                if let Outcome::Completed(t) = r.outcome {
                    assert!(t < 1e6, "absurd runtime {t}");
                }
            }
        }
    }
}
