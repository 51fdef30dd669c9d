//! The five SparkBench workloads and their Table-1 datasets.

use robotune_tuners::Fidelity;

/// A tunable workload (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// GraphX PageRank over a generated web graph.
    PageRank,
    /// MLlib KMeans clustering; caches the full point RDD.
    KMeans,
    /// GraphX ConnectedComponents.
    ConnectedComponents,
    /// MLlib LogisticRegression; caches the training RDD.
    LogisticRegression,
    /// TeraSort micro-benchmark: one full shuffle of the input.
    TeraSort,
}

/// All five workloads in the paper's Table-1 order.
pub const ALL_WORKLOADS: [Workload; 5] = [
    Workload::PageRank,
    Workload::KMeans,
    Workload::ConnectedComponents,
    Workload::LogisticRegression,
    Workload::TeraSort,
];

/// One of the three input datasets per workload (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Smallest input.
    D1,
    /// Middle input.
    D2,
    /// Largest input.
    D3,
}

/// All datasets in Table-1 order.
pub const ALL_DATASETS: [Dataset; 3] = [Dataset::D1, Dataset::D2, Dataset::D3];

impl Dataset {
    /// Scale of this dataset relative to D1, per Table 1
    /// (PR/CC: 5 / 7.5 / 10 M pages; KM: 200/300/400 M points;
    /// LR: 100/200/300 M examples; TS: 20/30/40 GB).
    pub fn scale(self, workload: Workload) -> f64 {
        match (workload, self) {
            (_, Dataset::D1) => 1.0,
            (Workload::LogisticRegression, Dataset::D2) => 2.0,
            (Workload::LogisticRegression, Dataset::D3) => 3.0,
            (_, Dataset::D2) => 1.5,
            (_, Dataset::D3) => 2.0,
        }
    }

    /// Scale of a *fractional subsample* of this dataset relative to D1:
    /// [`Dataset::scale`] times the fidelity fraction. The fraction was
    /// validated at [`Fidelity::new`] — finite, in `(0, 1]` — so the
    /// result is always a positive multiplier with no clamping and no
    /// panic path; a 1/16 subsample of D1 really is `1/16` of D1, below
    /// every Table-1 point.
    pub fn scale_at(self, workload: Workload, fidelity: Fidelity) -> f64 {
        self.scale(workload) * fidelity.fraction()
    }

    /// Index (0 for D1, 1 for D2, 2 for D3) — handy for seeding and
    /// report labelling.
    pub fn index(self) -> usize {
        match self {
            Dataset::D1 => 0,
            Dataset::D2 => 1,
            Dataset::D3 => 2,
        }
    }
}

/// Where a stage's input bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// HDFS read (disk/network bound, 128 MiB blocks decide partitioning).
    Hdfs,
    /// A cached RDD (memory speed when it fits; re-read/recompute when
    /// evicted).
    Cache,
    /// The previous stage's shuffle output.
    Shuffle,
}

/// One stage of a workload's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage label for reports.
    pub name: &'static str,
    /// Bytes processed per occurrence, MiB (raw, pre-compression).
    pub input_mb: f64,
    /// Input source.
    pub source: Source,
    /// Bytes written to shuffle, MiB (raw).
    pub shuffle_out_mb: f64,
    /// Single-core compute seconds per MiB of input.
    pub cpu_per_mb: f64,
    /// Bytes written back to HDFS, MiB.
    pub output_mb: f64,
}

/// The full execution plan of one workload on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The initial load/materialise stage.
    pub load: Stage,
    /// The repeated iteration stage, if the workload is iterative.
    pub iter: Option<Stage>,
    /// Number of repetitions of `iter`.
    pub iterations: usize,
    /// A final stage (e.g. TeraSort's reduce+write), if any.
    pub finish: Option<Stage>,
    /// Raw size of the RDD this workload caches, MiB (0 = no caching).
    pub cache_mb: f64,
    /// How sensitive the workload is to executor-shape imbalance; larger
    /// values carve a narrower high-performance region (PR/CC/LR vs the
    /// plateaus of KM/TS — §5.2).
    pub balance_sensitivity: f64,
    /// Single-core CPU seconds per MiB to *recompute* an evicted cache
    /// partition (on top of re-reading its lineage input).
    pub recompute_cpu_per_mb: f64,
    /// In-heap object expansion multiplier of this workload's records on
    /// top of the serializer's own expansion (graph structures blow up
    /// badly; primitive arrays barely; streamed records hardly at all).
    pub object_factor: f64,
    /// Whether iteration stages re-partition through shuffles and thus
    /// follow `spark.default.parallelism` (GraphX joins) instead of the
    /// cached RDD's lineage partitioning (MLlib scans).
    pub iter_partitions_by_parallelism: bool,
    /// Whether iteration stages fetch shuffle blocks over the network in
    /// addition to reading the cache (graph message exchange).
    pub iter_fetches_over_network: bool,
    /// Split size of HDFS-sourced stages, MiB per partition. The 128 MiB
    /// HDFS block for full-fidelity plans; fractional-fidelity plans
    /// shrink it with the subsample, because `sample(f)` keeps its
    /// parent's partition count and thins each partition's data instead.
    pub hdfs_partition_mb: f64,
}

impl Workload {
    /// Short display name used throughout the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            Workload::PageRank => "PR",
            Workload::KMeans => "KM",
            Workload::ConnectedComponents => "CC",
            Workload::LogisticRegression => "LR",
            Workload::TeraSort => "TS",
        }
    }

    /// Builds the stage plan for the full `dataset`.
    pub fn plan(self, dataset: Dataset) -> Plan {
        self.plan_at(dataset, Fidelity::FULL)
    }

    /// Builds the stage plan for a `fidelity` fraction of `dataset`. Data
    /// volumes (inputs, shuffles, cache) scale linearly with the fraction;
    /// iteration counts do not — a subsampled KMeans still makes ten
    /// passes, just over 1/16 of the points — so simulated cost is roughly
    /// proportional to fidelity on top of the fixed per-run overheads.
    pub fn plan_at(self, dataset: Dataset, fidelity: Fidelity) -> Plan {
        let s = dataset.scale_at(self, fidelity);
        // A subsample keeps its parent's partition count: the effective
        // split shrinks with the fraction so task counts stay put while
        // per-task data thins.
        let split_mb = crate::sim::consts::HDFS_BLOCK_MB * fidelity.fraction();
        match self {
            Workload::PageRank => {
                // 5 M pages ≈ 6 GiB of edges+vertices on HDFS; the links
                // RDD (cached) carries the adjacency structure.
                let input = 6_000.0 * s;
                Plan {
                    load: Stage {
                        name: "load+partition",
                        input_mb: input,
                        source: Source::Hdfs,
                        shuffle_out_mb: input * 0.8,
                        cpu_per_mb: 0.012,
                        output_mb: 0.0,
                    },
                    iter: Some(Stage {
                        name: "rank-iteration",
                        input_mb: input * 1.2,
                        source: Source::Cache,
                        shuffle_out_mb: input * 0.55,
                        cpu_per_mb: 0.012,
                        output_mb: 0.0,
                    }),
                    iterations: 10,
                    finish: None,
                    cache_mb: input * 1.3,
                    balance_sensitivity: 1.0,
                    recompute_cpu_per_mb: 0.012,
                    object_factor: 1.5,
                    iter_partitions_by_parallelism: true,
                    iter_fetches_over_network: true,
                    hdfs_partition_mb: split_mb,
                }
            }
            Workload::ConnectedComponents => {
                let input = 6_000.0 * s;
                Plan {
                    load: Stage {
                        name: "load+partition",
                        input_mb: input,
                        source: Source::Hdfs,
                        shuffle_out_mb: input * 0.8,
                        cpu_per_mb: 0.010,
                        output_mb: 0.0,
                    },
                    iter: Some(Stage {
                        name: "label-propagation",
                        input_mb: input * 1.1,
                        source: Source::Cache,
                        shuffle_out_mb: input * 0.45,
                        cpu_per_mb: 0.010,
                        output_mb: 0.0,
                    }),
                    iterations: 8,
                    finish: None,
                    cache_mb: input * 1.3,
                    balance_sensitivity: 0.9,
                    recompute_cpu_per_mb: 0.010,
                    object_factor: 1.5,
                    iter_partitions_by_parallelism: true,
                    iter_fetches_over_network: true,
                    hdfs_partition_mb: split_mb,
                }
            }
            Workload::KMeans => {
                // 200 M points ≈ 24 GiB of text; all points cached. The
                // load is parse-heavy (≈ 80 MiB/s/core), which is what
                // makes cache eviction — recompute-from-text every
                // iteration — so punishing (§5.2's 27× default slowdown).
                let input = 24_000.0 * s;
                Plan {
                    load: Stage {
                        name: "load+cache",
                        input_mb: input,
                        source: Source::Hdfs,
                        shuffle_out_mb: 4.0,
                        cpu_per_mb: 0.012,
                        output_mb: 0.0,
                    },
                    iter: Some(Stage {
                        name: "assign+update",
                        input_mb: input,
                        source: Source::Cache,
                        shuffle_out_mb: 4.0,
                        cpu_per_mb: 0.006,
                        output_mb: 0.0,
                    }),
                    iterations: 10,
                    finish: None,
                    cache_mb: input,
                    balance_sensitivity: 0.15,
                    recompute_cpu_per_mb: 0.012,
                    object_factor: 0.55,
                    iter_partitions_by_parallelism: false,
                    iter_fetches_over_network: false,
                    hdfs_partition_mb: split_mb,
                }
            }
            Workload::LogisticRegression => {
                // 100 M examples ≈ 8 GiB of dense feature rows; gradient
                // aggregation per pass. Cheap to recompute relative to
                // KMeans, which keeps the default-configuration penalty
                // moderate (§5.2: LR 2.17× vs KM 27×).
                let input = 8_000.0 * s;
                Plan {
                    load: Stage {
                        name: "load+cache",
                        input_mb: input,
                        source: Source::Hdfs,
                        shuffle_out_mb: 2.0,
                        cpu_per_mb: 0.005,
                        output_mb: 0.0,
                    },
                    iter: Some(Stage {
                        name: "gradient-pass",
                        input_mb: input,
                        source: Source::Cache,
                        shuffle_out_mb: 2.0,
                        cpu_per_mb: 0.005,
                        output_mb: 0.0,
                    }),
                    iterations: 8,
                    finish: None,
                    cache_mb: input,
                    balance_sensitivity: 0.55,
                    recompute_cpu_per_mb: 0.002,
                    object_factor: 0.55,
                    iter_partitions_by_parallelism: false,
                    iter_fetches_over_network: false,
                    hdfs_partition_mb: split_mb,
                }
            }
            Workload::TeraSort => {
                // 20/30/40 GiB: map reads + shuffles everything, reduce
                // sorts and writes back.
                let input = 20_480.0 * s;
                Plan {
                    load: Stage {
                        name: "map",
                        input_mb: input,
                        source: Source::Hdfs,
                        shuffle_out_mb: input,
                        cpu_per_mb: 0.0015,
                        output_mb: 0.0,
                    },
                    iter: None,
                    iterations: 0,
                    finish: Some(Stage {
                        name: "sort+write",
                        input_mb: input,
                        source: Source::Shuffle,
                        shuffle_out_mb: 0.0,
                        cpu_per_mb: 0.003,
                        output_mb: input,
                    }),
                    cache_mb: 0.0,
                    balance_sensitivity: 0.15,
                    recompute_cpu_per_mb: 0.0,
                    object_factor: 0.75,
                    iter_partitions_by_parallelism: false,
                    iter_fetches_over_network: false,
                    hdfs_partition_mb: split_mb,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_plans_are_internally_consistent() {
        for w in ALL_WORKLOADS {
            for d in ALL_DATASETS {
                let p = w.plan(d);
                assert!(p.load.input_mb > 0.0);
                assert_eq!(p.load.source, Source::Hdfs);
                assert_eq!(p.iter.is_some(), p.iterations > 0, "{w:?}");
                if let Some(it) = &p.iter {
                    assert!(it.input_mb > 0.0);
                }
                assert!(p.balance_sensitivity >= 0.0);
            }
        }
    }

    #[test]
    fn dataset_scaling_follows_table_1() {
        assert_eq!(Dataset::D2.scale(Workload::PageRank), 1.5); // 7.5/5
        assert_eq!(Dataset::D3.scale(Workload::PageRank), 2.0); // 10/5
        assert_eq!(Dataset::D2.scale(Workload::LogisticRegression), 2.0); // 200/100
        assert_eq!(Dataset::D3.scale(Workload::LogisticRegression), 3.0); // 300/100
        assert_eq!(Dataset::D3.scale(Workload::TeraSort), 2.0); // 40/20
        assert_eq!(Dataset::D1.scale(Workload::KMeans), 1.0);
    }

    #[test]
    fn fractional_fidelity_scales_below_d1_without_clamping() {
        // Satellite pin: 1/16, 1/4, 1/2 of each dataset, plus the
        // existing D1–D3 points at full fidelity.
        let f16 = Fidelity::new(1.0 / 16.0).unwrap();
        let f4 = Fidelity::new(0.25).unwrap();
        let f2 = Fidelity::new(0.5).unwrap();
        assert_eq!(Dataset::D1.scale_at(Workload::PageRank, f16), 1.0 / 16.0);
        assert_eq!(Dataset::D1.scale_at(Workload::KMeans, f4), 0.25);
        assert_eq!(Dataset::D1.scale_at(Workload::TeraSort, f2), 0.5);
        // Fidelity composes multiplicatively with the Table-1 scale…
        assert_eq!(Dataset::D2.scale_at(Workload::PageRank, f2), 0.75);
        assert_eq!(Dataset::D3.scale_at(Workload::LogisticRegression, f4), 0.75);
        assert_eq!(Dataset::D3.scale_at(Workload::TeraSort, f16), 2.0 / 16.0);
        // …and FULL fidelity reproduces Table 1 exactly.
        for w in ALL_WORKLOADS {
            for d in ALL_DATASETS {
                assert_eq!(d.scale_at(w, Fidelity::FULL), d.scale(w));
            }
        }
    }

    #[test]
    fn plan_at_scales_data_volumes_not_iterations() {
        let f4 = Fidelity::new(0.25).unwrap();
        for w in ALL_WORKLOADS {
            let full = w.plan(Dataset::D2);
            let quarter = w.plan_at(Dataset::D2, f4);
            assert_eq!(quarter.load.input_mb, full.load.input_mb * 0.25, "{w:?}");
            assert_eq!(quarter.cache_mb, full.cache_mb * 0.25, "{w:?}");
            assert_eq!(quarter.iterations, full.iterations, "{w:?}");
            assert_eq!(quarter.load.cpu_per_mb, full.load.cpu_per_mb, "{w:?}");
            // plan_at(FULL) is bit-identical to plan().
            assert_eq!(w.plan_at(Dataset::D2, Fidelity::FULL), full, "{w:?}");
        }
    }

    #[test]
    fn iterative_workloads_cache_noniterative_do_not() {
        assert!(Workload::PageRank.plan(Dataset::D1).cache_mb > 0.0);
        assert!(Workload::KMeans.plan(Dataset::D1).cache_mb > 0.0);
        assert_eq!(Workload::TeraSort.plan(Dataset::D1).cache_mb, 0.0);
    }

    #[test]
    fn narrow_vs_broad_optimum_encoding() {
        // §5.2: PR/CC/LR benefit from exploitation (narrow optima); KM/TS
        // have large high-performing regions.
        let narrow = [Workload::PageRank, Workload::ConnectedComponents, Workload::LogisticRegression];
        let broad = [Workload::KMeans, Workload::TeraSort];
        let min_narrow = narrow
            .iter()
            .map(|w| w.plan(Dataset::D1).balance_sensitivity)
            .fold(f64::INFINITY, f64::min);
        let max_broad = broad
            .iter()
            .map(|w| w.plan(Dataset::D1).balance_sensitivity)
            .fold(0.0, f64::max);
        assert!(min_narrow > max_broad);
    }

    #[test]
    fn short_names_match_paper() {
        let names: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.short_name()).collect();
        assert_eq!(names, vec!["PR", "KM", "CC", "LR", "TS"]);
    }

    #[test]
    fn terasort_shuffles_its_whole_input() {
        let p = Workload::TeraSort.plan(Dataset::D2);
        assert_eq!(p.load.shuffle_out_mb, p.load.input_mb);
        let finish = p.finish.as_ref().unwrap();
        assert_eq!(finish.output_mb, p.load.input_mb);
        assert_eq!(finish.source, Source::Shuffle);
    }
}
