//! Criterion micro-benchmarks for the building blocks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use robotune_gp::{GpModel, Matern52};
use robotune_ml::{ForestParams, RandomForest, Regressor};
use robotune_sampling::{lhs, lhs_maximin};
use robotune_space::spark::spark_space;
use robotune_space::SearchSpace;
use robotune_sparksim::{simulate, Cluster, Dataset, SparkParams, Workload};
use robotune_stats::rng_from_seed;

fn bench_lhs(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.bench_function("lhs_100x44", |b| {
        let mut rng = rng_from_seed(1);
        b.iter(|| lhs(100, 44, &mut rng));
    });
    g.bench_function("lhs_maximin_100x44", |b| {
        let mut rng = rng_from_seed(2);
        b.iter(|| lhs_maximin(100, 44, &mut rng, 16));
    });
    g.finish();
}

fn synthetic_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    use rand::Rng;
    let mut rng = rng_from_seed(3);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..44).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 10.0 + (r[1] * 7.0).sin()).collect();
    (x, y)
}

fn bench_forest(c: &mut Criterion) {
    let (x, y) = synthetic_data(100);
    let mut g = c.benchmark_group("ml");
    g.bench_function("rf_fit_100x44_120trees", |b| {
        b.iter_batched(
            || rng_from_seed(4),
            |mut rng| {
                RandomForest::fit(
                    &x,
                    &y,
                    &ForestParams { n_trees: 120, ..ForestParams::default() },
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        );
    });
    let mut rng = rng_from_seed(5);
    let forest = RandomForest::fit(
        &x,
        &y,
        &ForestParams { n_trees: 120, ..ForestParams::default() },
        &mut rng,
    );
    g.bench_function("rf_oob_r2", |b| b.iter(|| forest.oob_r2(&x, &y)));
    g.bench_function("rf_predict_row", |b| b.iter(|| forest.predict_row(&x[0])));
    g.finish();
}

fn bench_gp(c: &mut Criterion) {
    let (x, y) = synthetic_data(100);
    let x8: Vec<Vec<f64>> = x.iter().map(|r| r[..8].to_vec()).collect();
    let mut g = c.benchmark_group("gp");
    g.bench_function("gp_fit_100x8", |b| {
        b.iter(|| GpModel::fit(x8.clone(), &y, Matern52::new(0.5, 1.0), 1e-4).unwrap());
    });
    let m = GpModel::fit(x8.clone(), &y, Matern52::new(0.5, 1.0), 1e-4).unwrap();
    g.bench_function("gp_predict", |b| b.iter(|| m.predict(&x8[0])));
    // The pointwise posterior the acquisition search calls most: 60
    // observations (mid-way through a budget-100 session) over 4 selected
    // dimensions, queried away from the training points.
    let (x60, y60) = synthetic_data(60);
    let x4: Vec<Vec<f64>> = x60.iter().map(|r| r[..4].to_vec()).collect();
    let m4 = GpModel::fit(x4, &y60, Matern52::new(0.5, 1.0), 1e-4).unwrap();
    let q = [0.31, 0.62, 0.17, 0.88];
    g.bench_function("gp_predict_60x4", |b| b.iter(|| m4.predict(&q)));
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let space = spark_space();
    let cluster = Cluster::noleland();
    let cfg = space.decode(&vec![0.5; 44]);
    let p = SparkParams::extract(&space, &cfg);
    let mut g = c.benchmark_group("sparksim");
    for w in [Workload::PageRank, Workload::KMeans, Workload::TeraSort] {
        g.bench_function(format!("simulate_{}", w.short_name()), |b| {
            b.iter(|| simulate(&cluster, &p, w, Dataset::D2));
        });
    }
    g.finish();
}

fn bench_linalg(c: &mut Criterion) {
    use robotune_linalg::{Cholesky, Matrix};
    let mut g = c.benchmark_group("linalg");
    // 60 is the kernel size mid-way through a budget-100 session.
    for n in [20usize, 60, 100] {
        let mut rng = rng_from_seed(7);
        use rand::Rng;
        let b = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>() - 0.5);
        let mut a = b.mat_mul(&b.transpose());
        a.add_diagonal(n as f64);
        g.bench_function(format!("cholesky_{n}x{n}"), |bch| {
            bch.iter(|| Cholesky::factor(&a).expect("SPD"));
        });
        let ch = Cholesky::factor(&a).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        g.bench_function(format!("chol_solve_{n}"), |bch| bch.iter(|| ch.solve(&rhs)));
        g.bench_function(format!("chol_solve_lower_{n}"), |bch| {
            bch.iter(|| ch.solve_lower(&rhs))
        });
    }
    g.finish();
}

fn bench_acquisitions(c: &mut Criterion) {
    use robotune_bo::{AcquisitionKind, Hedge};
    let mut g = c.benchmark_group("bo");
    g.bench_function("ei_score", |b| {
        b.iter(|| AcquisitionKind::Ei.score(120.0, 15.0, 100.0, 0.01, 1.96));
    });
    g.bench_function("pi_score", |b| {
        b.iter(|| AcquisitionKind::Pi.score(120.0, 15.0, 100.0, 0.01, 1.96));
    });
    g.bench_function("lcb_score", |b| {
        b.iter(|| AcquisitionKind::Lcb.score(120.0, 15.0, 100.0, 0.01, 1.96));
    });
    g.bench_function("hedge_choose_update", |b| {
        let mut hedge = Hedge::default();
        let mut rng = rng_from_seed(8);
        b.iter(|| {
            let k = hedge.choose(&mut rng);
            hedge.update([0.1, 0.2, 0.05]);
            k
        });
    });
    g.finish();
}

fn bench_bo_suggest(c: &mut Criterion) {
    use robotune_bo::{BoEngine, BoOptions};
    let mut g = c.benchmark_group("bo_loop");
    g.sample_size(10);
    for n_obs in [20usize, 60] {
        g.bench_function(format!("suggest_after_{n_obs}_obs_5d"), |b| {
            b.iter_batched(
                || {
                    let mut engine = BoEngine::new(5, BoOptions::default());
                    let mut rng = rng_from_seed(9);
                    use rand::Rng;
                    for _ in 0..n_obs {
                        let x: Vec<f64> = (0..5).map(|_| rng.gen::<f64>()).collect();
                        let y = x.iter().map(|v| (v - 0.4).powi(2)).sum::<f64>();
                        engine.observe(x, y).expect("finite bench observation");
                    }
                    (engine, rng)
                },
                |(mut engine, mut rng)| engine.suggest(&mut rng),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_importance(c: &mut Criterion) {
    use robotune_ml::grouped_permutation_importance;
    let (x, y) = synthetic_data(100);
    let mut rng = rng_from_seed(10);
    let forest = RandomForest::fit(
        &x,
        &y,
        &ForestParams { n_trees: 60, ..ForestParams::default() },
        &mut rng,
    );
    let groups: Vec<(String, Vec<usize>)> = (0..44).map(|i| (format!("f{i}"), vec![i])).collect();
    let mut g = c.benchmark_group("importance");
    g.sample_size(10);
    g.bench_function("grouped_mda_44groups_3repeats", |b| {
        b.iter(|| grouped_permutation_importance(&forest, &x, &y, &groups, 3, &mut rng));
    });
    g.bench_function("mdi_44features", |b| b.iter(|| forest.mdi_importances()));
    g.finish();
}

/// Parameter selection exactly as an unseen workload pays for it: default
/// `SelectorOptions` (one forest of 120 trees, 10 permutation repeats)
/// on 100 maximin-LHS KMeans samples over the full space, ranking its 34
/// covering groups.
fn bench_select(c: &mut Criterion) {
    use robotune::ParameterSelector;
    use robotune_sparksim::SparkJob;
    let space = spark_space();
    let selector = ParameterSelector::default();
    let mut job = SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, 1);
    let (x, y, _) = selector.collect_samples(&space, &mut job, &mut rng_from_seed(12));
    let mut g = c.benchmark_group("select");
    g.sample_size(10);
    g.bench_function("select_from_data_100x44", |b| {
        let mut rng = rng_from_seed(13);
        b.iter(|| selector.select_from_data(&space, &x, &y, &mut rng));
    });
    g.finish();
}

fn bench_space(c: &mut Criterion) {
    let space = spark_space();
    let point = vec![0.42; 44];
    let config = space.decode(&point);
    let mut g = c.benchmark_group("space");
    g.bench_function("decode_44", |b| b.iter(|| space.decode(&point)));
    g.bench_function("encode_44", |b| b.iter(|| space.encode(&config)));
    g.bench_function("params_extract", |b| {
        b.iter(|| SparkParams::extract(&space, &config))
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    use robotune_sparksim::SparkJob;
    use robotune_stats::rng_from_seed;
    use robotune_tuners::{RandomSearch, Tuner};
    let mut g = c.benchmark_group("tuning");
    g.sample_size(10);
    g.bench_function("random_search_50_evals", |b| {
        let space = spark_space();
        b.iter_batched(
            || {
                (
                    SparkJob::new(space.clone(), Workload::KMeans, Dataset::D1, 1),
                    rng_from_seed(2),
                )
            },
            |(mut job, mut rng)| RandomSearch::default().tune(&space, &mut job, 50, &mut rng),
            BatchSize::LargeInput,
        );
    });
    g.bench_function("robotune_fast_25_evals", |b| {
        let space = std::sync::Arc::new(spark_space());
        b.iter_batched(
            || {
                (
                    SparkJob::new((*space).clone(), Workload::KMeans, Dataset::D1, 3),
                    rng_from_seed(4),
                    robotune::RoboTune::new(robotune::RoboTuneOptions::fast()),
                )
            },
            |(mut job, mut rng, mut tuner)| {
                tuner.tune_workload(&space, "bench", &mut job, 25, &mut rng)
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lhs,
    bench_forest,
    bench_gp,
    bench_simulator,
    bench_linalg,
    bench_acquisitions,
    bench_bo_suggest,
    bench_importance,
    bench_select,
    bench_space,
    bench_end_to_end
);
criterion_main!(benches);
