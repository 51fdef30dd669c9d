//! GP hot-path micro-benchmark.
//!
//! Times a full `suggest` at n=100 (hyperfit plus nomination), the
//! hyperfit alone, the posterior over 256 queries batched vs one
//! `predict` call at a time, and the same 256 posteriors with their
//! gradients (what one value-and-gradient evaluation of the acquisition
//! search costs).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use robotune_bo::{BoEngine, BoOptions};
use robotune_gp::{fit_gp, GpModel, HyperFitOptions, Matern52};
use robotune_stats::rng_from_seed;

const DIM: usize = 5;
const N_OBS: usize = 100;

/// Engine pre-loaded with `N_OBS` observations of a smooth 5-d objective,
/// primed so the next `suggest` performs the full hyperfit + nomination.
fn seeded_engine(opts: BoOptions) -> (BoEngine, rand::rngs::StdRng) {
    let mut engine = BoEngine::new(DIM, opts);
    let mut rng = rng_from_seed(42);
    use rand::Rng;
    for _ in 0..N_OBS {
        let x: Vec<f64> = (0..DIM).map(|_| rng.gen::<f64>()).collect();
        let y = x.iter().map(|v| (v - 0.4).powi(2)).sum::<f64>();
        engine.observe(x, y).expect("finite bench observation");
    }
    (engine, rng)
}

fn bench_suggest(c: &mut Criterion) {
    let mut g = c.benchmark_group("gp_hotpath");
    g.sample_size(10);
    g.bench_function("suggest_n100", |b| {
        b.iter_batched(
            || seeded_engine(BoOptions::default()),
            |(mut engine, mut rng)| engine.suggest(&mut rng),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_hyperfit(c: &mut Criterion) {
    let (engine, _) = seeded_engine(BoOptions::default());
    let (xs, ys) = engine.observations();
    let xs: Vec<Vec<f64>> = xs.to_vec();
    let ys: Vec<f64> = ys.to_vec();
    let mut g = c.benchmark_group("gp_hotpath");
    g.sample_size(10);
    let opts = HyperFitOptions::default();
    g.bench_function("fit_gp_n100", |b| {
        b.iter_batched(
            || rng_from_seed(7),
            |mut rng| fit_gp(&xs, &ys, &opts, None, &mut rng).expect("bench fit"),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_predict_batch(c: &mut Criterion) {
    let (engine, mut rng) = seeded_engine(BoOptions::default());
    let (xs, ys) = engine.observations();
    let model = GpModel::fit(xs.to_vec(), ys, Matern52::new(0.5, 1.0), 1e-4).expect("bench fit");
    use rand::Rng;
    let queries: Vec<Vec<f64>> = (0..256)
        .map(|_| (0..DIM).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut g = c.benchmark_group("gp_hotpath");
    g.bench_function("predict_256_batched", |b| {
        b.iter(|| model.predict_batch(&queries));
    });
    g.bench_function("predict_256_pointwise", |b| {
        b.iter(|| queries.iter().map(|q| model.predict(q)).collect::<Vec<_>>());
    });
    g.bench_function("predict_grad_256", |b| {
        let (mut dmean, mut dvar) = (vec![0.0; DIM], vec![0.0; DIM]);
        b.iter(|| {
            for q in &queries {
                model.predict_grad(model.predict_at(q), &mut dmean, &mut dvar);
            }
            dvar[0]
        });
    });
    g.finish();
}

criterion_group!(benches, bench_suggest, bench_hyperfit, bench_predict_batch);
criterion_main!(benches);
