//! Figure 9: the GP's perceived response surface over the cores-vs-memory
//! plane at different iterations of a PR-D3 tuning session.
//!
//! The paper shows the surrogate localising the high-performing (light)
//! region by iteration 25 and sharpening thereafter. We export the
//! posterior-mean grid at iterations 25/50/75/100 as CSV and report a
//! quantitative counterpart: the rank correlation between the posterior
//! mean and the true (noise-free) simulator time over the grid, which
//! should increase with iterations.

use robotune::engine::{RoboTuneEngine, RoboTuneEngineOptions};
use robotune::select::ParameterSelector;
use robotune::MemoizedSampler;
use robotune_space::spark::names;
use robotune_space::{SearchSpace, Subspace};
use robotune_sparksim::{Dataset, SparkJob, Workload};
use robotune_stats::rng_from_seed;

use crate::report::fatal;

/// Grid resolution per axis.
pub const RES: usize = 24;

/// Snapshot iterations (paper: 25, 50, 75, 100).
pub const SNAPSHOTS: [usize; 4] = [25, 50, 75, 100];

/// One snapshot's exported surface.
pub struct Surface {
    /// Iteration at which the snapshot was taken.
    pub iteration: usize,
    /// `RES × RES` posterior means, row-major (memory rows, cores cols).
    pub posterior: Vec<f64>,
    /// Matching noise-free simulator times.
    pub truth: Vec<f64>,
    /// Spearman rank correlation between the two.
    pub spearman: f64,
}

/// Runs the session and captures the snapshots.
pub fn run() -> (String, Vec<(String, String)>) {
    let space = crate::runner::space();
    let workload = Workload::PageRank;
    let dataset = Dataset::D3;
    let mut job = SparkJob::new((*space).clone(), workload, dataset, 0xF199);
    let mut rng = rng_from_seed(0x99);

    // Parameter selection (cold), then force cores/memory into the
    // subspace if the threshold happened to exclude them — the figure is
    // *about* that plane.
    let selector = ParameterSelector::default();
    let selection = selector.select(&space, &mut job, &mut rng);
    let mut selected = selection.selected.clone();
    for name in [names::EXECUTOR_CORES, names::EXECUTOR_MEMORY] {
        let idx = space
            .index_of(name)
            .unwrap_or_else(|| fatal(format!("spark space is missing {name}")));
        if !selected.contains(&idx) {
            selected.push(idx);
        }
    }
    selected.sort_unstable();
    let sub = space.subspace(&selected, space.default_configuration());

    let design = MemoizedSampler::default().initial_design(&sub, &[], &mut rng);

    let mut engine = RoboTuneEngine::new(sub.clone(), RoboTuneEngineOptions::default());
    for p in design.points {
        engine.evaluate_point(p, &mut job);
    }

    let mut surfaces = Vec::new();
    let mut iter = engine.session().len();
    for &snap in &SNAPSHOTS {
        while iter < snap {
            let p = engine.suggest(&mut rng);
            engine.evaluate_point(p, &mut job);
            iter += 1;
        }
        surfaces.push(snapshot(&mut engine, &sub, &job, snap, &mut rng));
    }

    let mut md = String::from(
        "## Figure 9 — GP response surface over cores × memory (PR-D3)\n\n\
         Spearman rank correlation between the GP posterior mean and the\n\
         true simulator time over a 24×24 grid; localisation of the\n\
         high-performing region should already be visible at iteration 25\n\
         and improve with more observations.\n\n",
    );
    let mut csvs = Vec::new();
    for s in &surfaces {
        md.push_str(&format!(
            "* iteration {:>3}: spearman(posterior, truth) = {:.2}\n",
            s.iteration, s.spearman
        ));
        let mut csv = String::from("row,col,posterior_s,truth_s\n");
        for r in 0..RES {
            for c in 0..RES {
                csv.push_str(&format!(
                    "{r},{c},{:.1},{:.1}\n",
                    s.posterior[r * RES + c],
                    s.truth[r * RES + c]
                ));
            }
        }
        csvs.push((format!("fig9_iter{}", s.iteration), csv));
    }
    md.push_str("\nSurface grids: results/fig9_iter<k>.csv\n");
    (md, csvs)
}

fn snapshot(
    engine: &mut RoboTuneEngine,
    sub: &Subspace,
    job: &SparkJob,
    iteration: usize,
    rng: &mut rand::rngs::StdRng,
) -> Surface {
    engine.refit(rng);
    // Axis positions of cores/memory inside the subspace vector.
    let space = sub.full_space();
    let cores_full = space
        .index_of(names::EXECUTOR_CORES)
        .unwrap_or_else(|| fatal("spark space is missing executor.cores"));
    let mem_full = space
        .index_of(names::EXECUTOR_MEMORY)
        .unwrap_or_else(|| fatal("spark space is missing executor.memory"));
    // run() forced both axes into the subspace before building `sub`.
    let ax = sub
        .selected()
        .iter()
        .position(|&i| i == cores_full)
        .unwrap_or_else(|| fatal("executor.cores missing from the fig9 subspace"));
    let ay = sub
        .selected()
        .iter()
        .position(|&i| i == mem_full)
        .unwrap_or_else(|| fatal("executor.memory missing from the fig9 subspace"));

    // Hold the other coordinates at the incumbent.
    let incumbent: Vec<f64> = engine
        .session()
        .best()
        .map(|r| r.point.clone())
        .unwrap_or_else(|| vec![0.5; sub.dim()]);

    let mut posterior = Vec::with_capacity(RES * RES);
    let mut truth = Vec::with_capacity(RES * RES);
    for r in 0..RES {
        for c in 0..RES {
            let mut p = incumbent.clone();
            p[ax] = (c as f64 + 0.5) / RES as f64;
            p[ay] = (r as f64 + 0.5) / RES as f64;
            let (mu, _) = engine
                .bo()
                .posterior(&p)
                .unwrap_or_else(|| fatal("fig9 snapshot taken before the model was refitted"));
            posterior.push(mu);
            // Truth uses the same penalty mapping the GP was trained on:
            // non-completions count as the 480 s cap, not their (short)
            // time-to-failure.
            let config = sub.decode(&p);
            let report = job.dry_run(&config);
            truth.push(match report.outcome {
                robotune_sparksim::Outcome::Completed(t) => t.min(480.0),
                _ => 480.0,
            });
        }
    }
    let spearman = spearman(&posterior, &truth);
    Surface {
        iteration,
        posterior,
        truth,
        spearman,
    }
}

/// Spearman rank correlation.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let ra = ranks(a);
    let rb = ranks(b);
    let n = a.len() as f64;
    let ma = (n + 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - ma) * (y - ma);
        da += (x - ma) * (x - ma);
        db += (y - ma) * (y - ma);
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
    let mut out = vec![0.0; xs.len()];
    for (rank, &i) in idx.iter().enumerate() {
        out[i] = rank as f64 + 1.0;
    }
    out
}
