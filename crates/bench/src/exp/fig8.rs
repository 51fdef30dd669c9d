//! Figure 8: sampling behaviour of each tuner in the cores-vs-memory
//! plane for a PR-D3 session. The paper's visual finding — ROBOTune
//! clusters samples in a promising region while still probing elsewhere;
//! the baselines scatter without a pattern — is quantified here as the
//! fraction of evaluations falling inside a neighbourhood of the
//! session's own best region (the median of its fastest runs), and the
//! raw scatter is exported as CSV.

use robotune_space::spark::names;
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, Workload};

use crate::exp::grid::GridResults;
use crate::report::{fatal, markdown_table};

/// How many of a session's fastest completed runs locate its centre.
const CENTRE_RUNS: usize = 5;

/// Scatter rows: `(cores, memory_gb, time_s, completed)` per evaluation.
pub fn scatter(grid: &GridResults, tuner: &str) -> Vec<(i64, f64, f64, bool)> {
    let space = spark_space();
    let cores_idx = space
        .index_of(names::EXECUTOR_CORES)
        .unwrap_or_else(|| fatal("spark space is missing executor.cores"));
    let mem_idx = space
        .index_of(names::EXECUTOR_MEMORY)
        .unwrap_or_else(|| fatal("spark space is missing executor.memory"));
    grid.cell(tuner, Workload::PageRank, Dataset::D3)
        .first()
        .map(|r| {
            r.session
                .records
                .iter()
                .map(|rec| {
                    (
                        rec.config.get(cores_idx).as_int(),
                        rec.config.get(mem_idx).as_int() as f64 / 1024.0,
                        rec.eval.time_s,
                        rec.eval.completed,
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Renders the concentration summary and returns per-tuner CSV bodies.
pub fn render(grid: &GridResults) -> (String, Vec<(String, String)>) {
    let tuners = ["ROBOTune", "BestConfig", "Gunther", "RS"];
    let mut rows = Vec::new();
    let mut csvs = Vec::new();
    for t in tuners {
        let pts = scatter(grid, t);
        if pts.is_empty() {
            continue;
        }
        // Centre: the component-wise log₂ median of the session's five
        // fastest completed runs, so a near-tie for the single best run
        // cannot move it across the plane.
        let mut fastest: Vec<_> = pts.iter().filter(|p| p.3).collect();
        fastest.sort_by(|a, b| a.2.total_cmp(&b.2));
        fastest.truncate(CENTRE_RUNS);
        let centre = (!fastest.is_empty()).then(|| {
            let cores: Vec<f64> = fastest.iter().map(|p| (p.0 as f64).log2()).collect();
            let memory: Vec<f64> = fastest.iter().map(|p| p.1.log2()).collect();
            (
                robotune_stats::median(&cores),
                robotune_stats::median(&memory),
            )
        });
        let (concentration, median_dist) = centre
            .map(|(lc, lm)| {
                let dists: Vec<f64> = pts
                    .iter()
                    .map(|(c, m, _, _)| {
                        // log₂ distance in the (cores, memory) plane.
                        let dc = (*c as f64).log2() - lc;
                        let dm = m.log2() - lm;
                        (dc * dc + dm * dm).sqrt()
                    })
                    .collect();
                let near = dists.iter().filter(|&&d| d <= 0.75).count();
                (
                    near as f64 / pts.len() as f64,
                    robotune_stats::median(&dists),
                )
            })
            .unwrap_or((0.0, f64::NAN));
        rows.push(vec![
            t.to_string(),
            format!("{:.0}%", concentration * 100.0),
            format!("{median_dist:.2}"),
            format!("{}", pts.len()),
        ]);
        let mut csv = String::from("cores,memory_gb,time_s,completed\n");
        for (c, m, time, ok) in &pts {
            csv.push_str(&format!("{c},{m:.1},{time:.1},{ok}\n"));
        }
        csvs.push((format!("fig8_{}", t.to_lowercase()), csv));
    }
    let mut md = String::from(
        "## Figure 8 — sampling behaviour in the cores-vs-memory plane (PR-D3)\n\n\
         Concentration = fraction of a session's samples within a 0.75-\n\
         octave radius of its centre in the log₂ (cores, memory) plane.\n\
         The centre is the component-wise log₂ median of the session's\n\
         5 fastest completed runs, so a near-tie for the best run cannot\n\
         move it. Paper: ROBOTune exploits a region while the others\n\
         scatter without a discernible pattern.\n\n",
    );
    md.push_str(&markdown_table(
        &[
            "tuner",
            "concentration",
            "median log₂ dist to centre",
            "samples",
        ],
        &rows,
    ));
    md.push_str("\nScatter data: results/fig8_<tuner>.csv\n");
    (md, csvs)
}
