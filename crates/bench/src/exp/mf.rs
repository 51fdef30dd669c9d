//! Multi-fidelity figure: evaluation cost to reach within 5% of the
//! single-fidelity ROBOTune optimum.
//!
//! Not a paper figure — ROBOTune itself is single-fidelity. This is the
//! headline experiment for the `robotune-mf` crate: on the same seeded
//! cluster (and, under `--faults`, the same fault schedule) run
//! single-fidelity ROBOTune, Random Search, pure Hyperband, and the
//! warm-started Hyperband+BO pipeline; take ROBOTune's best completed
//! time per cell as the target; and charge every tuner its *total*
//! simulated cost — partial-fidelity rungs included — until its first
//! full-fidelity run lands within 5% of that target. Lower is better;
//! a dash means the tuner never got there inside its budget.

use robotune_sparksim::{Dataset, FaultProfile, Workload};
use robotune_stats::median;
use serde_json::{json, Value};

use crate::report::markdown_table;
use crate::runner::{
    par_map, run_baseline_with_faults, run_mf_with_faults, run_robotune_sequence_with_faults,
    MfKind, SessionResult, TunerKind,
};

/// Relative slack on the target: "within 5%".
pub const WITHIN: f64 = 0.05;

/// Workloads the figure covers (the acceptance bar is ≥ 2 of them).
pub const WORKLOADS: [Workload; 3] = [Workload::PageRank, Workload::KMeans, Workload::TeraSort];

const DATASET: Dataset = Dataset::D2;

/// One tuner's aggregate over a workload's reps.
#[derive(Debug, Default, Clone)]
struct Agg {
    /// Reps whose session reached within 5% of the per-rep target.
    hits: usize,
    /// Reps measured (target existed).
    cells: usize,
    /// Cost-to-target of the hitting reps.
    costs: Vec<f64>,
    /// Best full-fidelity times (hit or not).
    bests: Vec<f64>,
    /// Total session search cost per rep.
    session_costs: Vec<f64>,
}

impl Agg {
    fn absorb(&mut self, target: f64, r: &SessionResult) {
        self.cells += 1;
        if let Some(c) = r.session.cost_to_within_of(target, WITHIN) {
            self.hits += 1;
            self.costs.push(c);
        }
        if let Some(b) = r.best_time {
            self.bests.push(b);
        }
        self.session_costs.push(r.search_cost);
    }

    fn median_cost(&self) -> Option<f64> {
        (!self.costs.is_empty()).then(|| median(&self.costs))
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("—".into(), |x| format!("{x:.0}"))
}

/// Runs the multi-fidelity comparison. Returns the markdown report plus
/// a machine-readable document with per-cell costs and the headline
/// verdict (`mf_wins_workloads`: workloads where Hyperband+BO reached
/// the 5% band in every rep at lower median cost than ROBOTune itself).
pub fn run(reps: usize, budget: usize, profile: FaultProfile) -> (String, Value) {
    enum Item {
        Robo(Workload, usize),
        Rs(Workload, usize),
        Mf(MfKind, Workload, usize),
    }
    let mut items = Vec::new();
    for &w in &WORKLOADS {
        for rep in 0..reps {
            items.push(Item::Robo(w, rep));
            items.push(Item::Rs(w, rep));
            items.push(Item::Mf(MfKind::Hyperband, w, rep));
            items.push(Item::Mf(MfKind::HyperbandBo, w, rep));
        }
    }
    let results: Vec<SessionResult> = par_map(items, |item| match item {
        Item::Robo(w, rep) => run_robotune_sequence_with_faults(
            w,
            &[DATASET],
            budget,
            rep,
            robotune::RoboTuneOptions::fast(),
            profile,
        )
        .into_iter()
        .next()
        .unwrap_or_else(|| unreachable!("sequence over one dataset yields one session")),
        Item::Rs(w, rep) => run_baseline_with_faults(TunerKind::RandomSearch, w, DATASET, budget, rep, profile),
        Item::Mf(kind, w, rep) => run_mf_with_faults(kind, w, DATASET, budget, rep, profile).0,
    });

    let tuners = ["ROBOTune", "RS", "Hyperband", "Hyperband+BO"];
    let mut out = format!(
        "## Multi-fidelity tuning — cost to within {:.0}% of the ROBOTune optimum\n\n\
         Dataset {DATASET:?}, budget {budget} evaluations, {reps} rep(s), faults: {profile}. \
         Cost charges *all* burned simulated time, partial-fidelity rungs included.\n",
        WITHIN * 100.0
    );
    let mut json_workloads: Vec<Value> = Vec::new();
    let mut wins = 0usize;
    let mut win_names: Vec<&str> = Vec::new();

    for &w in &WORKLOADS {
        // Per-rep target: ROBOTune's best completed full-fidelity time.
        let mut aggs = vec![Agg::default(); tuners.len()];
        let mut cells: Vec<Value> = Vec::new();
        for rep in 0..reps {
            let of = |tuner: &str| {
                results
                    .iter()
                    .find(|r| r.workload == w && r.rep == rep && r.tuner == tuner)
            };
            let Some(robo) = of("ROBOTune") else { continue };
            let Some(target) = robo.best_time else { continue };
            let mut cell = json!({ "rep": rep, "target_s": target });
            for (i, t) in tuners.iter().enumerate() {
                if let Some(r) = of(t) {
                    aggs[i].absorb(target, r);
                    if let Value::Object(m) = &mut cell {
                        m.insert(
                            (*t).to_string(),
                            json!({
                                "cost_to_target_s": r.session.cost_to_within_of(target, WITHIN),
                                "best_s": r.best_time,
                                "session_cost_s": r.search_cost,
                            }),
                        );
                    }
                }
            }
            cells.push(cell);
        }

        out.push_str(&format!("\n### {}\n\n", w.short_name()));
        let rows: Vec<Vec<String>> = tuners
            .iter()
            .zip(&aggs)
            .map(|(t, a)| {
                vec![
                    (*t).to_string(),
                    format!("{}/{}", a.hits, a.cells),
                    fmt_opt(a.median_cost()),
                    fmt_opt((!a.bests.is_empty()).then(|| median(&a.bests))),
                    fmt_opt((!a.session_costs.is_empty()).then(|| median(&a.session_costs))),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &["tuner", "reached 5%", "median cost-to-5% (s)", "median best (s)", "median session cost (s)"],
            &rows,
        ));

        let (robo, hbbo) = (&aggs[0], &aggs[3]);
        let win = hbbo.cells > 0
            && hbbo.hits == hbbo.cells
            && match (hbbo.median_cost(), robo.median_cost()) {
                (Some(h), Some(r)) => h < r,
                _ => false,
            };
        if win {
            wins += 1;
            win_names.push(w.short_name());
        }
        if hbbo.cells == 0 {
            out.push_str(
                "\nNo measurable cells: ROBOTune completed no full-fidelity run, \
                 so there is no target to chase.\n",
            );
        } else {
            out.push_str(&format!(
                "\nHyperband+BO reached the 5% band in {}/{} rep(s){}.\n",
                hbbo.hits,
                hbbo.cells,
                match (hbbo.median_cost(), robo.median_cost()) {
                    (Some(h), Some(r)) => format!(
                        " at {:.1}x ROBOTune's cost-to-target ({h:.0} s vs {r:.0} s)",
                        h / r.max(1e-9)
                    ),
                    _ => String::new(),
                },
            ));
        }

        json_workloads.push(json!({
            "workload": w.short_name(),
            "cells": cells,
            "hyperband_bo_wins": win,
        }));
    }

    out.push_str(&format!(
        "\n**Headline:** Hyperband+BO reaches within {:.0}% of the single-fidelity ROBOTune \
         optimum at lower total cost on {wins}/{} workloads{}.\n",
        WITHIN * 100.0,
        WORKLOADS.len(),
        if win_names.is_empty() { String::new() } else { format!(" ({})", win_names.join(", ")) },
    ));

    let json = json!({
        "experiment": "mf",
        "within": WITHIN,
        "dataset": format!("{DATASET:?}"),
        "budget": budget as u64,
        "reps": reps as u64,
        "faults": profile.to_string(),
        "workloads": json_workloads,
        "mf_wins_workloads": wins as u64,
    });
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_mf_figure_reports_every_tuner() {
        let (md, json) = run(1, 24, FaultProfile::None);
        assert!(md.contains("Hyperband+BO"));
        assert!(md.contains("ROBOTune"));
        assert!(md.contains("Headline:"));
        let workloads = json["workloads"].as_array().expect("workloads array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for w in workloads {
            assert!(!w["cells"].as_array().expect("cells").is_empty());
        }
        assert!(json["mf_wins_workloads"].as_u64().is_some());
    }
}
