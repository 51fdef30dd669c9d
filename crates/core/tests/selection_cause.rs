//! Why the Fig. 7 recall at 100 samples falls short of the paper's 1.0.
//!
//! Fig. 7 scores a selection from n generic samples against the selection
//! from 200. The gap at n = 100 is not forest jitter: a 100-row selection
//! is nearly always a *subset* of the same data's 200-row selection, and
//! a smaller one. With fewer rows the forest explains less of the
//! variance, so the weaker groups' OOB-R² drops fall under the fixed
//! absolute 0.05 threshold. This file pins that cause on sparksim sample
//! sets: for each of PR/KM/CC/LR/TS, a sample set of 200 LHS runs is
//! selected from in full and from its first 100 rows, under the default
//! selector options (one forest, 10 permutation repeats, 0.05).
//!
//! Release runs 8 sample sets per workload; debug builds run one. The
//! tolerances come from the same construction at 40 sets per workload
//! (200 sets, release):
//! - 24 of the 200 first-100-row selections (12%) held a parameter
//!   outside their set's 200-row selection: 22 held one or two
//!   parameters, and two (TS) held the 4-member Kryo serializer group.
//!   So a set may hold at most 4 outside, and at most a quarter of the
//!   sets may hold any. The 8-set corpus reads 4 of 40.
//! - The 100-row selections averaged 3.60 parameters against 4.02 for the
//!   200-row ones, and no workload's average was larger (closest: KM,
//!   3.40 against 3.48). Across the corpus the 100-row average must not
//!   exceed the 200-row one.

use robotune::select::{ParameterSelector, SelectorOptions};
use robotune_space::spark::spark_space;
use robotune_sparksim::{Dataset, SparkJob, ALL_WORKLOADS};
use robotune_stats::rng_from_seed;

/// Most parameters a first-100-row selection may hold outside its set's
/// 200-row selection.
const MAX_OUTSIDE: usize = 4;

#[test]
fn hundred_sample_selections_are_smaller_subsets_of_the_two_hundred_sample_ones() {
    let sets: u64 = if cfg!(debug_assertions) { 1 } else { 8 };
    let space = spark_space();
    let selector = ParameterSelector::new(SelectorOptions {
        generic_samples: 200,
        ..SelectorOptions::default()
    });
    let (mut half_total, mut full_total, mut with_outside, mut count) = (0, 0, 0, 0);
    for w in ALL_WORKLOADS {
        for set in 0..sets {
            let seed = 0x5E1 + 100 * w as u64 + set;
            let mut job = SparkJob::new(space.clone(), w, Dataset::D1, seed);
            let mut rng = rng_from_seed(seed ^ 0xCA05E);
            let (x, y, _) = selector.collect_samples(&space, &mut job, &mut rng);
            let full = selector.select_from_data(&space, &x, &y, &mut rng).selected;
            let half = selector
                .select_from_data(&space, &x[..100], &y[..100], &mut rng)
                .selected;
            let outside: Vec<&str> = half
                .iter()
                .filter(|p| !full.contains(p))
                .map(|&p| space.params()[p].name.as_str())
                .collect();
            println!(
                "{} set {set}: |200| = {}, |100| = {}, outside = {outside:?}",
                w.short_name(),
                full.len(),
                half.len()
            );
            assert!(
                outside.len() <= MAX_OUTSIDE,
                "{} set {set}: the 100-row selection holds {outside:?} outside the 200-row one",
                w.short_name()
            );
            half_total += half.len();
            full_total += full.len();
            with_outside += usize::from(!outside.is_empty());
            count += 1;
        }
    }
    println!(
        "{count} sets: mean |100| = {:.2}, mean |200| = {:.2}, {with_outside} hold a parameter outside",
        half_total as f64 / count as f64,
        full_total as f64 / count as f64
    );
    assert!(
        4 * with_outside <= count,
        "{with_outside} of {count} sets hold a parameter outside the 200-row selection"
    );
    assert!(
        half_total <= full_total,
        "100-row selections average {:.2} parameters, 200-row ones {:.2}",
        half_total as f64 / count as f64,
        full_total as f64 / count as f64
    );
}
