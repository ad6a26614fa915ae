//! Golden-output tests: the purely analytical experiments are exactly
//! deterministic, so their rendered rows are pinned verbatim. If a change
//! moves these, it changed the model — that must be deliberate.

use gskew::aliasing::batch::{self, ThreeCCell};
use gskew::core::index::IndexFunction;
use gskew::model::curves::destructive_aliasing_curve;
use gskew::model::prob::aliasing_probability;
use gskew::model::skew::{crossover_distance, p_dm, p_sk};
use gskew::sim::experiments::{self, ExperimentOpts};
use gskew::sim::kernel;
use gskew::trace::cache;
use gskew::trace::workload::IbsBenchmark;

#[test]
fn figure9_key_points_are_pinned() {
    // Known closed-form values at b = 1/2:
    // P_dm(p) = p/2; P_sk(p) = (3/4)p^2(1-p) + (1/2)p^3.
    let cases = [
        (0.1, 0.05, 0.00725),
        (0.2, 0.10, 0.02800),
        (0.5, 0.25, 0.15625),
        (1.0, 0.50, 0.50000),
    ];
    for (p, dm, sk) in cases {
        assert!((p_dm(p, 0.5) - dm).abs() < 1e-12, "P_dm({p})");
        assert!((p_sk(p, 0.5) - sk).abs() < 1e-12, "P_sk({p})");
    }
}

#[test]
fn crossover_table_is_pinned() {
    // D*/N = 0.105 at every table size (the paper's "approximately N/10").
    assert_eq!(crossover_distance(3 * 1024), 323);
    assert_eq!(crossover_distance(3 * 4096), 1291);
    assert_eq!(crossover_distance(3 * 16384), 5163);
    assert_eq!(crossover_distance(3 * 65536), 20650);
}

#[test]
fn aliasing_probability_known_values() {
    // 1 - (1 - 1/N)^D at hand-checkable points.
    assert!((aliasing_probability(1, 2) - 0.5).abs() < 1e-12);
    assert!((aliasing_probability(2, 2) - 0.75).abs() < 1e-12);
    assert!((aliasing_probability(1, 4) - 0.25).abs() < 1e-12);
}

#[test]
fn fig9_render_is_stable() {
    let out = experiments::run("fig9", &ExperimentOpts::quick()).expect("fig9 exists");
    let rendered = out.render();
    // Spot-pin header and two rows (full numeric table is checked above).
    assert!(
        rendered.contains("0.050  0.02500        0.00184"),
        "{rendered}"
    );
    assert!(
        rendered.contains("1.000  0.50000        0.50000"),
        "{rendered}"
    );
    assert!(
        rendered.contains("196608             20650        0.105"),
        "{rendered}"
    );
    // Byte-for-byte deterministic.
    let again = experiments::run("fig9", &ExperimentOpts::quick())
        .expect("fig9 exists")
        .render();
    assert_eq!(rendered, again);
}

#[test]
fn fig3_demo_is_pinned() {
    let out = experiments::run("fig3", &ExperimentOpts::quick()).expect("fig3 exists");
    let rendered = out.render();
    assert!(
        rendered.contains("(a=0011, h=0101)  (a=1100, h=1010)  (a=1011, h=1101)"),
        "gshare conflict group changed:\n{rendered}"
    );
    assert!(
        rendered.contains("(a=0011, h=0101)  (a=1011, h=0101)"),
        "gselect conflict group changed:\n{rendered}"
    );
}

#[test]
fn conflict_dominates_past_4k_entries() {
    // The paper's headline shape, pinned on the batched three-C engine at
    // the quick workload lengths: from 4K entries (n = 12) up, capacity
    // aliasing has all but vanished and what remains of the aliasing is
    // conflicts. Pin it two ways on the suite mean at a 4-bit history —
    // conflict strictly dominates capacity at every large size, and the
    // capacity component is monotone nonincreasing in table size (LRU
    // inclusion makes anything else a measurement bug).
    const SIZES_LOG2: std::ops::RangeInclusive<u32> = 12..=18;
    let cells: Vec<ThreeCCell> = SIZES_LOG2
        .map(|n| ThreeCCell {
            entries_log2: n,
            history_bits: 4,
            func: IndexFunction::Gshare,
        })
        .collect();
    let opts = ExperimentOpts::quick();
    let benches = IbsBenchmark::all();
    let mut mean_conflict = vec![0.0; cells.len()];
    let mut mean_capacity = vec![0.0; cells.len()];
    for &bench in benches.iter() {
        let columns = cache::columns(bench, opts.len_for(bench));
        let groups = batch::fa_groups(&cells);
        let (dm, fa) = kernel::run_three_c_units(&cells, &groups, &columns, 2);
        let dm: Vec<_> = dm.into_iter().map(|(counts, _)| counts).collect();
        let fa: Vec<_> = fa.into_iter().map(|(counts, _)| counts).collect();
        let counts = batch::assemble(&cells, &groups, &dm, &fa);
        let mut prev_capacity = f64::INFINITY;
        for (i, b) in counts.iter().map(|c| c.breakdown()).enumerate() {
            mean_conflict[i] += b.conflict / benches.len() as f64;
            mean_capacity[i] += b.capacity / benches.len() as f64;
            assert!(
                b.capacity <= prev_capacity,
                "{}: capacity grew with table size at n={}",
                bench.name(),
                12 + i
            );
            prev_capacity = b.capacity;
        }
    }
    for (i, (&conflict, &capacity)) in mean_conflict.iter().zip(&mean_capacity).enumerate() {
        assert!(
            conflict > capacity,
            "n={}: suite-mean conflict {conflict} <= capacity {capacity}",
            12 + i
        );
        assert!(conflict > 0.0, "n={}: conflict vanished entirely", 12 + i);
    }
}

#[test]
fn curve_series_matches_formulas_pointwise() {
    for point in destructive_aliasing_curve(1.0, 41) {
        assert!((point.direct_mapped - p_dm(point.p, 0.5)).abs() < 1e-12);
        assert!((point.skewed - p_sk(point.p, 0.5)).abs() < 1e-12);
    }
}
