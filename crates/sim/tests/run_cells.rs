//! One `run_cells` call over several workloads.
//!
//! The units a call misses, across all its workloads, run as one job
//! list. Each workload must get exactly the results of a call over that
//! workload alone, under any thread count, and with a store attached
//! every cell a call produces counts once as skipped, reused or
//! simulated.
//!
//! The resume context is process-global, so this runs as ONE `#[test]`
//! in its own integration-test binary.

use bpred_aliasing::batch::ThreeCCell;
use bpred_core::index::IndexFunction;
use bpred_results::store::ResultsStore;
use bpred_sim::engine::NovelPolicy;
use bpred_sim::resume::{self, Unit, Workload};
use bpred_trace::workload::IbsBenchmark::{Groff, Gs, Verilog};

#[test]
fn one_call_over_several_workloads_equals_the_per_workload_calls() {
    // A table kernel, a DM pass, an LRU walk's two rows, a two-capacity
    // FA pass, a set walk and a gskew kernel: eight cells per workload.
    let spec = |s: &str| Unit::Spec(s.to_string());
    let dm = ThreeCCell {
        entries_log2: 7,
        history_bits: 4,
        func: IndexFunction::Gshare,
    };
    let fa = Unit::Fa {
        history_bits: 4,
        capacities: vec![64, 256],
    };
    let mut units = vec![
        spec("gshare:n=8,h=4"),
        Unit::Dm(dm),
        spec("falru:cap=64,h=4"),
        fa,
        spec("ideal:h=4"),
        spec("setassoc:n=5,ways=2,h=4"),
        spec("gskew:n=7,h=4"),
    ];
    const CELLS: u64 = 8;
    // Lengths no other test uses, and groff at two of them.
    let workloads: [Workload; 4] = [
        (Groff, 6_101),
        (Gs, 5_101),
        (Verilog, 4_101),
        (Groff, 3_101),
    ];
    let policy = NovelPolicy::Count;

    // Detaching empties the cell memo, so each call simulates.
    let alone: Vec<_> = workloads
        .iter()
        .map(|&workload| {
            resume::deconfigure();
            resume::run_cells(&[workload], policy, &units, 1).remove(0)
        })
        .collect();
    assert_eq!(alone[0].iter().map(Vec::len).sum::<usize>(), CELLS as usize);
    for threads in [1, 3] {
        resume::deconfigure();
        let together = resume::run_cells(&workloads, policy, &units, threads);
        assert_eq!(together, alone, "threads {threads}");
    }

    // With a store: the first two workloads are stored, and a second
    // spelling of the gskew cell is in the memo only.
    let root = std::env::temp_dir().join(format!("bpred-sim-run-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    resume::run_cells(&workloads[..2], policy, &units, 3);
    let cold = resume::stats();
    assert_eq!(
        (cold.cells_simulated, cold.records_saved),
        (2 * CELLS, 2 * CELLS)
    );

    units.push(spec("gskew:n=7,h=4,banks=3"));
    let warm = resume::run_cells(&workloads, policy, &units, 3);
    let after = resume::stats();
    let produced = warm.iter().flatten().map(Vec::len).sum::<usize>() as u64;
    let skipped = after.cells_skipped - cold.cells_skipped;
    let reused = after.cells_reused - cold.cells_reused;
    let simulated = after.cells_simulated - cold.cells_simulated;
    assert_eq!(skipped + reused + simulated, produced);
    assert_eq!(skipped, 2 * CELLS, "the stored workloads' cells");
    assert_eq!(reused, 4, "the respelled cell of every workload");
    assert_eq!(
        simulated,
        2 * CELLS,
        "the unstored workloads' distinct cells"
    );
    for (warm, alone) in warm.iter().zip(&alone) {
        assert_eq!(warm[..alone.len()], alone[..]);
        assert_eq!(warm.last(), alone.last(), "one gskew cell");
    }
    resume::deconfigure();
    let _ = std::fs::remove_dir_all(&root);
}
