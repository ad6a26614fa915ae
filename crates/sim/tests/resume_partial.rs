//! A store missing one capacity of a fully-associative (FA) group.
//!
//! One FA pass serves every capacity of a three-C grid's history length,
//! and each capacity is stored as its own cell. When a single capacity is
//! missing, the whole pass must re-run, and its other capacities must not
//! also be counted as served: every cell is either skipped or simulated,
//! never both.
//!
//! The resume context is process-global, so this runs as ONE `#[test]`
//! in its own integration-test binary.

use bpred_results::store::ResultsStore;
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bpred-sim-resume-partial-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_partial_fa_group_is_simulated_whole_and_counted_once() {
    let (cold_root, partial_root) = (temp_store("cold"), temp_store("partial"));
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(8_000);

    // Cold run into store A: every cell simulated and saved.
    resume::configure(ResultsStore::open(&cold_root).unwrap(), true, true);
    let cold = experiments::run("three-c", &opts).unwrap().render();
    let after_cold = resume::stats();
    let cold_store = resume::deconfigure().unwrap();
    // 6 benchmarks x (26 direct-mapped cells + 13 FA capacities).
    assert_eq!(after_cold.records_saved, 234);
    assert_eq!(after_cold.cells_simulated, 234);
    assert_eq!(after_cold.cells_skipped, 0);

    // Store B: every record but one capacity of groff's FA group.
    let dropped = |r: &bpred_results::record::ResultRecord| {
        r.key.bench == "groff" && r.key.spec == "3c-fa:n=18,h=8"
    };
    let records = cold_store.records();
    assert_eq!(records.iter().filter(|r| dropped(r)).count(), 1);
    let mut partial = ResultsStore::open(&partial_root).unwrap();
    for record in records.iter().filter(|r| !dropped(r)) {
        partial.put(record).unwrap();
    }
    drop(partial);

    // Warm run on B: groff's 13-capacity FA pass re-runs; the other 221
    // cells are served.
    resume::configure(ResultsStore::open(&partial_root).unwrap(), true, true);
    let warm = experiments::run("three-c", &opts).unwrap().render();
    let after_warm = resume::stats();
    resume::deconfigure().unwrap();
    assert_eq!(warm, cold, "resumed tables are byte-identical");
    let simulated = after_warm.cells_simulated - after_cold.cells_simulated;
    let skipped = after_warm.cells_skipped - after_cold.cells_skipped;
    assert_eq!(simulated, 13, "the whole FA group re-runs");
    assert_eq!(skipped, 221, "only whole units are served");
    assert_eq!(skipped + simulated, after_cold.records_saved);

    let _ = std::fs::remove_dir_all(&cold_root);
    let _ = std::fs::remove_dir_all(&partial_root);
}
