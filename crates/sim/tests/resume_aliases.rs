//! The in-process cell memo against a results store.
//!
//! fig8's partial-update rows are fig5's 3-bank gskew cells under other
//! spellings (`…,update=partial`). A cold fig5+fig8 run simulates each
//! such cell once and reuses it for fig8; the store must still receive
//! fig8's spellings, so a warm fig8 resumes without simulating anything.
//! Without a store the memo still serves repeats.
//!
//! The resume context is process-global, so this runs as ONE `#[test]`
//! in its own integration-test binary.

use bpred_results::store::ResultsStore;
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::{resume, timing};
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bpred-sim-resume-aliases-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reused_alias_cells_are_saved_and_resume_without_simulating() {
    let root = temp_store("fig5-fig8");
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(20_000);

    // Cold fig5+fig8: fig8 reuses fig5's cells, and every spelling of
    // every produced cell is saved.
    resume::configure(ResultsStore::open(&root).unwrap(), false, true);
    experiments::run("fig5", &opts).unwrap();
    let after_fig5 = resume::stats();
    let cold_fig8 = experiments::run("fig8", &opts).unwrap().render();
    let after_cold = resume::stats();
    let cold_store = resume::deconfigure().unwrap();
    assert_eq!(after_cold.cells_skipped, 0, "resume is off");
    let fig8_cells = after_cold.cells_reused + after_cold.cells_simulated
        - after_fig5.cells_reused
        - after_fig5.cells_simulated;
    assert!(
        after_cold.cells_reused > after_fig5.cells_reused,
        "fig8 reuses fig5's cells"
    );
    assert!(
        after_cold.records_saved > after_cold.cells_simulated,
        "reused alias spellings are saved too"
    );
    assert_eq!(after_cold.records_saved, cold_store.len() as u64);

    // Warm fig8 in a fresh context: every cell comes from the store or,
    // for a repeat within fig8, from the memo.
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    let warm_fig8 = experiments::run("fig8", &opts).unwrap().render();
    let after_warm = resume::stats();
    resume::deconfigure().unwrap();
    assert_eq!(
        after_warm.cells_simulated, after_cold.cells_simulated,
        "warm fig8 simulates 0 cells"
    );
    assert_eq!(
        after_warm.records_saved, after_cold.records_saved,
        "nothing is missing from the store"
    );
    let served = after_warm.cells_skipped + after_warm.cells_reused
        - after_cold.cells_skipped
        - after_cold.cells_reused;
    assert_eq!(served, fig8_cells, "every cell counts once");
    assert_eq!(warm_fig8, cold_fig8, "resumed table is byte-identical");

    // Detached: the first fig8 simulates into a fresh memo, the second is
    // served whole from it, and the store counters stand still.
    let idle = resume::stats();
    let detached = experiments::run("fig8", &opts).unwrap().render();
    let applications = || {
        let t = timing::stats();
        t.kernel_applications + t.dyn_applications
    };
    let before = applications();
    let again = experiments::run("fig8", &opts).unwrap().render();
    assert_eq!(applications(), before, "a detached repeat is reused");
    assert_eq!(again, detached);
    assert_eq!(detached, cold_fig8);
    assert_eq!(resume::stats(), idle, "detached runs bypass the counters");

    let _ = std::fs::remove_dir_all(&root);
}
