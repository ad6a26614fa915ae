//! Smoke-run every registered experiment in quick mode and validate the
//! structure of its output: tables exist, rows are populated, and the
//! numeric cells parse as finite percentages. Also exercises the resume
//! layer end to end: a warm rerun of the three-C sweep must simulate
//! nothing and render byte-identical tables.

use gskew::results::store::ResultsStore;
use gskew::sim::experiments::{self, ExperimentOpts, ALL_IDS};
use gskew::sim::{resume, timing};
use std::sync::Mutex;

/// The resume context is process-global, so the test that attaches a
/// results store must not overlap with any other experiment run in this
/// binary — every test serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_opts() -> ExperimentOpts {
    ExperimentOpts {
        len_override: Some(8_000),
        quick: true,
        ..ExperimentOpts::default()
    }
}

#[test]
fn every_experiment_runs_and_renders() {
    let _guard = lock();
    let opts = tiny_opts();
    for &id in ALL_IDS {
        let output =
            experiments::run(id, &opts).unwrap_or_else(|| panic!("experiment {id} missing"));
        assert_eq!(output.id, id);
        assert!(!output.tables.is_empty(), "{id}: no tables");
        for table in &output.tables {
            assert!(
                !table.rows().is_empty(),
                "{id}: empty table {}",
                table.title()
            );
            assert!(table.columns().len() >= 2, "{id}: degenerate table");
        }
        let rendered = output.render();
        assert!(rendered.contains(id), "{id}: render lacks id header");
    }
}

#[test]
fn numeric_cells_are_finite_percentages() {
    let _guard = lock();
    let opts = tiny_opts();
    // The benchmark-sweep experiments: every non-label cell must be a
    // finite number in [0, 100].
    for id in ["fig5", "fig7", "fig8", "fig12", "ablation-update"] {
        let output = experiments::run(id, &opts).unwrap();
        for table in &output.tables {
            for row in table.rows() {
                for cell in &row[1..] {
                    let v: f64 = cell
                        .parse()
                        .unwrap_or_else(|_| panic!("{id}: non-numeric cell `{cell}`"));
                    assert!(
                        v.is_finite() && (0.0..=100.0).contains(&v),
                        "{id}: out-of-range cell {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn csv_rendering_is_parseable() {
    let _guard = lock();
    let output = experiments::run("table1", &tiny_opts()).unwrap();
    let csv = output.tables[0].to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 7, "header + six benchmarks");
    let header_fields = lines[0].split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), header_fields, "ragged CSV: {line}");
    }
}

#[test]
fn experiment_output_is_deterministic() {
    let _guard = lock();
    let opts = tiny_opts();
    let a = experiments::run("fig3", &opts).unwrap().render();
    let b = experiments::run("fig3", &opts).unwrap().render();
    assert_eq!(a, b);
    let a = experiments::run("table2", &opts).unwrap().render();
    // Detaching (no store is attached here) empties the cell memo, so the
    // second run simulates table2's cells again instead of reusing them.
    resume::deconfigure();
    let before = applications();
    let b = experiments::run("table2", &opts).unwrap().render();
    assert!(
        applications() > before,
        "second table2 run simulated nothing"
    );
    assert_eq!(a, b);
}

/// Record applications over both engine paths so far.
fn applications() -> u64 {
    let t = timing::stats();
    t.kernel_applications + t.dyn_applications
}

#[test]
fn three_c_resumes_with_zero_simulations_and_identical_tables() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("gskew-3c-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = tiny_opts();

    // Cold run: everything simulates and every cell lands in the store.
    resume::configure(
        ResultsStore::open(dir.to_str().unwrap()).unwrap(),
        true,
        true,
    );
    let before = resume::stats();
    let cold = experiments::run("three-c", &opts).unwrap().render();
    let after_cold = resume::stats();
    resume::deconfigure();
    let cold_simulated = after_cold.cells_simulated - before.cells_simulated;
    assert!(cold_simulated > 0, "cold run simulated nothing");
    assert!(
        after_cold.records_saved > before.records_saved,
        "cold run saved nothing"
    );

    // Warm run against the same store: every cell must be served from
    // disk — zero simulations — and the rendered tables must be
    // byte-identical to the cold run's.
    resume::configure(
        ResultsStore::open(dir.to_str().unwrap()).unwrap(),
        true,
        true,
    );
    let warm = experiments::run("three-c", &opts).unwrap().render();
    let after_warm = resume::stats();
    resume::deconfigure();
    assert_eq!(
        after_warm.cells_simulated, after_cold.cells_simulated,
        "warm three-C run re-simulated cells"
    );
    assert!(
        after_warm.cells_skipped > after_cold.cells_skipped,
        "warm run served nothing from the store"
    );
    assert_eq!(cold, warm, "warm render differs from cold render");

    let _ = std::fs::remove_dir_all(&dir);
}
