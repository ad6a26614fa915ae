//! Acceptance pins for campaign artifacts and regression diffing
//! (ISSUE 2). Lives in its own integration-test binary so the
//! process-global resume context exercised by `tests/resume.rs` can
//! never leak into these runs.

use bpred_results::campaign::{diff, CampaignArtifact};
use bpred_sim::campaign;
use bpred_sim::experiments::ExperimentOpts;
use bpred_sim::{resume, timing};
use std::sync::Mutex;

/// Both tests run the same campaign, and the cell memo is process-wide:
/// they serialize on this lock so that one cannot fill the memo the
/// other's second run must simulate past.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Record applications over both engine paths so far.
fn applications() -> u64 {
    let t = timing::stats();
    t.kernel_applications + t.dyn_applications
}

#[test]
fn campaign_artifact_roundtrips_and_diffs_clean() {
    let _guard = lock();
    // No store attached: the campaign itself must not require one.
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(10_000);
    let quick = campaign::find("quick").unwrap();
    let a = campaign::run(quick, &opts);
    assert_eq!(a.name, "quick");
    assert_eq!(a.experiments.len(), quick.experiments.len());
    assert!(a.experiments.iter().all(|e| !e.tables.is_empty()));

    // Artifact -> pretty JSON -> artifact is lossless, and identical
    // artifacts diff clean at zero tolerance.
    let reparsed = CampaignArtifact::parse(&a.to_pretty_string()).unwrap();
    assert_eq!(reparsed, a);
    let d = diff(&a, &reparsed, 0.0);
    assert!(d.is_clean());
    assert!(d.cells_compared > 0);

    // A perturbed numeric cell beyond tolerance is reported per cell.
    let mut perturbed = a.clone();
    let cell = perturbed.experiments[0].tables[0]
        .rows
        .get_mut(0)
        .and_then(|row| row.get_mut(1))
        .expect("fig5 has at least one data cell");
    let bumped: f64 = cell.parse::<f64>().expect("data cell is numeric") + 1.0;
    *cell = format!("{bumped:.2}");
    let d = diff(&a, &perturbed, 0.25);
    assert_eq!(d.regressions.len(), 1);
    assert!(d.regressions[0].delta.unwrap() > 0.25);
    // ... and within tolerance it passes.
    assert!(diff(&a, &perturbed, 2.0).is_clean());
}

#[test]
fn campaign_is_deterministic_across_runs() {
    let _guard = lock();
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(10_000);
    opts.threads = 2;
    let quick = campaign::find("quick").unwrap();
    let first = campaign::run(quick, &opts);
    // Detaching (no store is attached here) empties the cell memo, so the
    // second run simulates every cell again on one thread.
    resume::deconfigure();
    let before = applications();
    opts.threads = 1;
    let second = campaign::run(quick, &opts);
    assert!(applications() > before, "second run simulated nothing");
    assert_eq!(
        first.to_pretty_string(),
        second.to_pretty_string(),
        "artifacts are byte-identical regardless of thread count"
    );
}
