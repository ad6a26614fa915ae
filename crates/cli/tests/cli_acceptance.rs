//! End-to-end acceptance pins for ISSUE 2, driven through the real
//! `bpsim` binary so exit codes, stdout bytes and the `--verbose`
//! counters are all exercised exactly as CI and users see them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bpsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bpsim"))
        .args(args)
        .output()
        .expect("spawn bpsim")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bpsim-accept-{tag}-{}", std::process::id()))
}

#[test]
fn resumed_rerun_skips_every_cell_and_is_byte_identical() {
    let store = temp_path("store");
    let _ = std::fs::remove_dir_all(&store);
    let store = store.to_str().unwrap();
    // Keep the pin fast: fig5 at a small fixed length.
    let run = |_: ()| {
        bpsim(&[
            "run",
            "fig5",
            "--quick",
            "--len",
            "20000",
            "--resume",
            "--verbose",
            "--results-dir",
            store,
        ])
    };

    let cold = run(());
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("0 cells skipped"),
        "cold run starts empty: {cold_err}"
    );

    let warm = run(());
    assert!(warm.status.success());
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 cells simulated"),
        "warm rerun performs zero simulations: {warm_err}"
    );
    assert!(
        warm_err.contains("150 cells skipped"),
        "the skip counter reports every cell: {warm_err}"
    );
    assert_eq!(
        cold.stdout, warm.stdout,
        "resumed table is byte-identical to the cold run"
    );
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn campaign_diff_gates_on_tolerance_with_proper_exit_codes() {
    let dir = temp_path("campaign");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let baseline_str = baseline.to_str().unwrap();

    // A tiny artifact pair: the gate's exit-code contract does not need a
    // real simulation run.
    let artifact = |cell: &str| {
        format!(
            concat!(
                "{{\"name\":\"quick\",\"engine_version\":\"1\",\"seed\":\"000000005eed0000\",",
                "\"experiments\":[{{\"id\":\"fig5\",\"title\":\"t\",\"tables\":[{{\"title\":\"g\",",
                "\"columns\":[\"size\",\"groff\"],\"rows\":[[\"64\",\"{}\"]]}}]}}]}}"
            ),
            cell
        )
    };
    std::fs::write(&baseline, artifact("9.41")).unwrap();
    let candidate = dir.join("candidate.json");
    let candidate_str = candidate.to_str().unwrap();
    std::fs::write(&candidate, artifact("9.81")).unwrap();

    // Identical artifacts: exit 0.
    let same = bpsim(&["campaign", "diff", baseline_str, baseline_str]);
    assert!(same.status.success());

    // 0.40 beyond a 0.25 tolerance: nonzero exit and a per-cell report.
    let bad = bpsim(&[
        "campaign",
        "diff",
        baseline_str,
        candidate_str,
        "--tol",
        "0.25",
    ]);
    assert!(!bad.status.success());
    let report = String::from_utf8_lossy(&bad.stdout);
    assert!(
        report.contains("fig5/g/64/groff") && report.contains("9.41 -> 9.81"),
        "per-cell report names the cell: {report}"
    );

    // The same delta within tolerance: exit 0.
    let ok = bpsim(&[
        "campaign",
        "diff",
        baseline_str,
        candidate_str,
        "--tol",
        "0.5",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_direct_runs_deterministically() {
    let base = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
    ]);
    assert!(base.status.success());
    let seeded = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
        "--seed",
        "0x1234",
    ]);
    assert!(seeded.status.success());
    let seeded_again = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
        "--seed",
        "4660",
    ]);
    assert!(seeded_again.status.success());
    assert_ne!(base.stdout, seeded.stdout, "a new seed is a new workload");
    assert_eq!(
        seeded.stdout, seeded_again.stdout,
        "hex and decimal spellings of one seed agree"
    );
}

#[test]
fn misspelled_flags_fail_before_any_work() {
    // `--reusme` used to be ignored, running a whole campaign with no
    // resume; it must now exit nonzero, name the flag, and write nothing.
    let out = temp_path("typo.json");
    let _ = std::fs::remove_file(&out);
    let typo = bpsim(&[
        "campaign",
        "quick",
        "--reusme",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!typo.status.success());
    let err = String::from_utf8_lossy(&typo.stderr);
    assert!(err.contains("--reusme"), "the error names the flag: {err}");
    assert!(!out.exists(), "no campaign ran");

    let zero = bpsim(&["run", "--pred", "gshare:n=8,h=4", "--len", "0"]);
    assert!(!zero.status.success());
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--len must be at least 1"));
}
