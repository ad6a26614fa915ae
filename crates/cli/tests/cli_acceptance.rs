//! End-to-end acceptance pins, driven through the real
//! `bpsim` binary so exit codes, stdout bytes and the `--verbose`
//! counters are all exercised exactly as CI and users see them.

use bpred_results::store::ResultsStore;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

    // The cold run wrote one segment; the warm run wrote nothing.
    let stats = || {
        let out = bpsim(&["results", "stats", "--results-dir", store]);
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let clean = stats();
    for line in ["records:  150", "segments: 1", "dropped lines: 0"] {
        assert!(clean.contains(line), "{line}: {clean}");
    }

    // A killed writer leaves a torn last line: stats reports it dropped
    // and every complete record is still served.
    let segment = std::fs::read_dir(store)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 10]).unwrap();
    let torn = stats();
    for line in ["records:  149", "segments: 1", "dropped lines: 1"] {
        assert!(torn.contains(line), "{line}: {torn}");
    }
    let _ = std::fs::remove_dir_all(store);
}

/// Fingerprints served by a freshly opened store at `dir`, sorted.
fn saved(dir: &Path) -> Vec<u64> {
    let mut fingerprints = ResultsStore::open(dir).unwrap().fingerprints();
    fingerprints.sort_unstable();
    fingerprints
}

#[test]
fn concurrent_experiments_on_one_store_lose_nothing() {
    let save = |experiment: &str, dir: &Path| {
        Command::new(env!("CARGO_BIN_EXE_bpsim"))
            .args(["experiment", experiment, "--quick", "--len", "20000"])
            .args(["--save-results", "--results-dir"])
            .arg(dir)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn bpsim")
    };
    let dirs = ["fig5", "fig7", "shared"].map(|tag| temp_path(&format!("concurrent-{tag}")));
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Each experiment alone, into its own store, gives the fingerprints
    // it saves.
    for (experiment, dir) in ["fig5", "fig7"].iter().zip(&dirs) {
        assert!(save(experiment, dir).wait().unwrap().success());
    }
    let mut expected: Vec<u64> = saved(&dirs[0]).into_iter().chain(saved(&dirs[1])).collect();
    expected.sort_unstable();
    expected.dedup();

    // Both at once on one store: the reopened store serves the union.
    let mut fig5 = save("fig5", &dirs[2]);
    let mut fig7 = save("fig7", &dirs[2]);
    assert!(fig5.wait().unwrap().success());
    assert!(fig7.wait().unwrap().success());
    assert_eq!(saved(&dirs[2]), expected);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn experiment_all_in_one_process_equals_one_process_per_experiment() {
    // One process reuses each cell across experiments; the files it
    // writes must not depend on which experiment produced a cell first.
    let (all, single) = (temp_path("all-in-one"), temp_path("one-each"));
    for dir in [&all, &single] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let experiment = |id: &str, dir: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_bpsim"))
            .args(["experiment", id, "--quick", "--len", "3000", "--out"])
            .arg(dir)
            .output()
            .expect("spawn bpsim");
        assert!(
            out.status.success(),
            "{id}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    experiment("all", &all);
    for id in bpred_sim::experiments::ALL_IDS {
        experiment(id, &single);
    }
    let files = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let names = files(&all);
    assert_eq!(names, files(&single));
    assert!(names.len() > bpred_sim::experiments::ALL_IDS.len());
    for name in names {
        assert_eq!(
            std::fs::read(all.join(&name)).unwrap(),
            std::fs::read(single.join(&name)).unwrap(),
            "{name:?} differs"
        );
    }
    for dir in [&all, &single] {
        let _ = std::fs::remove_dir_all(dir);
    }
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

    // A surplus experiment id used to be dropped silently: `fig5 fig6`
    // ran fig5 alone and exited 0.
    let surplus = bpsim(&["experiment", "fig5", "fig6", "--quick", "--len", "1000"]);
    assert!(!surplus.status.success());
    let err = String::from_utf8_lossy(&surplus.stderr);
    assert!(
        err.contains("`fig6`"),
        "the error names the argument: {err}"
    );
    assert!(surplus.stdout.is_empty(), "no experiment ran");
}

#[test]
fn trace_gen_rejects_format_and_keeps_existing_out_file() {
    // There is one trace format, so `--format` is an unknown option; it
    // must fail before `--out` is created or truncated.
    let out = temp_path("keep.bpt2");
    std::fs::write(&out, b"precious").unwrap();
    let gen = bpsim(&[
        "trace",
        "gen",
        "--bench",
        "gs",
        "--len",
        "100",
        "--out",
        out.to_str().unwrap(),
        "--format",
        "bin",
    ]);
    assert!(!gen.status.success());
    let err = String::from_utf8_lossy(&gen.stderr);
    assert!(
        err.contains("--format"),
        "the error names the option: {err}"
    );
    assert_eq!(std::fs::read(&out).unwrap(), b"precious");
    let _ = std::fs::remove_file(&out);
}

#[test]
fn trace_info_streams_back_what_trace_gen_wrote() {
    let path = temp_path("roundtrip.bpt2");
    let file = path.to_str().unwrap();
    let gen = bpsim(&[
        "trace", "gen", "--bench", "verilog", "--len", "3000", "--out", file,
    ]);
    assert!(gen.status.success());
    let wrote = String::from_utf8(gen.stdout).unwrap();
    let written = wrote
        .strip_prefix("wrote ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected gen output: {wrote}"));

    let info = bpsim(&["trace", "info", "--file", file]);
    assert!(info.status.success());
    let stats = String::from_utf8(info.stdout).unwrap();
    let records = stats
        .lines()
        .find_map(|line| line.strip_prefix("records:"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no records line: {stats}"));
    assert_eq!(records, written, "{stats}");

    // A file cut short by one byte fails with a read error.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let short = bpsim(&["trace", "info", "--file", file]);
    assert!(!short.status.success());
    let err = String::from_utf8_lossy(&short.stderr);
    assert!(err.contains(&format!("read {file}: ")), "{err}");

    // A flat BPT1 header (magic + u64 count) is not a trace any more.
    let mut bpt1 = b"BPT1".to_vec();
    bpt1.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, bpt1).unwrap();
    let old = bpsim(&["trace", "info", "--file", file]);
    assert!(!old.status.success());
    let err = String::from_utf8_lossy(&old.stderr);
    assert!(err.contains("not a BPT2 trace"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// The dyn duel's verdict line for one benchmark, formatted as `duel`
/// prints it.
fn dyn_duel_line(spec_a: &str, spec_b: &str, bench: &str, len: u64) -> String {
    use bpred_core::spec::parse_spec;
    use bpred_sim::duel::duel;
    use bpred_sim::engine::NovelPolicy;
    use bpred_trace::stream::TraceSourceExt;
    use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};

    let bench = IbsBenchmark::from_name(bench).unwrap();
    let mut a = parse_spec(spec_a).unwrap();
    let mut b = parse_spec(spec_b).unwrap();
    let records = bench
        .spec_seeded(DEFAULT_SEED_BASE)
        .build()
        .take_conditionals(len);
    let r = duel(&mut a, &mut b, records, NovelPolicy::Count);
    let verdict = if r.b_significantly_better() {
        "B wins (p < 0.01)"
    } else if r.a_significantly_better() {
        "A wins (p < 0.01)"
    } else {
        "no significant difference"
    };
    format!(
        "{:<12} {:>7.2}% {:>7.2}% {:>9} {:>9} {:>8.2}  {verdict}",
        bench.name(),
        r.a_pct(),
        r.b_pct(),
        r.only_a_wrong,
        r.only_b_wrong,
        r.mcnemar_z()
    )
}

#[test]
fn duel_output_equals_the_dyn_duel_on_both_paths() {
    // Kernel pairs run the kernel duel; a `setassoc` spec has no
    // kernel, so its duel stays on the dyn engine. All print exactly what
    // the dyn duel computes.
    for (spec_a, spec_b) in [
        ("gshare:n=10,h=6", "gskew:n=9,h=6"),
        ("agree:n=10,h=6,bias=9", "bimode:n=9,h=6,choice=9"),
        ("setassoc:n=6,ways=2,h=4", "gshare:n=8,h=4"),
    ] {
        let out = bpsim(&["duel", spec_a, spec_b, "--bench", "groff", "--len", "20000"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = stdout
            .lines()
            .find(|line| line.starts_with("groff"))
            .unwrap_or_else(|| panic!("no groff row: {stdout}"));
        assert_eq!(line, dyn_duel_line(spec_a, spec_b, "groff", 20_000));
    }
}

#[test]
fn run_pred_prints_the_dyn_counts_from_the_kernel_path() {
    use bpred_core::spec::parse_spec;
    use bpred_sim::engine;
    use bpred_trace::stream::TraceSourceExt;
    use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};

    let spec = "gskew:n=9,h=6";
    let out = bpsim(&[
        "run",
        "--pred",
        spec,
        "--bench",
        "gs",
        "--len",
        "20000",
        "--verbose",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = IbsBenchmark::Gs
        .spec_seeded(DEFAULT_SEED_BASE)
        .build()
        .take_conditionals(20_000);
    let r = engine::run(&mut parse_spec(spec).unwrap(), records);
    let expected = format!(
        "{:<12} {:>12} {:>12} {:>9.2}%",
        "gs",
        r.conditional,
        r.mispredicted,
        r.mispredict_pct()
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.lines().any(|line| line == expected),
        "expected `{expected}` in {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engine (kernel)"), "{stderr}");
    assert!(!stderr.contains("engine (dyn)"), "{stderr}");
}
