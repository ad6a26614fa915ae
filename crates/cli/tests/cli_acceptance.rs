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

/// [`bpsim`] on a whitespace-separated command line.
fn bpsim_line(line: &str) -> Output {
    bpsim(&line.split_whitespace().collect::<Vec<_>>())
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
        bpsim_line(&format!(
            "run fig5 --quick --len 20000 --resume --verbose --results-dir {store}"
        ))
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
    let diff = format!("campaign diff {baseline_str} {candidate_str}");
    let bad = bpsim_line(&format!("{diff} --tol 0.25"));
    assert!(!bad.status.success());
    let report = String::from_utf8_lossy(&bad.stdout);
    assert!(
        report.contains("fig5/g/64/groff") && report.contains("9.41 -> 9.81"),
        "per-cell report names the cell: {report}"
    );

    // The same delta within tolerance: exit 0.
    let ok = bpsim_line(&format!("{diff} --tol 0.5"));
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_direct_runs_deterministically() {
    let run = "run --pred gshare:n=8,h=4 --bench verilog --len 5000";
    let base = bpsim_line(run);
    assert!(base.status.success());
    let seeded = bpsim_line(&format!("{run} --seed 0x1234"));
    assert!(seeded.status.success());
    let seeded_again = bpsim_line(&format!("{run} --seed 4660"));
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

    // Each form of `run` rejects the flags it would ignore, before it
    // prints anything.
    for (form, flag) in [
        (&["--pred", "gshare:n=8,h=4"][..], &["--quick"][..]),
        (&["--pred", "gshare:n=8,h=4"], &["--csv"]),
        (&["--pred", "gshare:n=8,h=4"], &["--out", "tables"]),
        (&["fig5", "--quick"], &["--bench", "gs"]),
        (&["fig5", "--quick"], &["--windows", "4"]),
    ] {
        let out = bpsim(&[&["run"][..], form, flag, &["--len", "1000"]].concat());
        assert!(!out.status.success(), "{form:?} {flag:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag[0]), "the error names {}: {err}", flag[0]);
        assert!(out.stdout.is_empty(), "nothing ran for {flag:?}");
    }

    // Flags a command used to accept and ignore: the bench's two deleted
    // speedup floors, a results store where none is read, and a seed
    // where no workload is generated.
    for (line, flag) in [
        ("bench --quick --min-speedup 1", "--min-speedup"),
        (
            "bench --quick --min-aliasing-speedup 1",
            "--min-aliasing-speedup",
        ),
        ("bench --quick --results-dir d", "--results-dir"),
        ("list --results-dir d", "--results-dir"),
        (
            "duel gshare:n=8 gskew:n=8 --len 1000 --results-dir d",
            "--results-dir",
        ),
        ("list --seed 5", "--seed"),
    ] {
        let out = bpsim_line(line);
        assert!(!out.status.success(), "{line}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "the error names {flag}: {err}");
        assert!(out.stdout.is_empty(), "nothing ran for {line}");
    }
}

#[test]
fn trace_gen_rejects_format_and_keeps_existing_out_file() {
    // There is one trace format, so `--format` is an unknown option; it
    // must fail before `--out` is created or truncated.
    let out = temp_path("keep.bpt2");
    std::fs::write(&out, b"precious").unwrap();
    let gen = bpsim_line(&format!(
        "trace gen --bench gs --len 100 --out {} --format bin",
        out.display()
    ));
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
    use bpred_trace::io::write_compact;
    use bpred_trace::stream::TraceSourceExt;
    use bpred_trace::workload::IbsBenchmark;

    let path = temp_path("roundtrip.bpt2");
    let file = path.to_str().unwrap();
    let gen = bpsim(&[
        "trace", "gen", "--bench", "verilog", "--len", "70000", "--out", file,
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

    // `trace gen` streams the records it counted in a first pass, in
    // chunks of 65,536 conditionals (two of them here): the bytes are
    // those of the buffering writer over the record iterator.
    let bytes = std::fs::read(&path).unwrap();
    let stream = IbsBenchmark::Verilog
        .spec()
        .build()
        .take_conditionals(70_000);
    let mut buffered = Vec::new();
    write_compact(&mut buffered, stream).unwrap();
    assert_eq!(bytes, buffered);

    // A file cut short by one byte fails with a read error.
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
    // Every family duels on its job: table kernels, set walks and LRU
    // walks alike print exactly what the dyn duel computes.
    for (spec_a, spec_b) in [
        ("gshare:n=10,h=6", "gskew:n=9,h=6"),
        ("agree:n=10,h=6,bias=9", "bimode:n=9,h=6,choice=9"),
        ("setassoc:n=6,ways=2,h=4", "gshare:n=8,h=4"),
        ("falru:cap=256,h=4", "gskew:n=8,h=4"),
        ("ideal:h=8", "falru:cap=64,h=8,miss=nottaken"),
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
    let out = bpsim_line(&format!(
        "run --pred {spec} --bench gs --len 20000 --verbose"
    ));
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
    // The one trace synthesised is counted on the trace-cache line, with
    // its time and a nonzero rate.
    let cache_line = stderr
        .lines()
        .find(|line| line.starts_with("trace cache: 0 hits / 1 misses"))
        .unwrap_or_else(|| panic!("no trace-cache line: {stderr}"));
    let synthesised = IbsBenchmark::Gs.spec().build().fill(20_000).len();
    let expected = format!(
        ", {:.2} M records synthesised in ",
        synthesised as f64 / 1e6
    );
    assert!(cache_line.contains(&expected), "{cache_line}");
    let rate: f64 = cache_line
        .rsplit_once(" s (")
        .and_then(|(_, rate)| rate.strip_suffix(" M records/s)"))
        .and_then(|rate| rate.parse().ok())
        .unwrap_or_else(|| panic!("no synthesis rate: {cache_line}"));
    assert!(rate > 0.0, "{cache_line}");
}

#[test]
fn a_reader_that_stops_early_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    // `compare` prints its header before it simulates, so the pipe is
    // gone by the time the rows are written (`bpsim compare ... | head -1`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_bpsim"))
        .args(["compare", "gshare:n=10,h=4", "gskew:n=9,h=4"])
        .args(["--len", "200000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bpsim");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut header = String::new();
    stdout.read_line(&mut header).unwrap();
    assert!(header.starts_with("predictor"), "{header}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for bpsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}

#[test]
fn out_of_range_tagged_geometries_fail_without_aborting() {
    // A huge FA-LRU capacity allocates as the table fills, so it runs; a
    // set table above the entry ceiling is refused by name.
    let refused = "puts more than 2^24 entries (512 MiB) in the table";
    for (spec, code) in [
        ("falru:cap=4000000000,h=4", 0),
        ("setassoc:n=30,ways=1,h=4", 1),
    ] {
        for command in [
            vec!["run", "--pred", spec],
            vec!["compare", spec, "bimodal"],
        ] {
            let out = bpsim(&[&command[..], &["--bench", "groff", "--len", "100"]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{command:?}: {stderr}");
            assert_eq!(stderr.contains(refused), code == 1, "{command:?}: {stderr}");
        }
    }
}

#[test]
fn run_windows_beyond_the_trace_length_is_rejected() {
    let windows = |n: &str| {
        let args = ["--bench", "groff", "--len", "1000", "--windows", n];
        bpsim(&[&["run", "--pred", "gshare:n=8"][..], &args].concat())
    };
    let out = windows("5000");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let named = "--windows 5000 exceeds the 1000 conditional branches of groff";
    assert!(stderr.contains(named), "{stderr}");
    let stdout = String::from_utf8(windows("1000").stdout).unwrap();
    assert!(stdout.contains("1000 windows of 1 branches"), "{stdout}");
}

#[test]
fn run_windows_that_do_not_divide_the_length_give_the_remainder_to_the_last() {
    let args = ["--bench", "groff", "--len", "1000", "--windows", "3"];
    let out = bpsim(&[&["run", "--pred", "gshare:n=8"][..], &args].concat());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let header = "3 windows of 333 branches, the last 334";
    assert!(stdout.contains(header), "{stdout}");
}

#[test]
fn compare_runs_every_family_without_the_dyn_engine() {
    let specs = ["setassoc:n=8,ways=2,h=4", "always-taken", "gshare:n=10,h=4"];
    let args = ["--bench", "groff", "--len", "20000", "--verbose"];
    let tagged = ["falru:cap=256,h=4", "ideal:h=6", "setassoc:n=8,ways=2,h=4"];
    let duels = tagged.map(|spec| vec!["duel", spec, "gshare:n=10,h=4"]);
    let windows = tagged.map(|spec| vec!["run", "--pred", spec, "--windows", "7"]);
    let compare = [&["compare"][..], &specs].concat();
    for command in duels.into_iter().chain(windows).chain([compare]) {
        let out = bpsim(&[&command[..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command:?}: {stderr}");
        assert!(stderr.contains("engine (kernel)"), "{command:?}: {stderr}");
        assert!(!stderr.contains("engine (dyn)"), "{command:?}: {stderr}");
    }
}

#[test]
fn compare_resumed_from_its_saved_cells_is_byte_identical() {
    let store = temp_path("compare-store");
    let _ = std::fs::remove_dir_all(&store);
    let specs = ["gshare:n=10,h=4", "ideal:h=4", "setassoc:n=8,ways=2,h=4"];
    let args = ["--len", "20000", "--results-dir", store.to_str().unwrap()];
    let run = |flag: &str| {
        let out = bpsim(&[&["compare"][..], &specs, &args, &[flag, "--verbose"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{flag}: {stderr}");
        (out.stdout, stderr)
    };
    let (cold, cold_err) = run("--save-results");
    assert!(cold_err.contains("18 records saved"), "{cold_err}");
    let (warm, warm_err) = run("--resume");
    assert!(warm_err.contains(", 0 cells simulated,"), "{warm_err}");
    assert!(
        warm_err.contains("/ 0 misses"),
        "no trace is generated: {warm_err}"
    );
    assert_eq!(cold, warm, "the resumed table is byte-identical");
    let _ = std::fs::remove_dir_all(&store);
}
