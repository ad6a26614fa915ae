//! `bpsim` — command-line driver for the gskew reproduction.
//!
//! The command surface lives in this library crate so both the `bpsim`
//! binary here and the workspace-root `gskew` binary are the same thin
//! wrapper around [`dispatch`].
//!
//! ```text
//! bpsim list                                  available experiments & workloads
//! bpsim experiment <id|all> [--len N] [--quick] [--csv] [--out DIR]
//! bpsim run <experiment-id> | --pred <spec> [--bench <name>] [--len N]
//! bpsim compare <spec> <spec> ... [--bench <name>] [--len N]
//! bpsim duel <specA> <specB> [--bench <name>] [--len N]
//! bpsim sweep --pred <spec-with-{h}> [--bench <name>] [--len N]
//! bpsim campaign <name|list|diff> ...
//! bpsim results <stats|gc> [--results-dir DIR]
//! bpsim trace gen --bench <name> --len N --out FILE   write a BPT2 trace
//! bpsim trace info --file FILE                      stream one back
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use args::Args;
use bpred_core::spec::{parse_spec, PredictorSpec};
use bpred_results::campaign::CampaignArtifact;
use bpred_results::store::{self, ResultsStore};
use bpred_sim::engine;
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume;
use bpred_sim::runner::default_threads;
use bpred_sim::{campaign, kernel, report, timing};
use bpred_trace::cache as trace_cache;
use bpred_trace::io as trace_io;
use bpred_trace::stats::TraceStats;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "\
bpsim — skewed branch predictor reproduction (Michaud/Seznec/Uhlig, ISCA'97)

USAGE:
  bpsim list
  bpsim experiment <id|all> [--len N] [--threads T] [--quick] [--csv] [--out DIR]
  bpsim run <experiment-id> [--quick] ...     (same as `experiment <id>`)
  bpsim run --pred <spec> [--bench <name>] [--len N] [--windows N]
  bpsim compare <spec> <spec> ... [--bench <name>] [--len N]
  bpsim duel <specA> <specB> [--bench <name>] [--len N]
  bpsim sweep --pred <spec with {h}> [--bench <name>] [--len N]
  bpsim bench [--quick] [--out FILE] [--threads T] [--min-speedup X]
              [--min-aliasing-speedup X]
  bpsim campaign list
  bpsim campaign <name> [--out FILE] [--threads T]
  bpsim campaign diff <baseline> <candidate> [--tol T]
  bpsim results stats [--results-dir DIR]
  bpsim results gc --budget BYTES [--results-dir DIR]
  bpsim trace gen --bench <name> --len N --out FILE   (writes a BPT2 trace)
  bpsim trace info --file FILE

Global options:
  --seed S           workload seed base, decimal or 0x-hex (default
                     0x5EED0000, which reproduces the committed tables)
  --resume           skip any cell already in the results store with an
                     identical fingerprint (implies --save-results)
  --save-results     persist every cell a run produces to the results store
  --results-dir DIR  results store location (default .gskew/results)
  --verbose          print trace-cache, results-store and engine-throughput
                     summaries (hits/misses; cells skipped from the store,
                     reused from earlier in the run, simulated, and records
                     saved; records/sec on the kernel and dyn simulation
                     paths)

Predictor specs:
  gshare:n=14,h=12 | gselect:n=12,h=6 | bimodal:n=14
  gskew:n=12,h=8[,banks=5][,update=total][,skew=off] | egskew:n=12,h=11
  shgskew:n=12,h=8 (shared hysteresis)  | 2bcgskew:n=12,h=12 (EV8-style)
  agree:n=13,h=8,bias=12 | bimode:n=12,h=8,choice=12 | mcfarling:n=12,h=10
  pas:bht=10,l=8,n=12 | spas:bht=10,l=8,n=10 (per-address)
  ideal:h=12 | falru:cap=4096,h=4 | setassoc:n=10,ways=4,h=4
  always-taken | always-nottaken
";

/// Binary entry point: parse `std::env::args`, dispatch, report errors.
pub fn cli_main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bpsim: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Run one command line (excluding the program name).
///
/// # Errors
///
/// Returns the message to print on stderr before exiting nonzero.
pub fn dispatch(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    if let Some(seed) = args.option_u64("seed")? {
        // Also process-global (see `experiments::set_workload_seed`).
        experiments::set_workload_seed(seed);
    }
    let resume_flag = args.flag("resume");
    let save_flag = resume_flag || args.flag("save-results");
    if save_flag {
        let store = ResultsStore::open(results_dir(&args))?;
        resume::configure(store, resume_flag, true);
    }
    let result = match args.positional(0) {
        None | Some("help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some("list") => cmd_list(),
        Some("experiment") => cmd_experiment(&args),
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        Some("duel") => cmd_duel(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("bench") => cmd_bench(&args),
        Some("campaign") => cmd_campaign(&args),
        Some("results") => cmd_results(&args),
        Some("trace") => cmd_trace(&args),
        Some(other) => Err(format!("unknown command `{other}`; try `bpsim help`")),
    };
    if result.is_ok() && args.flag("verbose") {
        print_cache_summary();
        print_resume_summary();
        print_timing_summary();
    }
    // Detach so repeated `dispatch` calls in one process (tests) start
    // clean; every put is already on disk, nothing to close.
    if save_flag {
        resume::deconfigure();
    }
    result
}

fn results_dir(args: &Args) -> String {
    args.option("results-dir")
        .unwrap_or(store::DEFAULT_STORE_DIR)
        .to_string()
}

fn print_cache_summary() {
    let stats = trace_cache::stats();
    eprintln!(
        "trace cache: {} hits / {} misses ({:.0}% hit), {} evictions, \
         {} traces resident ({:.1} MiB)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_ratio(),
        stats.evictions,
        stats.entries,
        stats.resident_bytes as f64 / (1 << 20) as f64,
    );
}

fn print_resume_summary() {
    if !resume::is_active() {
        return;
    }
    let stats = resume::stats();
    eprintln!(
        "results store: {} cells skipped (resumed), {} cells reused, {} cells simulated, \
         {} records saved",
        stats.cells_skipped, stats.cells_reused, stats.cells_simulated, stats.records_saved,
    );
}

fn print_timing_summary() {
    let t = timing::stats();
    if t.kernel_applications == 0 && t.dyn_applications == 0 {
        return;
    }
    // Rates are per-core (durations summed across workers), so the two
    // paths stay comparable regardless of thread counts.
    if t.kernel_applications > 0 {
        eprintln!(
            "engine (kernel): {} record applications in {:.2}s CPU ({:.1} M records/s)",
            t.kernel_applications,
            t.kernel_seconds(),
            t.kernel_rate() / 1e6,
        );
    }
    if t.dyn_applications > 0 {
        eprintln!(
            "engine (dyn):    {} record applications in {:.2}s CPU ({:.1} M records/s)",
            t.dyn_applications,
            t.dyn_seconds(),
            t.dyn_rate() / 1e6,
        );
    }
}

fn cmd_list() -> Result<(), String> {
    println!("experiments:");
    for id in experiments::ALL_IDS {
        println!("  {id}");
    }
    println!("\ncampaigns:");
    for c in campaign::ALL {
        println!("  {:<10} {}", c.name, c.description);
    }
    println!("\nworkloads (synthetic IBS):");
    for b in IbsBenchmark::all() {
        println!(
            "  {:<10} default len {:>8}  (paper: {} dynamic / {} static)",
            b.name(),
            b.default_len(),
            b.paper_dynamic_branches(),
            b.paper_static_branches()
        );
    }
    Ok(())
}

fn opts_from(args: &Args) -> Result<ExperimentOpts, String> {
    let mut opts = ExperimentOpts {
        len_override: args.option_u64("len")?,
        ..ExperimentOpts::default()
    };
    if let Some(threads) = args.option_u64("threads")? {
        opts.threads = threads as usize;
    }
    opts.quick = args.flag("quick");
    Ok(opts)
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    let id = args
        .positional(1)
        .ok_or("experiment needs an id; try `bpsim list`")?;
    let opts = opts_from(args)?;
    let ids: Vec<&str> = if id == "all" {
        experiments::ALL_IDS.to_vec()
    } else {
        vec![id]
    };
    let out_dir = args.option("out").map(std::path::PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    for id in ids {
        let output = experiments::run(id, &opts)
            .ok_or_else(|| format!("unknown experiment `{id}`; try `bpsim list`"))?;
        if let Some(dir) = &out_dir {
            // One CSV per table, named <id>-<index>.csv, plus the rendered
            // text report as <id>.txt.
            for (i, table) in output.tables.iter().enumerate() {
                let path = dir.join(format!("{id}-{i}.csv"));
                std::fs::write(&path, table.to_csv())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            let path = dir.join(format!("{id}.txt"));
            std::fs::write(&path, output.render())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "{id}: wrote {} tables to {}",
                output.tables.len(),
                dir.display()
            );
        } else if args.flag("csv") {
            for table in &output.tables {
                println!("# {} — {}", output.id, table.title());
                print!("{}", table.to_csv());
                println!();
            }
        } else {
            print!("{}", output.render());
        }
    }
    Ok(())
}

fn benches_from(args: &Args) -> Result<Vec<IbsBenchmark>, String> {
    match args.option("bench") {
        None | Some("all") => Ok(IbsBenchmark::all().to_vec()),
        Some(name) => IbsBenchmark::from_name(name)
            .map(|b| vec![b])
            .ok_or_else(|| format!("unknown benchmark `{name}`")),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let Some(spec) = args.option("pred") else {
        // `run fig5` reads naturally; treat a known experiment id as an
        // alias for `experiment fig5` so resumable reruns stay one word.
        if let Some(id) = args.positional(1) {
            if id == "all" || experiments::ALL_IDS.contains(&id) {
                return cmd_experiment(args);
            }
            return Err(format!(
                "run needs --pred <spec>, or an experiment id (`{id}` is neither; try `bpsim list`)"
            ));
        }
        return Err("run needs --pred <spec> or an experiment id".into());
    };
    // Validate the spec once up front for a friendly error.
    parse_spec(spec).map_err(|e| e.to_string())?;
    let benches = benches_from(args)?;
    let len_override = args.option_u64("len")?;
    let seed = experiments::workload_seed();
    if let Some(windows) = args.option_u64("windows")? {
        if windows == 0 {
            return Err("--windows must be nonzero".into());
        }
        // Phase view: one ASCII chart of windowed misprediction rates
        // per benchmark.
        for bench in benches {
            let len = len_override.unwrap_or_else(|| bench.default_len());
            let window = (len / windows).max(1);
            let mut predictor = parse_spec(spec).map_err(|e| e.to_string())?;
            let rates = engine::run_windowed(
                &mut predictor,
                trace_cache::columns_seeded(bench, len, seed).records(),
                window,
                engine::NovelPolicy::Count,
            );
            println!(
                "{} — {} ({} windows of {} branches, mispredict %):",
                bench.name(),
                predictor.name(),
                rates.len(),
                window
            );
            print!("{}", report::ascii_chart(&rates, 10));
            println!();
        }
        return Ok(());
    }
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "benchmark", "branches", "mispredict", "%"
    );
    // A kernel spec runs on its fast path, anything else on the dyn
    // engine, as in `compare`.
    let specs = [spec.to_string()];
    for bench in benches {
        let len = len_override.unwrap_or_else(|| bench.default_len());
        let cols = trace_cache::columns_seeded(bench, len, seed);
        let result = kernel::run_specs(&specs, &cols, engine::NovelPolicy::Count, 1)
            .map_err(|e| e.to_string())?[0];
        println!(
            "{:<12} {:>12} {:>12} {:>9.2}%",
            bench.name(),
            result.conditional,
            result.mispredicted,
            result.mispredict_pct()
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let mut specs = Vec::new();
    let mut i = 1;
    while let Some(spec) = args.positional(i) {
        parse_spec(spec).map_err(|e| format!("{spec}: {e}"))?;
        specs.push(spec.to_string());
        i += 1;
    }
    if specs.is_empty() {
        return Err("compare needs at least one predictor spec".into());
    }
    let benches = benches_from(args)?;
    let len_override = args.option_u64("len")?;
    let seed = experiments::workload_seed();
    print!("{:<40} {:>9}", "predictor", "bits");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!(" {:>10}", "mean");
    // One cached trace per benchmark; specs with a kernel fast path run
    // as monomorphized loops over its columns, the rest ride one batched
    // dyn pass.
    let mut per_spec_pcts = vec![Vec::new(); specs.len()];
    for &bench in &benches {
        let len = len_override.unwrap_or_else(|| bench.default_len());
        let cols = trace_cache::columns_seeded(bench, len, seed);
        let results =
            kernel::run_specs(&specs, &cols, engine::NovelPolicy::Count, default_threads())
                .map_err(|e| e.to_string())?;
        for (pcts, result) in per_spec_pcts.iter_mut().zip(results) {
            pcts.push(result.mispredict_pct());
        }
    }
    for (spec, cells) in specs.iter().zip(per_spec_pcts) {
        let predictor = parse_spec(spec).map_err(|e| e.to_string())?;
        print!("{:<40} {:>9}", predictor.name(), predictor.storage_bits());
        for c in &cells {
            print!(" {:>9.2}%", c);
        }
        println!(
            " {:>9.2}%",
            cells.iter().sum::<f64>() / benches.len() as f64
        );
    }
    Ok(())
}

fn cmd_duel(args: &Args) -> Result<(), String> {
    use bpred_sim::duel::{duel, kernel_duel};
    use bpred_sim::engine::NovelPolicy;
    let spec_a = args.positional(1).ok_or("duel needs two predictor specs")?;
    let spec_b = args.positional(2).ok_or("duel needs two predictor specs")?;
    // Parse and build each spec once up front, so a bad value fails
    // before any trace is generated.
    let parse = |spec: &str| {
        let parsed = PredictorSpec::parse(spec).map_err(|e| format!("{spec}: {e}"))?;
        parsed.build().map_err(|e| format!("{spec}: {e}"))?;
        Ok::<_, String>(parsed)
    };
    let (parsed_a, parsed_b) = (parse(spec_a)?, parse(spec_b)?);
    let benches = benches_from(args)?;
    let len_override = args.option_u64("len")?;
    let seed = experiments::workload_seed();
    println!(
        "A = {spec_a}\nB = {spec_b}\n\n{:<12} {:>8} {:>8} {:>9} {:>9} {:>8}  verdict",
        "benchmark", "A %", "B %", "only A x", "only B x", "z"
    );
    for bench in benches {
        let len = len_override.unwrap_or_else(|| bench.default_len());
        // Two table kernels duel on the fast path; anything else on the
        // dyn engine.
        let cols = trace_cache::columns_seeded(bench, len, seed);
        let r = match kernel_duel(&parsed_a, &parsed_b, &cols) {
            Some(r) => r,
            None => {
                let mut a = parsed_a.build().map_err(|e| e.to_string())?;
                let mut b = parsed_b.build().map_err(|e| e.to_string())?;
                duel(&mut a, &mut b, cols.records(), NovelPolicy::Count)
            }
        };
        let verdict = if r.b_significantly_better() {
            "B wins (p < 0.01)"
        } else if r.a_significantly_better() {
            "A wins (p < 0.01)"
        } else {
            "no significant difference"
        };
        println!(
            "{:<12} {:>7.2}% {:>7.2}% {:>9} {:>9} {:>8.2}  {verdict}",
            bench.name(),
            r.a_pct(),
            r.b_pct(),
            r.only_a_wrong,
            r.only_b_wrong,
            r.mcnemar_z()
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let template = args
        .option("pred")
        .ok_or("sweep needs --pred <spec containing `{h}`>, e.g. gskew:n=12,h={h}")?;
    if !template.contains("{h}") {
        return Err("the sweep spec must contain the `{h}` placeholder".into());
    }
    let benches = benches_from(args)?;
    let len_override = args.option_u64("len")?;
    let seed = experiments::workload_seed();
    print!("{:<4}", "h");
    for b in &benches {
        print!(" {:>10}", b.name());
    }
    println!();
    const HISTORIES: std::ops::RangeInclusive<u32> = 0..=16;
    // All 17 history lengths ride one pass per benchmark: kernels over
    // the shared column view where supported, one batched dyn pass for
    // the rest.
    let specs: Vec<String> = HISTORIES
        .map(|h| template.replace("{h}", &h.to_string()))
        .collect();
    let mut columns = Vec::new();
    for &bench in &benches {
        let len = len_override.unwrap_or_else(|| bench.default_len());
        let cols = trace_cache::columns_seeded(bench, len, seed);
        columns.push(
            kernel::run_specs(&specs, &cols, engine::NovelPolicy::Count, default_threads())
                .map_err(|e| e.to_string())?,
        );
    }
    for (row, h) in HISTORIES.enumerate() {
        print!("{h:<4}");
        for column in &columns {
            print!(" {:>9.2}%", column[row].mispredict_pct());
        }
        println!();
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    use bpred_bench::kernel_bench;
    let quick = args.flag("quick");
    let threads = match args.option_u64("threads")? {
        Some(t) => t as usize,
        None => default_threads(),
    };
    let min_speedup = args.option_f64("min-speedup")?.unwrap_or(1.0);
    if min_speedup.is_nan() || min_speedup < 0.0 {
        return Err(format!(
            "--min-speedup must be a nonnegative number, got {min_speedup}"
        ));
    }
    let min_aliasing = args.option_f64("min-aliasing-speedup")?.unwrap_or(1.0);
    if min_aliasing.is_nan() || min_aliasing < 0.0 {
        return Err(format!(
            "--min-aliasing-speedup must be a nonnegative number, got {min_aliasing}"
        ));
    }
    let out = args.option("out").unwrap_or("BENCH_kernels.json");
    let cases = kernel_bench::default_cases();
    let mut report = kernel_bench::run(&cases, quick, threads);
    report.cases.push(kernel_bench::run_delay(quick, threads));
    report.aliasing = Some(kernel_bench::run_aliasing(
        &kernel_bench::default_aliasing_grid(),
        quick,
        threads,
    ));

    println!(
        "{:<16} {:>6} {:>14} {:>12} {:>12} {:>9}  match",
        "case", "specs", "record-apps", "dyn M/s", "kernel M/s", "speedup"
    );
    for case in &report.cases {
        println!(
            "{:<16} {:>6} {:>14} {:>12.1} {:>12.1} {:>8.2}x  {}",
            case.name,
            case.specs,
            case.applications,
            case.dyn_rate() / 1e6,
            case.kernel_rate() / 1e6,
            case.speedup(),
            if case.matched { "ok" } else { "MISMATCH" },
        );
    }
    if let Some(a) = &report.aliasing {
        println!(
            "{:<16} {:>6} {:>14} {:>12.1} {:>12.1} {:>8.2}x  {}",
            "aliasing-3c",
            a.cells,
            a.applications,
            a.dyn_rate() / 1e6,
            a.batch_rate() / 1e6,
            a.speedup(),
            if a.matched { "ok" } else { "MISMATCH" },
        );
    }
    println!(
        "overall: {} record applications, dyn {:.2}s vs kernel {:.2}s CPU -> {:.2}x speedup",
        report.applications(),
        report.dyn_seconds(),
        report.kernel_seconds(),
        report.speedup()
    );
    store::write_atomic(
        std::path::Path::new(out),
        report.to_json().to_string_compact().as_bytes(),
    )?;
    println!("wrote {out}");

    if !report.all_matched() {
        return Err("kernel results diverged from the dyn engine (see MISMATCH rows)".into());
    }
    if report.speedup() < min_speedup {
        return Err(format!(
            "kernel speedup {:.2}x is below the required {min_speedup}x",
            report.speedup()
        ));
    }
    if let Some(a) = &report.aliasing {
        if !a.matched {
            return Err("batched three-C counts diverged from the per-config classifier".into());
        }
        if a.speedup() < min_aliasing {
            return Err(format!(
                "batched three-C speedup {:.2}x is below the required {min_aliasing}x",
                a.speedup()
            ));
        }
    }
    Ok(())
}

/// Default absolute tolerance (percentage points) for `campaign diff`.
const DEFAULT_DIFF_TOLERANCE: f64 = 0.05;

fn cmd_campaign(args: &Args) -> Result<(), String> {
    match args.positional(1) {
        None | Some("list") => {
            for c in campaign::ALL {
                println!("{:<10} {}", c.name, c.description);
                println!("{:<10}   experiments: {}", "", c.experiments.join(" "));
            }
            Ok(())
        }
        Some("diff") => {
            let baseline_path = args
                .positional(2)
                .ok_or("campaign diff needs <baseline> <candidate>")?;
            let candidate_path = args
                .positional(3)
                .ok_or("campaign diff needs <baseline> <candidate>")?;
            let tolerance = args.option_f64("tol")?.unwrap_or(DEFAULT_DIFF_TOLERANCE);
            if tolerance.is_nan() || tolerance < 0.0 {
                return Err(format!(
                    "--tol must be a nonnegative number, got {tolerance}"
                ));
            }
            let load = |path: &str| -> Result<CampaignArtifact, String> {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                CampaignArtifact::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let baseline = load(baseline_path)?;
            let candidate = load(candidate_path)?;
            let diff = bpred_results::campaign::diff(&baseline, &candidate, tolerance);
            if diff.is_clean() {
                println!(
                    "campaign `{}`: {} cells compared, none beyond tolerance {tolerance}",
                    baseline.name, diff.cells_compared
                );
                Ok(())
            } else {
                print!("{}", diff.report());
                Err(format!(
                    "campaign `{}`: {} regression(s) beyond tolerance {tolerance} \
                     ({} cells compared)",
                    baseline.name,
                    diff.regressions.len(),
                    diff.cells_compared
                ))
            }
        }
        Some(name) => {
            let c = campaign::find(name)
                .ok_or_else(|| format!("unknown campaign `{name}`; try `bpsim campaign list`"))?;
            let opts = opts_from(args)?;
            let artifact = campaign::run(c, &opts);
            let out = args.option("out").unwrap_or("campaign.json");
            store::write_atomic(
                std::path::Path::new(out),
                artifact.to_pretty_string().as_bytes(),
            )?;
            let cells: usize = artifact
                .experiments
                .iter()
                .flat_map(|e| e.tables.iter())
                .map(|t| t.rows.iter().map(Vec::len).sum::<usize>())
                .sum();
            println!(
                "campaign `{}`: {} experiments, {} cells -> {out}",
                artifact.name,
                artifact.experiments.len(),
                cells
            );
            Ok(())
        }
    }
}

fn cmd_results(args: &Args) -> Result<(), String> {
    let dir = results_dir(args);
    match args.positional(1) {
        Some("stats") => {
            let store = ResultsStore::open(&dir)?;
            println!("store:    {dir}");
            println!("records:  {}", store.len());
            println!("bytes:    {}", store.total_bytes());
            println!("segments: {}", store.segments());
            println!("dropped lines: {}", store.dropped_lines());
            let mut by_experiment: Vec<(String, usize)> = Vec::new();
            for record in store.records() {
                match by_experiment
                    .iter_mut()
                    .find(|(e, _)| *e == record.experiment)
                {
                    Some((_, n)) => *n += 1,
                    None => by_experiment.push((record.experiment.clone(), 1)),
                }
            }
            by_experiment.sort();
            for (experiment, n) in by_experiment {
                println!("  {experiment:<16} {n}");
            }
            Ok(())
        }
        Some("gc") => {
            let budget = args
                .option_u64("budget")?
                .ok_or("results gc needs --budget BYTES")?;
            let mut store = ResultsStore::open(&dir)?;
            let stats = store.gc(budget)?;
            println!(
                "gc: removed {} record(s), freed {} bytes, {} bytes resident (budget {budget})",
                stats.removed, stats.freed_bytes, stats.remaining_bytes
            );
            Ok(())
        }
        _ => Err("results needs a subcommand: stats | gc".into()),
    }
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    match args.positional(1) {
        Some("gen") => {
            let bench_name = args.option("bench").ok_or("trace gen needs --bench")?;
            let bench = IbsBenchmark::from_name(bench_name)
                .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
            let len = args
                .option_u64("len")?
                .unwrap_or_else(|| bench.default_len().min(1_000_000));
            let out = args.option("out").ok_or("trace gen needs --out FILE")?;
            let records = bench
                .spec_seeded(experiments::workload_seed())
                .build()
                .take_conditionals(len);
            let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
            let mut writer = BufWriter::new(file);
            let written = trace_io::write_compact(&mut writer, records)
                .map_err(|e| format!("write {out}: {e}"))?;
            writer.flush().map_err(|e| format!("flush {out}: {e}"))?;
            println!("wrote {written} records to {out}");
            Ok(())
        }
        Some("info") => {
            let path = args.option("file").ok_or("trace info needs --file FILE")?;
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            let read_err = |e: std::io::Error| format!("read {path}: {e}");
            let reader = trace_io::CompactReader::new(BufReader::new(file)).map_err(read_err)?;
            let mut failure = None;
            let records = reader.map_while(|record| record.map_err(|e| failure = Some(e)).ok());
            let stats = TraceStats::collect(records);
            if let Some(e) = failure {
                return Err(read_err(e));
            }
            println!("records:               {}", stats.total_records);
            println!("dynamic conditional:   {}", stats.dynamic_conditional);
            println!("static conditional:    {}", stats.static_conditional);
            println!("dynamic unconditional: {}", stats.dynamic_unconditional);
            println!("taken ratio:           {:.4}", stats.taken_ratio());
            println!("kernel ratio:          {:.4}", stats.kernel_ratio());
            Ok(())
        }
        _ => Err("trace needs a subcommand: gen | info".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_errors() {
        let e = dispatch(vec!["frobnicate".into()]).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn run_requires_pred_or_experiment() {
        let e = dispatch(vec!["run".into()]).unwrap_err();
        assert!(e.contains("--pred"));
        let e = dispatch(vec!["run".into(), "fig99".into()]).unwrap_err();
        assert!(e.contains("neither"), "{e}");
    }

    #[test]
    fn run_delegates_to_experiments() {
        dispatch(vec![
            "run".into(),
            "fig3".into(),
            "--len".into(),
            "5000".into(),
        ])
        .unwrap();
    }

    #[test]
    fn run_rejects_bad_spec() {
        let e = dispatch(vec!["run".into(), "--pred".into(), "tage:n=1".into()]).unwrap_err();
        assert!(e.contains("unknown predictor"));
    }

    #[test]
    fn sweep_requires_placeholder() {
        let e = dispatch(vec![
            "sweep".into(),
            "--pred".into(),
            "gshare:n=10,h=4".into(),
        ])
        .unwrap_err();
        assert!(e.contains("{h}"));
    }

    #[test]
    fn experiment_requires_known_id() {
        let e = dispatch(vec!["experiment".into(), "fig99".into()]).unwrap_err();
        assert!(e.contains("unknown experiment"));
    }

    #[test]
    fn list_and_help_work() {
        dispatch(vec!["list".into()]).unwrap();
        dispatch(vec!["help".into()]).unwrap();
        dispatch(vec![]).unwrap();
    }

    #[test]
    fn campaign_list_and_unknown_name() {
        dispatch(vec!["campaign".into()]).unwrap();
        dispatch(vec!["campaign".into(), "list".into()]).unwrap();
        let e = dispatch(vec!["campaign".into(), "nope".into()]).unwrap_err();
        assert!(e.contains("unknown campaign"));
    }

    #[test]
    fn campaign_diff_needs_two_paths_and_real_files() {
        let e = dispatch(vec!["campaign".into(), "diff".into()]).unwrap_err();
        assert!(e.contains("baseline"));
        let e = dispatch(vec![
            "campaign".into(),
            "diff".into(),
            "/nonexistent/a.json".into(),
            "/nonexistent/b.json".into(),
        ])
        .unwrap_err();
        assert!(e.contains("read"));
    }

    #[test]
    fn results_needs_subcommand_and_gc_needs_budget() {
        let e = dispatch(vec!["results".into()]).unwrap_err();
        assert!(e.contains("stats | gc"));
        let dir = std::env::temp_dir().join(format!("bpsim-results-cli-{}", std::process::id()));
        let dir_str = dir.to_str().unwrap().to_string();
        let e = dispatch(vec![
            "results".into(),
            "gc".into(),
            "--results-dir".into(),
            dir_str.clone(),
        ])
        .unwrap_err();
        assert!(e.contains("--budget"));
        dispatch(vec![
            "results".into(),
            "stats".into(),
            "--results-dir".into(),
            dir_str.clone(),
        ])
        .unwrap();
        dispatch(vec![
            "results".into(),
            "gc".into(),
            "--budget".into(),
            "1000000".into(),
            "--results-dir".into(),
            dir_str,
        ])
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("bpsim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bpt2");
        let path_str = path.to_str().unwrap().to_string();
        dispatch(vec![
            "trace".into(),
            "gen".into(),
            "--bench".into(),
            "verilog".into(),
            "--len".into(),
            "2000".into(),
            "--out".into(),
            path_str.clone(),
        ])
        .unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"BPT2"));
        dispatch(vec![
            "trace".into(),
            "info".into(),
            "--file".into(),
            path_str,
        ])
        .unwrap();
    }

    #[test]
    fn quick_experiment_runs() {
        dispatch(vec!["experiment".into(), "fig9".into(), "--quick".into()]).unwrap();
        dispatch(vec!["experiment".into(), "fig3".into(), "--csv".into()]).unwrap();
    }

    #[test]
    fn experiment_out_dir_writes_files() {
        let dir = std::env::temp_dir().join("bpsim-out-test");
        let _ = std::fs::remove_dir_all(&dir);
        dispatch(vec![
            "experiment".into(),
            "fig3".into(),
            "--out".into(),
            dir.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(dir.join("fig3.txt").exists());
        assert!(dir.join("fig3-0.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duel_needs_two_specs() {
        let e = dispatch(vec!["duel".into(), "gshare:n=8".into()]).unwrap_err();
        assert!(e.contains("two predictor specs"));
    }

    #[test]
    fn duel_runs() {
        dispatch(vec![
            "duel".into(),
            "gshare:n=8,h=4".into(),
            "gskew:n=8,h=4".into(),
            "--bench".into(),
            "verilog".into(),
            "--len".into(),
            "5000".into(),
        ])
        .unwrap();
    }

    #[test]
    fn compare_needs_specs() {
        let e = dispatch(vec!["compare".into()]).unwrap_err();
        assert!(e.contains("at least one"));
    }

    #[test]
    fn compare_rejects_bad_spec() {
        let e = dispatch(vec!["compare".into(), "tage:n=2".into()]).unwrap_err();
        assert!(e.contains("unknown predictor"));
    }

    #[test]
    fn compare_runs_two_specs() {
        dispatch(vec![
            "compare".into(),
            "gshare:n=8,h=4".into(),
            "gskew:n=8,h=4".into(),
            "--bench".into(),
            "verilog".into(),
            "--len".into(),
            "3000".into(),
        ])
        .unwrap();
    }

    #[test]
    fn run_windowed_chart() {
        dispatch(vec![
            "run".into(),
            "--pred".into(),
            "gshare:n=8,h=4".into(),
            "--bench".into(),
            "verilog".into(),
            "--len".into(),
            "6000".into(),
            "--windows".into(),
            "6".into(),
        ])
        .unwrap();
        let e = dispatch(vec![
            "run".into(),
            "--pred".into(),
            "gshare:n=8,h=4".into(),
            "--windows".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert!(e.contains("nonzero"));
    }

    #[test]
    fn run_on_one_bench() {
        dispatch(vec![
            "run".into(),
            "--pred".into(),
            "gskew:n=8,h=4".into(),
            "--bench".into(),
            "verilog".into(),
            "--len".into(),
            "5000".into(),
        ])
        .unwrap();
    }
}
