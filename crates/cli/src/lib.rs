//! `bpsim` — command-line driver for the gskew reproduction.
//!
//! The command surface lives in this library crate so both the `bpsim`
//! binary here and the workspace-root `gskew` binary are the same thin
//! wrapper around [`dispatch`].
//!
//! ```text
//! bpsim list                                  available experiments & workloads
//! bpsim experiment <id|all> [--len N] [--quick] [--csv] [--out DIR]
//! bpsim run <experiment-id> | --pred <spec> [--bench <name>] [--len N] [--windows N]
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
use bpred_results::campaign::CampaignArtifact;
use bpred_results::store::{self, ResultsStore};
use bpred_sim::duel::kernel_duel;
use bpred_sim::engine::{NovelPolicy, RunResult};
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume::{self, Unit};
use bpred_sim::runner::default_threads;
use bpred_sim::{campaign, kernel, report, timing};
use bpred_trace::cache as trace_cache;
use bpred_trace::io as trace_io;
use bpred_trace::soa::TraceColumns;
use bpred_trace::stats::TraceStats;
use bpred_trace::workload::IbsBenchmark;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "\
bpsim — skewed branch predictor reproduction (Michaud/Seznec/Uhlig, ISCA'97)

USAGE:
  bpsim list
  bpsim experiment <id|all> [--len N] [--threads T] [--quick] [--csv] [--out DIR]
  bpsim run <experiment-id> [--quick] ...     (same as `experiment <id>`)
  bpsim run --pred <spec> [--bench <name>] [--len N] [--threads T]
  bpsim run --pred <spec> --windows N [--bench <name>] [--len N]
  bpsim compare <spec> <spec> ... [--bench <name>] [--len N]
  bpsim duel <specA> <specB> [--bench <name>] [--len N]
  bpsim sweep --pred <spec with {h}> [--bench <name>] [--len N]
  bpsim bench [--quick] [--out FILE] [--threads T]
  bpsim campaign list
  bpsim campaign <name> [--out FILE] [--threads T]
  bpsim campaign diff <baseline> <candidate> [--tol T]
  bpsim results stats [--results-dir DIR]
  bpsim results gc --budget BYTES [--results-dir DIR]
  bpsim trace gen --bench <name> --len N --out FILE   (writes a BPT2 trace)
  bpsim trace info --file FILE

Global options:
  --verbose          print trace-cache, results-store and engine-throughput
                     summaries (hits/misses and records synthesised/sec;
                     cells skipped from the store, reused from earlier in
                     the run, simulated, and records saved; records/sec on
                     the simulation kernels)

Workload options, on the commands that generate a workload (all but
`list`, `help` and `results`):
  --seed S           workload seed base, decimal or 0x-hex (default
                     0x5EED0000, which reproduces the committed tables)

Results-store options, on the commands that produce cells (`experiment`,
`run`, `compare`, `sweep` and `campaign`; not `run --windows`):
  --results-dir DIR  results store location (default .gskew/results; also
                     taken by `results`)
  --resume           skip any cell already in the results store with an
                     identical fingerprint (implies --save-results)
  --save-results     persist every cell a run produces to the results store

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
/// A reader that stops reading (`bpsim ... | head`) ends the run quietly.
pub fn cli_main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw, &mut io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("bpsim: {}", failure.message());
            ExitCode::FAILURE
        }
    }
}

/// Run one command line (excluding the program name), writing its output
/// to stdout.
///
/// # Errors
///
/// Returns the message to print on stderr before exiting nonzero.
pub fn dispatch(raw: Vec<String>) -> Result<(), String> {
    run(raw, &mut io::stdout()).map_err(Failure::message)
}

/// Why a command stopped: a message for stderr, or a failed write of its
/// output.
#[derive(Debug)]
enum Failure {
    Message(String),
    Output(io::Error),
}

impl Failure {
    fn message(self) -> String {
        match self {
            Failure::Message(message) => message,
            Failure::Output(e) => format!("write output: {e}"),
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::Message(message.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

/// A command's result.
type Done = Result<(), Failure>;

/// [`dispatch`] with the output going to `out`.
fn run(raw: Vec<String>, out: &mut dyn Write) -> Done {
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
        None | Some("help") => write!(out, "{USAGE}").map_err(Failure::from),
        Some("list") => cmd_list(out),
        Some("experiment") => cmd_experiment(&args, out),
        Some("run") => cmd_run(&args, out),
        Some("compare") => cmd_compare(&args, out),
        Some("duel") => cmd_duel(&args, out),
        Some("sweep") => cmd_sweep(&args, out),
        Some("bench") => cmd_bench(&args, out),
        Some("campaign") => cmd_campaign(&args, out),
        Some("results") => cmd_results(&args, out),
        Some("trace") => cmd_trace(&args, out),
        Some(other) => Err(format!("unknown command `{other}`; try `bpsim help`").into()),
    }
    .and_then(|()| Ok(out.flush()?));
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
         {} traces resident ({:.1} MiB), {:.2} M records synthesised in {:.2} s \
         ({:.0} M records/s)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_ratio(),
        stats.evictions,
        stats.entries,
        stats.resident_bytes as f64 / (1 << 20) as f64,
        stats.synthesised as f64 / 1e6,
        stats.synth_nanos as f64 / 1e9,
        stats.synth_rate() / 1e6,
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
    if t.kernel_applications == 0 {
        return;
    }
    // The rate is per core: durations are summed across workers.
    eprintln!(
        "engine (kernel): {} record applications in {:.2}s CPU ({:.1} M records/s)",
        t.kernel_applications,
        t.kernel_seconds(),
        t.kernel_rate() / 1e6,
    );
}

fn cmd_list(out: &mut dyn Write) -> Done {
    writeln!(out, "experiments:")?;
    for id in experiments::ALL_IDS {
        writeln!(out, "  {id}")?;
    }
    writeln!(out, "\ncampaigns:")?;
    for c in campaign::ALL {
        writeln!(out, "  {:<10} {}", c.name, c.description)?;
    }
    writeln!(out, "\nworkloads (synthetic IBS):")?;
    for b in IbsBenchmark::all() {
        writeln!(
            out,
            "  {:<10} default len {:>8}  (paper: {} dynamic / {} static)",
            b.name(),
            b.default_len(),
            b.paper_dynamic_branches(),
            b.paper_static_branches()
        )?;
    }
    Ok(())
}

/// `--threads`, or one worker per CPU.
fn threads_from(args: &Args) -> Result<usize, String> {
    Ok(args
        .option_u64("threads")?
        .map_or_else(default_threads, |t| t as usize))
}

fn opts_from(args: &Args) -> Result<ExperimentOpts, String> {
    Ok(ExperimentOpts {
        len_override: args.option_u64("len")?,
        threads: threads_from(args)?,
        quick: args.flag("quick"),
    })
}

fn cmd_experiment(args: &Args, out: &mut dyn Write) -> Done {
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
            writeln!(
                out,
                "{id}: wrote {} tables to {}",
                output.tables.len(),
                dir.display()
            )?;
        } else if args.flag("csv") {
            for table in &output.tables {
                writeln!(out, "# {} — {}", output.id, table.title())?;
                write!(out, "{}", table.to_csv())?;
                writeln!(out)?;
            }
        } else {
            write!(out, "{}", output.render())?;
        }
    }
    Ok(())
}

/// The `(bench, len)` workloads of `--bench` (default all) at `--len`
/// (default each benchmark's own length).
fn workloads_from(args: &Args) -> Result<Vec<resume::Workload>, String> {
    let benches =
        match args.option("bench") {
            None | Some("all") => IbsBenchmark::all().to_vec(),
            Some(name) => vec![IbsBenchmark::from_name(name)
                .ok_or_else(|| format!("unknown benchmark `{name}`"))?],
        };
    let len = args.option_u64("len")?;
    let at = |bench: IbsBenchmark| (bench, len.unwrap_or_else(|| bench.default_len()));
    Ok(benches.into_iter().map(at).collect())
}

/// The cells of every spec over every workload, through the cell
/// pipeline: one result per workload and spec, workload-major.
fn spec_cells(
    workloads: &[resume::Workload],
    specs: &[String],
    threads: usize,
) -> Vec<Vec<RunResult>> {
    let units: Vec<Unit> = specs.iter().cloned().map(Unit::Spec).collect();
    let cells = resume::run_cells(workloads, NovelPolicy::Count, &units, threads);
    let per_workload = |cells: Vec<Vec<RunResult>>| cells.into_iter().map(|c| c[0]).collect();
    cells.into_iter().map(per_workload).collect()
}

fn cmd_run(args: &Args, out: &mut dyn Write) -> Done {
    let Some(spec) = args.option("pred") else {
        // `run fig5` reads naturally; treat a known experiment id as an
        // alias for `experiment fig5` so resumable reruns stay one word.
        if let Some(id) = args.positional(1) {
            if id == "all" || experiments::ALL_IDS.contains(&id) {
                return cmd_experiment(args, out);
            }
            return Err(format!(
                "run needs --pred <spec>, or an experiment id (`{id}` is neither; try `bpsim list`)"
            )
            .into());
        }
        return Err("run needs --pred <spec> or an experiment id".into());
    };
    // Check the spec once up front for a friendly error.
    let parsed = kernel::check(spec).map_err(|e| e.to_string())?;
    let workloads = workloads_from(args)?;
    if let Some(windows) = args.option_u64("windows")? {
        if windows == 0 {
            return Err("--windows must be nonzero".into());
        }
        let name = parsed.name();
        // Phase view: one ASCII chart of windowed misprediction rates
        // per benchmark.
        for (bench, len) in workloads {
            if windows > len {
                return Err(format!(
                    "--windows {windows} exceeds the {len} conditional branches of {}",
                    bench.name()
                )
                .into());
            }
            let cols = trace_cache::columns_seeded(bench, len, experiments::workload_seed());
            let rates =
                kernel::windowed_rates(&parsed, &cols, windows).map_err(|e| e.to_string())?;
            // Exactly `windows` windows: the last takes the remainder.
            let window = len / windows;
            let last = len - (windows - 1) * window;
            let sizes = if last == window {
                format!("{window} branches")
            } else {
                format!("{window} branches, the last {last}")
            };
            writeln!(
                out,
                "{} — {name} ({} windows of {sizes}, mispredict %):",
                bench.name(),
                rates.len(),
            )?;
            write!(out, "{}", report::ascii_chart(&rates, 10))?;
            writeln!(out)?;
        }
        return Ok(());
    }
    writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>10}",
        "benchmark", "branches", "mispredict", "%"
    )?;
    let cells = spec_cells(&workloads, &[spec.to_string()], threads_from(args)?);
    for ((bench, _), results) in workloads.into_iter().zip(cells) {
        writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>9.2}%",
            bench.name(),
            results[0].conditional,
            results[0].mispredicted,
            results[0].mispredict_pct()
        )?;
    }
    Ok(())
}

fn cmd_compare(args: &Args, out: &mut dyn Write) -> Done {
    let specs: Vec<String> = (1..)
        .map_while(|i| args.positional(i))
        .map(String::from)
        .collect();
    if specs.is_empty() {
        return Err("compare needs at least one predictor spec".into());
    }
    // Each row's label, from its spec; a bad spec fails here, before any
    // trace is built.
    let labels = specs
        .iter()
        .map(|spec| {
            let parsed = kernel::check(spec).map_err(|e| format!("{spec}: {e}"))?;
            Ok((parsed.name(), parsed.storage_bits()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let workloads = workloads_from(args)?;
    write!(out, "{:<40} {:>9}", "predictor", "bits")?;
    for (bench, _) in &workloads {
        write!(out, " {:>10}", bench.name())?;
    }
    writeln!(out, " {:>10}", "mean")?;
    let cells = spec_cells(&workloads, &specs, default_threads());
    for (row, (name, bits)) in labels.into_iter().enumerate() {
        write!(out, "{name:<40} {bits:>9}")?;
        let pcts: Vec<f64> = cells.iter().map(|c| c[row].mispredict_pct()).collect();
        for c in &pcts {
            write!(out, " {:>9.2}%", c)?;
        }
        writeln!(
            out,
            " {:>9.2}%",
            pcts.iter().sum::<f64>() / workloads.len() as f64
        )?;
    }
    Ok(())
}

fn cmd_duel(args: &Args, out: &mut dyn Write) -> Done {
    let spec_a = args.positional(1).ok_or("duel needs two predictor specs")?;
    let spec_b = args.positional(2).ok_or("duel needs two predictor specs")?;
    // Check each spec up front, so a bad value fails before any trace is
    // generated.
    let check = |spec: &str| kernel::check(spec).map_err(|e| format!("{spec}: {e}"));
    let (parsed_a, parsed_b) = (check(spec_a)?, check(spec_b)?);
    let workloads = workloads_from(args)?;
    writeln!(
        out,
        "A = {spec_a}\nB = {spec_b}\n\n{:<12} {:>8} {:>8} {:>9} {:>9} {:>8}  verdict",
        "benchmark", "A %", "B %", "only A x", "only B x", "z"
    )?;
    for (bench, len) in workloads {
        let cols = trace_cache::columns_seeded(bench, len, experiments::workload_seed());
        let r = kernel_duel(&parsed_a, &parsed_b, &cols).map_err(|e| e.to_string())?;
        let verdict = if r.b_significantly_better() {
            "B wins (p < 0.01)"
        } else if r.a_significantly_better() {
            "A wins (p < 0.01)"
        } else {
            "no significant difference"
        };
        writeln!(
            out,
            "{:<12} {:>7.2}% {:>7.2}% {:>9} {:>9} {:>8.2}  {verdict}",
            bench.name(),
            r.a_pct(),
            r.b_pct(),
            r.only_a_wrong,
            r.only_b_wrong,
            r.mcnemar_z()
        )?;
    }
    Ok(())
}

fn cmd_sweep(args: &Args, out: &mut dyn Write) -> Done {
    let template = args
        .option("pred")
        .ok_or("sweep needs --pred <spec containing `{h}`>, e.g. gskew:n=12,h={h}")?;
    if !template.contains("{h}") {
        return Err("the sweep spec must contain the `{h}` placeholder".into());
    }
    const HISTORIES: std::ops::RangeInclusive<u32> = 0..=16;
    let specs: Vec<String> = HISTORIES
        .map(|h| template.replace("{h}", &h.to_string()))
        .collect();
    for spec in &specs {
        kernel::check(spec).map_err(|e| e.to_string())?;
    }
    let workloads = workloads_from(args)?;
    write!(out, "{:<4}", "h")?;
    for (bench, _) in &workloads {
        write!(out, " {:>10}", bench.name())?;
    }
    writeln!(out)?;
    // All 17 history lengths over every benchmark, as one batch of cells.
    let cells = spec_cells(&workloads, &specs, default_threads());
    for (row, h) in HISTORIES.enumerate() {
        write!(out, "{h:<4}")?;
        for column in &cells {
            write!(out, " {:>9.2}%", column[row].mispredict_pct())?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn cmd_bench(args: &Args, out: &mut dyn Write) -> Done {
    use bpred_bench::kernel_bench;
    let opts = opts_from(args)?;
    let path = args.option("out").unwrap_or("BENCH_kernels.json");
    let mut report = kernel_bench::run(&kernel_bench::default_cases(), &opts);
    report.cases.push(kernel_bench::run_delay(&opts));
    let grid = kernel_bench::default_aliasing_grid();
    report.cases.push(kernel_bench::run_aliasing(&grid, &opts));

    writeln!(
        out,
        "{:<16} {:>6} {:>14} {:>12}",
        "case", "specs", "record-apps", "kernel M/s"
    )?;
    for case in &report.cases {
        writeln!(
            out,
            "{:<16} {:>6} {:>14} {:>12.1}",
            case.name,
            case.specs,
            case.applications,
            case.rate() / 1e6,
        )?;
    }
    writeln!(
        out,
        "overall: {} record applications in {:.2}s kernel CPU ({:.1} M/s)",
        report.applications(),
        report.kernel_seconds(),
        report.rate() / 1e6
    )?;
    store::write_atomic(
        std::path::Path::new(path),
        report.to_json().to_string_compact().as_bytes(),
    )?;
    writeln!(out, "wrote {path}")?;
    Ok(())
}

/// Default absolute tolerance (percentage points) for `campaign diff`.
const DEFAULT_DIFF_TOLERANCE: f64 = 0.05;

fn cmd_campaign(args: &Args, out: &mut dyn Write) -> Done {
    match args.positional(1) {
        None | Some("list") => {
            for c in campaign::ALL {
                writeln!(out, "{:<10} {}", c.name, c.description)?;
                writeln!(out, "{:<10}   experiments: {}", "", c.experiments.join(" "))?;
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
                return Err(format!("--tol must be a nonnegative number, got {tolerance}").into());
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
                writeln!(
                    out,
                    "campaign `{}`: {} cells compared, none beyond tolerance {tolerance}",
                    baseline.name, diff.cells_compared
                )?;
                Ok(())
            } else {
                write!(out, "{}", diff.report())?;
                Err(format!(
                    "campaign `{}`: {} regression(s) beyond tolerance {tolerance} \
                     ({} cells compared)",
                    baseline.name,
                    diff.regressions.len(),
                    diff.cells_compared
                )
                .into())
            }
        }
        Some(name) => {
            let c = campaign::find(name)
                .ok_or_else(|| format!("unknown campaign `{name}`; try `bpsim campaign list`"))?;
            let opts = opts_from(args)?;
            let artifact = campaign::run(c, &opts);
            let path = args.option("out").unwrap_or("campaign.json");
            store::write_atomic(
                std::path::Path::new(path),
                artifact.to_pretty_string().as_bytes(),
            )?;
            let cells: usize = artifact
                .experiments
                .iter()
                .flat_map(|e| e.tables.iter())
                .map(|t| t.rows.iter().map(Vec::len).sum::<usize>())
                .sum();
            writeln!(
                out,
                "campaign `{}`: {} experiments, {} cells -> {path}",
                artifact.name,
                artifact.experiments.len(),
                cells
            )?;
            Ok(())
        }
    }
}

fn cmd_results(args: &Args, out: &mut dyn Write) -> Done {
    let dir = results_dir(args);
    match args.positional(1) {
        Some("stats") => {
            let store = ResultsStore::open(&dir)?;
            writeln!(out, "store:    {dir}")?;
            writeln!(out, "records:  {}", store.len())?;
            writeln!(out, "bytes:    {}", store.total_bytes())?;
            writeln!(out, "segments: {}", store.segments())?;
            writeln!(out, "dropped lines: {}", store.dropped_lines())?;
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
                writeln!(out, "  {experiment:<16} {n}")?;
            }
            Ok(())
        }
        Some("gc") => {
            let budget = args
                .option_u64("budget")?
                .ok_or("results gc needs --budget BYTES")?;
            let mut store = ResultsStore::open(&dir)?;
            let stats = store.gc(budget)?;
            writeln!(
                out,
                "gc: removed {} record(s), freed {} bytes, {} bytes resident (budget {budget})",
                stats.removed, stats.freed_bytes, stats.remaining_bytes
            )?;
            Ok(())
        }
        _ => Err("results needs a subcommand: stats | gc".into()),
    }
}

fn cmd_trace(args: &Args, out: &mut dyn Write) -> Done {
    match args.positional(1) {
        Some("gen") => {
            let bench_name = args.option("bench").ok_or("trace gen needs --bench")?;
            let bench = IbsBenchmark::from_name(bench_name)
                .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
            let len = args
                .option_u64("len")?
                .unwrap_or_else(|| bench.default_len().min(1_000_000));
            let path = args.option("out").ok_or("trace gen needs --out FILE")?;
            // One generator pass counts the records for the header, a
            // second streams them, a chunk of columns at a time: memory
            // stays bounded at any length.
            const CHUNK: u64 = 1 << 16;
            let chunks = || {
                let mut workload = bench.spec_seeded(experiments::workload_seed()).build();
                (0..len)
                    .step_by(CHUNK as usize)
                    .map(move |start| workload.fill(CHUNK.min(len - start)))
            };
            let count = chunks().map(|chunk| chunk.len() as u64).sum();
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut writer = BufWriter::new(file);
            let written = trace_io::write_compact_chunks(&mut writer, count, chunks())
                .map_err(|e| format!("write {path}: {e}"))?;
            writer.flush().map_err(|e| format!("flush {path}: {e}"))?;
            writeln!(out, "wrote {written} records to {path}")?;
            Ok(())
        }
        Some("info") => {
            let path = args.option("file").ok_or("trace info needs --file FILE")?;
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            let read_err = |e: std::io::Error| format!("read {path}: {e}");
            let reader = trace_io::CompactReader::new(BufReader::new(file)).map_err(read_err)?;
            let mut failure = None;
            let mut records = reader.map_while(|record| record.map_err(|e| failure = Some(e)).ok());
            // The file's records, folded a chunk of columns at a time.
            let chunks = std::iter::from_fn(|| {
                let chunk: TraceColumns = records.by_ref().take(1 << 16).collect();
                (!chunk.is_empty()).then_some(chunk)
            });
            let stats = TraceStats::collect(chunks);
            if let Some(e) = failure {
                return Err(read_err(e).into());
            }
            writeln!(out, "records:               {}", stats.total_records)?;
            writeln!(out, "dynamic conditional:   {}", stats.dynamic_conditional)?;
            writeln!(out, "static conditional:    {}", stats.static_conditional)?;
            writeln!(
                out,
                "dynamic unconditional: {}",
                stats.dynamic_unconditional
            )?;
            writeln!(out, "taken ratio:           {:.4}", stats.taken_ratio())?;
            writeln!(out, "kernel ratio:          {:.4}", stats.kernel_ratio())?;
            Ok(())
        }
        _ => Err("trace needs a subcommand: gen | info".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch a whitespace-separated command line.
    fn bpsim(line: &str) -> Result<(), String> {
        dispatch(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn unknown_command_errors() {
        let e = bpsim("frobnicate").unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn run_requires_pred_or_experiment() {
        let e = bpsim("run").unwrap_err();
        assert!(e.contains("--pred"));
        let e = bpsim("run fig99").unwrap_err();
        assert!(e.contains("neither"), "{e}");
    }

    #[test]
    fn run_delegates_to_experiments() {
        bpsim("run fig3 --len 5000").unwrap();
    }

    #[test]
    fn run_rejects_bad_spec() {
        let e = bpsim("run --pred tage:n=1").unwrap_err();
        assert!(e.contains("unknown predictor"));
    }

    #[test]
    fn sweep_requires_placeholder() {
        let e = bpsim("sweep --pred gshare:n=10,h=4").unwrap_err();
        assert!(e.contains("{h}"));
    }

    #[test]
    fn experiment_requires_known_id() {
        let e = bpsim("experiment fig99").unwrap_err();
        assert!(e.contains("unknown experiment"));
    }

    #[test]
    fn list_and_help_work() {
        bpsim("list").unwrap();
        bpsim("help").unwrap();
        bpsim("").unwrap();
    }

    #[test]
    fn campaign_list_and_unknown_name() {
        bpsim("campaign").unwrap();
        bpsim("campaign list").unwrap();
        let e = bpsim("campaign nope").unwrap_err();
        assert!(e.contains("unknown campaign"));
    }

    #[test]
    fn campaign_diff_needs_two_paths_and_real_files() {
        let e = bpsim("campaign diff").unwrap_err();
        assert!(e.contains("baseline"));
        let e = bpsim("campaign diff /nonexistent/a.json /nonexistent/b.json").unwrap_err();
        assert!(e.contains("read"));
    }

    #[test]
    fn results_needs_subcommand_and_gc_needs_budget() {
        let e = bpsim("results").unwrap_err();
        assert!(e.contains("stats | gc"));
        let dir = std::env::temp_dir().join(format!("bpsim-results-cli-{}", std::process::id()));
        let at = format!("--results-dir {}", dir.display());
        let e = bpsim(&format!("results gc {at}")).unwrap_err();
        assert!(e.contains("--budget"));
        bpsim(&format!("results stats {at}")).unwrap();
        bpsim(&format!("results gc --budget 1000000 {at}")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("bpsim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bpt2");
        let file = path.display();
        bpsim(&format!(
            "trace gen --bench verilog --len 2000 --out {file}"
        ))
        .unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"BPT2"));
        bpsim(&format!("trace info --file {file}")).unwrap();
    }

    #[test]
    fn quick_experiment_runs() {
        bpsim("experiment fig9 --quick").unwrap();
        bpsim("experiment fig3 --csv").unwrap();
    }

    #[test]
    fn experiment_out_dir_writes_files() {
        let dir = std::env::temp_dir().join("bpsim-out-test");
        let _ = std::fs::remove_dir_all(&dir);
        bpsim(&format!("experiment fig3 --out {}", dir.display())).unwrap();
        assert!(dir.join("fig3.txt").exists());
        assert!(dir.join("fig3-0.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duel_needs_two_specs() {
        let e = bpsim("duel gshare:n=8").unwrap_err();
        assert!(e.contains("two predictor specs"));
    }

    #[test]
    fn duel_runs() {
        bpsim("duel gshare:n=8,h=4 gskew:n=8,h=4 --bench verilog --len 5000").unwrap();
    }

    #[test]
    fn compare_needs_specs() {
        let e = bpsim("compare").unwrap_err();
        assert!(e.contains("at least one"));
    }

    #[test]
    fn compare_rejects_bad_spec() {
        let e = bpsim("compare tage:n=2").unwrap_err();
        assert!(e.contains("unknown predictor"));
    }

    #[test]
    fn compare_runs_two_specs() {
        bpsim("compare gshare:n=8,h=4 gskew:n=8,h=4 --bench verilog --len 3000").unwrap();
    }

    #[test]
    fn run_windowed_chart() {
        bpsim("run --pred gshare:n=8,h=4 --bench verilog --len 6000 --windows 6").unwrap();
        let e = bpsim("run --pred gshare:n=8,h=4 --windows 0").unwrap_err();
        assert!(e.contains("nonzero"));
    }

    #[test]
    fn run_on_one_bench() {
        bpsim("run --pred gskew:n=8,h=4 --bench verilog --len 5000").unwrap();
    }
}
