//! One pass of the simulator benchmark, in a process of its own.
//!
//! `run.py` starts this binary once per pass, so every pass begins with
//! empty process-global state (trace cache, workload seed, resume
//! context, engine counters) and owns its peak RSS. Every mode prints one
//! JSON object of measurements as its last line on stdout:
//!
//! - `setup`: build the workload's traces (and open its store), nothing
//!   else.
//! - `cold`: set up, then run the workload through `bpred_cli::dispatch`,
//!   the code path of the `gskew` binary.
//! - `warm`: `campaign quick --resume` against the store that a `cold`
//!   store-roundtrip pass filled, with no traces built beforehand.
//! - `check-store`: reopen that store and count the records the cold pass
//!   saved that `get` can no longer serve; `--replay` also times `put`
//!   and `get` by replaying those records into a fresh store.
//! - `drop-record`: delete one record of that store (for the self-test).
//! - `trace`: the traced run. It times each call into a layer (trace
//!   synthesis, column build, one experiment, artifact capture, campaign
//!   diff, three-C units) and reads the layers' own counters.
//!
//! Usage: `perfbench <mode> --workload <name> --seed <n> --threads <t>
//! --dir <run dir> [--len <n>] [--reference <artifact.json>] [--replay]`

use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_core::index::IndexFunction;
use bpred_results::campaign::{self as results_campaign, CampaignArtifact};
use bpred_results::store::{self, ResultsStore};
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume::{self, ENGINE_VERSION};
use bpred_sim::{campaign, kernel, timing};
use bpred_trace::cache;
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;

/// Experiments whose custom loops the per-layer breakdown always times,
/// even on workloads that do not run them (see `trace`).
const PROBED_EXPERIMENTS: &[&str] = &["fig11", "ext-nature"];

/// The experiment the store probe saves on workloads without a store.
const STORE_PROBE_EXPERIMENT: &str = "fig5";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    QuickCampaign,
    AllQuick,
    StoreRoundtrip,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "quick-campaign" => Ok(Workload::QuickCampaign),
            "all-quick" => Ok(Workload::AllQuick),
            "store-roundtrip" => Ok(Workload::StoreRoundtrip),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn has_store(self) -> bool {
        self == Workload::StoreRoundtrip
    }

    fn experiment_ids(self) -> Vec<&'static str> {
        match self {
            Workload::AllQuick => experiments::ALL_IDS.to_vec(),
            Workload::QuickCampaign | Workload::StoreRoundtrip => campaign::find("quick")
                .expect("the quick campaign is defined")
                .experiments
                .to_vec(),
        }
    }
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    threads: usize,
    len: Option<u64>,
    dir: PathBuf,
    reference: Option<PathBuf>,
    replay: bool,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut it = raw.into_iter();
        let mode = it.next().ok_or("missing mode")?;
        let (mut workload, mut seed, mut threads, mut len, mut dir, mut reference) =
            (None, None, None, None, None, None);
        let mut replay = false;
        while let Some(flag) = it.next() {
            if flag == "--replay" {
                replay = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(number()?),
                "--threads" => threads = Some(number()?.max(1) as usize),
                "--len" => len = Some(number()?),
                "--dir" => dir = Some(PathBuf::from(&value)),
                "--reference" => reference = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            mode,
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            threads: threads.ok_or("missing --threads")?,
            len,
            dir: dir.ok_or("missing --dir")?,
            reference,
            replay,
        })
    }

    fn opts(&self) -> ExperimentOpts {
        ExperimentOpts {
            len_override: self.len,
            threads: self.threads,
            quick: true,
        }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// The flags every `dispatch` call of this pass shares.
    fn common_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--threads".to_string(),
            self.threads.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if let Some(len) = self.len {
            flags.extend(["--len".to_string(), len.to_string()]);
        }
        flags
    }

    /// The command line a user would give `gskew` for this workload.
    fn work_command(&self) -> Vec<String> {
        let mut command: Vec<String> = match self.workload {
            Workload::AllQuick => vec![
                "experiment".into(),
                "all".into(),
                "--quick".into(),
                "--out".into(),
                self.path("tables"),
            ],
            Workload::QuickCampaign => vec![
                "campaign".into(),
                "quick".into(),
                "--out".into(),
                self.path("artifact.json"),
            ],
            Workload::StoreRoundtrip => vec![
                "campaign".into(),
                "quick".into(),
                "--save-results".into(),
                "--results-dir".into(),
                self.path("store"),
                "--out".into(),
                self.path("artifact.json"),
            ],
        };
        command.extend(self.common_flags());
        command
    }
}

/// Named measurements, printed as one flat JSON object.
#[derive(Default)]
struct Report(Vec<(String, f64)>);

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.0.len());
        for (name, value) in &self.0 {
            if !value.is_finite() {
                return Err(format!("{name} is not a finite number: {value}"));
            }
            fields.push(format!("\"{name}\":{value:?}"));
        }
        Ok(format!("{{{}}}", fields.join(",")))
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// User plus system CPU seconds of this process so far, every thread
/// included, from `/proc/self/stat` (fields 14 and 15, in the kernel's
/// fixed 100 Hz user-visible clock ticks).
fn process_cpu_s() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let after_name = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or("/proc/self/stat: no command name")?;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse().ok())
            .ok_or(format!("/proc/self/stat: bad field {field}"))
    };
    Ok((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Build the workload's traces into the trace cache at the lengths the
/// experiments ask for, and open its results store: everything a pass
/// does before its first cell. Returns the wall seconds taken.
fn set_up(args: &Args) -> Result<f64, String> {
    let start = Instant::now();
    let opts = args.opts();
    for bench in IbsBenchmark::all() {
        cache::columns_seeded(bench, opts.len_for(bench), args.seed);
    }
    if args.workload.has_store() {
        ResultsStore::open(args.path("store"))?;
    }
    Ok(seconds_since(start))
}

/// Write the fingerprints a freshly opened store at `dir` lists to
/// `list`, one hex value a line.
fn list_saved(dir: &str, list: &str) -> Result<(), String> {
    let mut fingerprints = ResultsStore::open(dir)?.fingerprints();
    fingerprints.sort_unstable();
    let text: String = fingerprints
        .iter()
        .map(|fp| format!("{fp:016x}\n"))
        .collect();
    fs::write(list, text).map_err(|e| format!("write {list}: {e}"))
}

fn cold(args: &Args) -> Result<Report, String> {
    let setup_s = set_up(args)?;
    let cpu_before = process_cpu_s()?;
    let start = Instant::now();
    bpred_cli::dispatch(args.work_command())?;
    let run_s = seconds_since(start);
    let mut report = Report::default();
    report.put("setup_s", setup_s);
    report.put("run_s", run_s);
    report.put("work_cpu_s", process_cpu_s()? - cpu_before);
    if args.workload.has_store() {
        list_saved(&args.path("store"), &args.path("saved.txt"))?;
    }
    Ok(report)
}

fn warm(args: &Args) -> Result<Report, String> {
    let mut command: Vec<String> = vec![
        "campaign".into(),
        "quick".into(),
        "--resume".into(),
        "--results-dir".into(),
        args.path("store"),
        "--out".into(),
        args.path("warm.json"),
    ];
    command.extend(args.common_flags());
    let start = Instant::now();
    bpred_cli::dispatch(command)?;
    let resume_s = seconds_since(start);
    let counts = resume::stats();
    let mut report = Report::default();
    report.put("resume_s", resume_s);
    report.put("trace.generated", cache::stats().misses as f64);
    report.put("resume.skipped", counts.cells_skipped as f64);
    report.put("resume.simulated", counts.cells_simulated as f64);
    Ok(report)
}

/// Reopen the store at `dir` and check every fingerprint listed in
/// `list` is still served; with `replay`, also time `put` and `get` by
/// replaying the store's records into a fresh store at `replay_dir`.
fn store_layer(dir: &str, list: &str, replay_dir: Option<&str>) -> Result<Report, String> {
    let text = fs::read_to_string(list).map_err(|e| format!("read {list}: {e}"))?;
    let expected = text
        .lines()
        .map(|line| u64::from_str_radix(line, 16).map_err(|e| format!("{list}: {line}: {e}")))
        .collect::<Result<Vec<u64>, String>>()?;
    let start = Instant::now();
    let store = ResultsStore::open(dir)?;
    let open_s = seconds_since(start);
    let lost = expected
        .iter()
        .filter(|&&fp| store.get(fp).is_none())
        .count();
    let mut report = Report::default();
    report.put("store.saved", expected.len() as f64);
    report.put("store.lost", lost as f64);
    report.put("results.open_s", open_s);
    report.put("results.records", store.len() as f64);
    report.put("results.bytes", store.total_bytes() as f64);
    if let Some(replay_dir) = replay_dir {
        let records = store.records();
        if records.is_empty() {
            return Err(format!("store {dir} holds no records to replay"));
        }
        let mut fresh = ResultsStore::open(replay_dir)?;
        let start = Instant::now();
        for record in &records {
            fresh.put(record)?;
        }
        let put_ms = 1e3 * seconds_since(start) / records.len() as f64;
        let start = Instant::now();
        let served = records
            .iter()
            .filter(|r| fresh.get(r.fingerprint).is_some())
            .count();
        let get_ms = 1e3 * seconds_since(start) / records.len() as f64;
        if served != records.len() {
            return Err(format!(
                "replayed store served {served} of {} records",
                records.len()
            ));
        }
        report.put("results.put_ms", put_ms);
        report.put("results.get_ms", get_ms);
    }
    Ok(report)
}

fn check_store(args: &Args) -> Result<Report, String> {
    let replay_dir = args.path("replay-store");
    store_layer(
        &args.path("store"),
        &args.path("saved.txt"),
        args.replay.then_some(replay_dir.as_str()),
    )
}

/// Delete the oldest record of the store through its own `gc`, so the
/// self-test can check that `check-store` notices a lost record.
fn drop_record(args: &Args) -> Result<Report, String> {
    let mut store = ResultsStore::open(args.path("store"))?;
    let budget = store.total_bytes().saturating_sub(1);
    let mut report = Report::default();
    report.put("removed", store.gc(budget)?.removed as f64);
    Ok(report)
}

/// The three-C grid of the `three-c` experiment: 13 sizes × gshare and
/// gselect indexing, 8 bits of history.
fn three_c_grid() -> Vec<ThreeCCell> {
    (6..=18)
        .flat_map(|entries_log2| {
            [IndexFunction::Gshare, IndexFunction::Gselect].map(|func| ThreeCCell {
                entries_log2,
                history_bits: 8,
                func,
            })
        })
        .collect()
}

/// Write one experiment's tables the way `gskew experiment --out DIR`
/// does: one CSV per table plus the rendered text.
fn write_tables(dir: &Path, output: &experiments::ExperimentOutput) -> Result<(), String> {
    let id = output.id;
    for (i, table) in output.tables.iter().enumerate() {
        let path = dir.join(format!("{id}-{i}.csv"));
        fs::write(&path, table.to_csv()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let path = dir.join(format!("{id}.txt"));
    fs::write(&path, output.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn trace(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let opts = args.opts();

    // Trace layer: synthesis and column build, timed on their own.
    let (mut synth_s, mut columns_s, mut records) = (0.0, 0.0, 0usize);
    for bench in IbsBenchmark::all() {
        let start = Instant::now();
        let trace: Vec<BranchRecord> = bench
            .spec_seeded(args.seed)
            .build()
            .take_conditionals(opts.len_for(bench))
            .collect();
        synth_s += seconds_since(start);
        let start = Instant::now();
        let columns = TraceColumns::from_records(&trace);
        columns_s += seconds_since(start);
        records += std::hint::black_box(columns).len();
    }
    report.put("trace.synth_s", synth_s);
    report.put("trace.columns_s", columns_s);
    report.put("trace.records", records as f64);

    set_up(args)?;
    experiments::set_workload_seed(args.seed);
    if args.workload.has_store() {
        resume::configure(ResultsStore::open(args.path("store"))?, false, true);
    }
    let engine_before = timing::stats();
    let cache_before = cache::stats();

    // The work phase, one span per experiment and per artifact write.
    let tables_dir = args.dir.join("tables");
    fs::create_dir_all(&tables_dir).map_err(|e| format!("create {}: {e}", tables_dir.display()))?;
    let mut spans_s = 0.0;
    let mut capture_s = 0.0;
    let mut captured = Vec::new();
    let start = Instant::now();
    for id in args.workload.experiment_ids() {
        let span = Instant::now();
        let output = experiments::run(id, &opts).ok_or(format!("unknown experiment `{id}`"))?;
        let exp_s = seconds_since(span);
        report.put(format!("exp.{id}.s"), exp_s);
        let span = Instant::now();
        let capture = campaign::capture(&output);
        if args.workload == Workload::AllQuick {
            write_tables(&tables_dir, &output)?;
        }
        capture_s += seconds_since(span);
        spans_s += exp_s;
        captured.push(capture);
    }
    let span = Instant::now();
    let artifact = CampaignArtifact {
        name: match args.workload {
            Workload::AllQuick => "all-quick".to_string(),
            _ => "quick".to_string(),
        },
        engine_version: ENGINE_VERSION.to_string(),
        seed: args.seed,
        experiments: captured,
    };
    if args.workload != Workload::AllQuick {
        let text = artifact.to_pretty_string();
        store::write_atomic(Path::new(&args.path("artifact.json")), text.as_bytes())?;
    }
    capture_s += seconds_since(span);
    let run_s = seconds_since(start);
    spans_s += capture_s;
    // Kept for building references; written after the timed work.
    fs::write(args.path("captured.json"), artifact.to_pretty_string())
        .map_err(|e| format!("write captured.json: {e}"))?;

    report.put("traced_run_s", run_s);
    report.put("report.capture_s", capture_s);
    report.put("bench.coverage", spans_s / run_s);

    let engine = timing::stats();
    let kernel_apps = engine.kernel_applications - engine_before.kernel_applications;
    let kernel_s = (engine.kernel_nanos - engine_before.kernel_nanos) as f64 / 1e9;
    let dyn_apps = engine.dyn_applications - engine_before.dyn_applications;
    let dyn_s = (engine.dyn_nanos - engine_before.dyn_nanos) as f64 / 1e9;
    let rate = |apps: u64, s: f64| if s > 0.0 { apps as f64 / s } else { 0.0 };
    report.put("kernel.apps", kernel_apps as f64);
    report.put("kernel.cpu_s", kernel_s);
    report.put("kernel.rate", rate(kernel_apps, kernel_s));
    report.put("engine.dyn_apps", dyn_apps as f64);
    report.put("engine.dyn_cpu_s", dyn_s);
    report.put("engine.dyn_rate", rate(dyn_apps, dyn_s));

    let cached = cache::stats();
    report.put("trace.resident_mib", cached.resident_bytes as f64 / MIB);
    report.put("trace.hit_ratio", cached.hit_ratio());
    report.put(
        "trace.generated",
        (cached.misses - cache_before.misses) as f64,
    );
    let counts = resume::stats();
    report.put("resume.saved", counts.records_saved as f64);
    report.put("resume.skipped", counts.cells_skipped as f64);
    report.put("resume.simulated", counts.cells_simulated as f64);
    if args.workload.has_store() {
        resume::deconfigure();
        list_saved(&args.path("store"), &args.path("saved.txt"))?;
    }

    // Results layer: the campaign diff against the reference.
    if let Some(path) = &args.reference {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let reference = CampaignArtifact::parse(&text)?;
        let span = Instant::now();
        std::hint::black_box(results_campaign::diff(&reference, &artifact, 0.0));
        report.put("results.diff_s", seconds_since(span));
    }

    // Aliasing layer: the three-c grid's units over each cached trace.
    let grid = three_c_grid();
    let groups = batch::fa_groups(&grid);
    let (mut dm_ms, mut fa_ms) = (0.0, 0.0);
    for bench in IbsBenchmark::all() {
        let columns = cache::columns_seeded(bench, opts.len_for(bench), args.seed);
        let (dm, fa) = kernel::run_three_c_units(&grid, &groups, &columns, args.threads);
        dm_ms += dm.iter().map(|(_, ms)| ms).sum::<f64>();
        fa_ms += fa.iter().map(|(_, ms)| ms).sum::<f64>();
    }
    report.put("aliasing.dm_s", dm_ms / 1e3);
    report.put("aliasing.fa_s", fa_ms / 1e3);

    // Custom loops this workload does not run, timed as probes so every
    // workload reports them; they are outside the traced run.
    let ids = args.workload.experiment_ids();
    for id in PROBED_EXPERIMENTS.iter().filter(|id| !ids.contains(id)) {
        let span = Instant::now();
        experiments::run(id, &opts).ok_or(format!("unknown experiment `{id}`"))?;
        report.put(format!("exp.{id}.s"), seconds_since(span));
    }

    // Results store layer. The store workload measures its own store in
    // `check-store`; the others save one experiment into a probe store.
    if !args.workload.has_store() {
        let mut command: Vec<String> = vec![
            "experiment".into(),
            STORE_PROBE_EXPERIMENT.into(),
            "--quick".into(),
            "--save-results".into(),
            "--results-dir".into(),
            args.path("probe-store"),
            "--out".into(),
            args.path("probe-tables"),
        ];
        command.extend(args.common_flags());
        bpred_cli::dispatch(command)?;
        let list = args.path("probe-saved.txt");
        list_saved(&args.path("probe-store"), &list)?;
        let probe = store_layer(
            &args.path("probe-store"),
            &list,
            Some(&args.path("replay-store")),
        )?;
        report.0.extend(probe.0);
    }
    Ok(report)
}

fn run(raw: Vec<String>) -> Result<Report, String> {
    let args = Args::parse(raw)?;
    fs::create_dir_all(&args.dir).map_err(|e| format!("create {}: {e}", args.dir.display()))?;
    match args.mode.as_str() {
        "setup" => {
            let mut report = Report::default();
            report.put("setup_s", set_up(&args)?);
            Ok(report)
        }
        "cold" => cold(&args),
        "warm" => warm(&args),
        "check-store" => check_store(&args),
        "drop-record" => drop_record(&args),
        "trace" => trace(&args),
        other => Err(format!("unknown mode `{other}`")),
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()).and_then(|report| report.to_json()) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
