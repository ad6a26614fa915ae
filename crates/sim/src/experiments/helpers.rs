//! Shared plumbing for the experiment modules.

use super::ExperimentOpts;
use crate::engine::{NovelPolicy, RunResult};
use crate::kernel::{self, PredictorKernel};
use crate::report::{pct, Table};
use crate::resume::{self, Unit, Workload};
use crate::runner::parallel_map;
use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_aliasing::three_c::ThreeCCounts;
use bpred_core::spec::PredictorSpec;
use bpred_trace::cache;
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::{Records, TraceColumns};
use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global workload seed base used by every experiment helper.
/// Defaults to [`DEFAULT_SEED_BASE`] (byte-identical traces to every
/// prior release); the CLI's `--seed` overrides it. Only single-threaded
/// entry points should set it.
static SEED_BASE: AtomicU64 = AtomicU64::new(DEFAULT_SEED_BASE);

/// Set the workload seed base the experiment helpers generate under.
pub fn set_workload_seed(base: u64) {
    SEED_BASE.store(base, Ordering::Relaxed);
}

/// The workload seed base currently in effect.
pub fn workload_seed() -> u64 {
    SEED_BASE.load(Ordering::Relaxed)
}

/// The benchmark trace bounded to `len` conditional branches, generated
/// under the current [`workload_seed`] and served from the process-wide
/// trace cache: repeated calls with the same arguments share one
/// `Arc<TraceColumns>` instead of regenerating the workload.
pub fn columns(bench: IbsBenchmark, len: u64) -> Arc<TraceColumns> {
    cache::columns_seeded(bench, len, workload_seed())
}

/// The records of [`columns`]`(bench, len)`, in order.
pub fn records(bench: IbsBenchmark, len: u64) -> Records<Arc<TraceColumns>> {
    columns(bench, len).into_records()
}

/// Simulate a predictor spec over one benchmark and return the
/// misprediction percentage (novel references counted normally). Runs
/// as a one-cell batch of the cell pipeline ([`crate::resume`]): a cell
/// already produced in this process, or stored when resuming, is served
/// without simulating, and a produced one is saved when saving is
/// enabled.
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub fn sim_pct(spec: &str, bench: IbsBenchmark, len: u64) -> f64 {
    let unit = Unit::Spec(spec.to_string());
    resume::run_cells(&[(bench, len)], NovelPolicy::Count, &[unit], 1)[0][0][0].mispredict_pct()
}

/// Records per column chunk in [`stream_kernels`].
const STREAM_CHUNK: usize = 1 << 16;

/// Run table-kernel `specs` over a bespoke record stream — a reseeded or
/// mixed workload the trace cache does not hold. The stream is generated
/// once and walked a column chunk at a time (kernels carry their state
/// from one `run` to the next), so it is never resident whole. Results
/// are parallel to `specs`; no prediction is novel.
///
/// # Panics
///
/// Panics on an invalid spec or one without a table kernel — experiment
/// code owns its specs.
pub(crate) fn stream_kernels(
    specs: &[&str],
    records: impl Iterator<Item = BranchRecord>,
) -> Vec<RunResult> {
    let mut kernels: Vec<PredictorKernel> = specs
        .iter()
        .map(|s| {
            let parsed = PredictorSpec::parse(s).expect("valid spec");
            PredictorKernel::from_spec(&parsed).expect("a table-kernel family")
        })
        .collect();
    let mut results = vec![RunResult::default(); specs.len()];
    let mut records = records.peekable();
    while records.peek().is_some() {
        let chunk: TraceColumns = records.by_ref().take(STREAM_CHUNK).collect();
        for (kernel, total) in kernels.iter_mut().zip(&mut results) {
            let part = kernel.run(&chunk);
            total.conditional += part.conditional;
            total.mispredicted += part.mispredicted;
        }
    }
    results
}

/// Build a benchmark-per-column table by evaluating `cell(row, w)` for
/// every row and workload `w` of [`ExperimentOpts::workloads`] in
/// parallel. `cell` returns a percentage.
pub fn bench_sweep_table(
    title: impl Into<String>,
    first_column: &str,
    row_labels: &[String],
    opts: &ExperimentOpts,
    cell: impl Fn(usize, usize) -> f64 + Sync,
) -> Table {
    let benches = IbsBenchmark::all().len();
    let tasks: Vec<usize> = (0..row_labels.len() * benches).collect();
    let cells = parallel_map(tasks, opts.threads, |i| cell(i / benches, i % benches));
    Table::per_bench(title, first_column, row_labels, |row, w| {
        pct(cells[row * benches + w])
    })
}

/// Build a benchmark-per-column table where row `i` is the predictor
/// spec `spec_for_row(i)`, as one batch of the cell pipeline
/// ([`crate::resume`]) over every benchmark: reused or stored cells are
/// served and the rest run as one job list, each benchmark's trace
/// walked by its own jobs. Bit-identical to calling [`sim_pct`] per cell.
///
/// Novel references are counted normally ([`NovelPolicy::Count`]), as in
/// [`sim_pct`].
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub fn spec_sweep_table(
    title: impl Into<String>,
    first_column: &str,
    row_labels: &[String],
    opts: &ExperimentOpts,
    spec_for_row: impl Fn(usize) -> String,
) -> Table {
    let units: Vec<Unit> = (0..row_labels.len())
        .map(|row| Unit::Spec(spec_for_row(row)))
        .collect();
    let cells = resume::run_cells(&opts.workloads(), NovelPolicy::Count, &units, opts.threads);
    Table::per_bench(title, first_column, row_labels, |row, b| {
        pct(cells[b][row][0].mispredict_pct())
    })
}

/// Classify a whole three-C grid over every workload, batched: one
/// direct-mapped kernel pass per cell plus one shared-distance
/// fully-associative pass per distinct history length, each over its
/// workload's cached column view. Results are one list per workload,
/// parallel to `cells` and bit-identical to running `ThreeCClassifier`
/// per cell.
///
/// The passes are units of the cell pipeline ([`crate::resume`]), so
/// only the units neither produced earlier in the process nor stored
/// run, and a warm rerun touches no trace at all.
pub(crate) fn three_c_grid(
    workloads: &[Workload],
    cells: &[ThreeCCell],
    threads: usize,
) -> Vec<Vec<ThreeCCounts>> {
    let groups = batch::fa_groups(cells);
    let units: Vec<Unit> = cells
        .iter()
        .map(|&cell| Unit::Dm(cell))
        .chain(groups.iter().map(|(history_bits, capacities)| Unit::Fa {
            history_bits: *history_bits,
            capacities: capacities.clone(),
        }))
        .collect();
    let results = resume::run_cells(workloads, NovelPolicy::Count, &units, threads);
    results
        .iter()
        .map(|results| {
            let (dm, fa) = results.split_at(cells.len());
            let dm: Vec<_> = dm.iter().map(|r| kernel::dm_counts(r)).collect();
            let fa: Vec<_> = fa.iter().map(|r| kernel::fa_counts(r)).collect();
            batch::assemble(cells, &groups, &dm, &fa)
        })
        .collect()
}

/// Power-of-two size labels `2^lo ..= 2^hi`.
pub fn size_labels(lo: u32, hi: u32) -> Vec<String> {
    (lo..=hi).map(|n| format!("{}", 1u64 << n)).collect()
}

/// History-length labels `lo ..= hi`.
pub fn history_labels(lo: u32, hi: u32) -> Vec<String> {
    (lo..=hi).map(|h| h.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(size_labels(4, 6), vec!["16", "32", "64"]);
        assert_eq!(history_labels(0, 2), vec!["0", "1", "2"]);
    }

    #[test]
    fn sim_pct_runs_a_tiny_workload() {
        let p = sim_pct("gshare:n=10,h=4", IbsBenchmark::Verilog, 5_000);
        assert!((0.0..=100.0).contains(&p));
        assert!(p > 0.0, "some mispredictions expected");
    }

    #[test]
    fn sweep_table_shape() {
        let opts = ExperimentOpts::quick();
        let rows = vec!["a".to_string(), "b".to_string()];
        let t = bench_sweep_table("t", "x", &rows, &opts, |row, _| row as f64);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.columns().len(), 7);
        assert_eq!(t.rows()[1][1], "1.00");
    }

    #[test]
    fn spec_sweep_matches_per_cell_sim_pct() {
        // The batched path must render exactly the table the per-cell
        // path would: same accounting, same formatting, cell by cell.
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(8_000);
        let rows = vec!["8".to_string(), "10".to_string()];
        let ns = [8u32, 10];
        let batched = spec_sweep_table("t", "n", &rows, &opts, |row| {
            format!("gshare:n={},h=4", ns[row])
        });
        let workloads = opts.workloads();
        let per_cell = bench_sweep_table("t", "n", &rows, &opts, |row, w| {
            let (bench, len) = workloads[w];
            sim_pct(&format!("gshare:n={},h=4", ns[row]), bench, len)
        });
        assert_eq!(batched.rows(), per_cell.rows());
    }
}
