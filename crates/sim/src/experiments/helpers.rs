//! Shared plumbing for the experiment modules.

use super::ExperimentOpts;
use crate::engine::{self, NovelPolicy, RunResult};
use crate::kernel::{self, PredictorKernel};
use crate::report::{pct, Table};
use crate::resume;
use crate::runner::parallel_map;
use bpred_aliasing::batch::ThreeCCell;
use bpred_aliasing::three_c::ThreeCCounts;
use bpred_core::spec::PredictorSpec;
use bpred_results::record::CellKey;
use bpred_trace::cache;
use bpred_trace::soa::{Records, TraceColumns};
use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-global workload seed base used by every experiment helper.
/// Defaults to [`DEFAULT_SEED_BASE`] (byte-identical traces to every
/// prior release); the CLI's `--seed` overrides it. Like the trace-cache
/// switch, only single-threaded entry points should set it.
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
/// misprediction percentage (novel references counted normally).
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub fn sim_pct(spec: &str, bench: IbsBenchmark, len: u64) -> f64 {
    sim_pct_with(spec, bench, len, NovelPolicy::Count)
}

/// [`sim_pct`] with an explicit novel-reference policy.
pub fn sim_pct_with(spec: &str, bench: IbsBenchmark, len: u64, policy: NovelPolicy) -> f64 {
    sim_cell(spec, bench, len, policy).mispredict_pct()
}

/// Simulate one cell, consulting the results store first when one is
/// attached ([`crate::resume`]): a fingerprint-identical hit returns the
/// stored counts without touching the engine, and misses are persisted
/// when saving is enabled. With no store attached this is exactly the
/// plain simulate path.
fn sim_cell(spec: &str, bench: IbsBenchmark, len: u64, policy: NovelPolicy) -> RunResult {
    let seed = workload_seed();
    let simulate = || {
        // Kernel fast path when the spec has one (bit-identical to the
        // dyn engine under either novel policy); `dyn` otherwise.
        let structured =
            PredictorSpec::parse(spec).unwrap_or_else(|e| panic!("bad spec `{spec}`: {e}"));
        let cols = cache::columns_seeded(bench, len, seed);
        if let Some(mut kernel) = PredictorKernel::from_spec(&structured) {
            return kernel.run(&cols);
        }
        let mut predictor = structured
            .build()
            .unwrap_or_else(|e| panic!("bad spec `{spec}`: {e}"));
        engine::run_with(&mut predictor, cols.records(), policy)
    };
    if !resume::is_active() {
        return simulate();
    }
    let (key, fingerprint) = resume::cell(spec, bench, len, seed, policy);
    if let Some(hit) = resume::lookup(fingerprint) {
        return hit;
    }
    let start = Instant::now();
    let result = simulate();
    resume::record(
        key,
        fingerprint,
        result,
        start.elapsed().as_secs_f64() * 1e3,
    );
    result
}

/// Build a benchmark-per-column table by evaluating `cell` for every
/// `(row, benchmark)` pair in parallel. `cell` returns a percentage.
pub fn bench_sweep_table(
    title: impl Into<String>,
    first_column: &str,
    row_labels: &[String],
    opts: &ExperimentOpts,
    cell: impl Fn(usize, IbsBenchmark) -> f64 + Sync,
) -> Table {
    let mut columns = vec![first_column.to_string()];
    columns.extend(IbsBenchmark::all().iter().map(|b| b.name().to_string()));
    let mut table = Table::new(title, columns);

    let tasks: Vec<(usize, IbsBenchmark)> = (0..row_labels.len())
        .flat_map(|row| IbsBenchmark::all().into_iter().map(move |b| (row, b)))
        .collect();
    let cells = parallel_map(tasks, opts.threads, |(row, bench)| cell(row, bench));

    let per_row = IbsBenchmark::all().len();
    for (row, label) in row_labels.iter().enumerate() {
        let mut cells_for_row = vec![label.clone()];
        cells_for_row.extend(
            cells[row * per_row..(row + 1) * per_row]
                .iter()
                .map(|&v| pct(v)),
        );
        table.push_row(cells_for_row);
    }
    table
}

/// Build a benchmark-per-column table where row `i` is the predictor
/// spec `spec_for_row(i)`, batched: each benchmark's column is produced
/// from one cached trace, with every kernel-eligible row running as a
/// monomorphized kernel and the rest sharing a single
/// [`engine::run_many`] pass. Bit-identical to calling [`sim_pct`] per
/// cell, but an R-row table costs one trace walk per benchmark instead
/// of R.
///
/// Novel references are counted normally ([`NovelPolicy::Count`]), as in
/// [`sim_pct`]; use [`spec_sweep_table_with`] for an explicit policy.
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub fn spec_sweep_table(
    title: impl Into<String>,
    first_column: &str,
    row_labels: &[String],
    opts: &ExperimentOpts,
    spec_for_row: impl Fn(usize) -> String + Sync,
) -> Table {
    spec_sweep_table_with(
        title,
        first_column,
        row_labels,
        opts,
        spec_for_row,
        NovelPolicy::Count,
    )
}

/// [`spec_sweep_table`] with an explicit novel-reference policy.
pub fn spec_sweep_table_with(
    title: impl Into<String>,
    first_column: &str,
    row_labels: &[String],
    opts: &ExperimentOpts,
    spec_for_row: impl Fn(usize) -> String + Sync,
    policy: NovelPolicy,
) -> Table {
    let mut columns = vec![first_column.to_string()];
    columns.extend(IbsBenchmark::all().iter().map(|b| b.name().to_string()));
    let mut table = Table::new(title, columns);

    let rows = row_labels.len();
    let seed = workload_seed();
    // One task per benchmark: the per-benchmark trace is the shared
    // resource, so it is also the unit of parallelism. Within a
    // benchmark, rows route through `kernel::run_specs` — supported
    // specs run as monomorphized kernels split across the leftover
    // worker budget, the rest ride one batched `run_many` pass. With a
    // results store attached, stored rows are adopted and only the
    // missing ones are simulated.
    let inner_threads = (opts.threads / IbsBenchmark::all().len()).max(1);
    let per_bench: Vec<Vec<f64>> =
        parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
            let len = opts.len_for(bench);
            let specs: Vec<String> = (0..rows).map(&spec_for_row).collect();
            let simulate = |specs: &[String]| -> Vec<RunResult> {
                let cols = cache::columns_seeded(bench, len, seed);
                kernel::run_specs(specs, &cols, policy, inner_threads)
                    .unwrap_or_else(|e| panic!("bad spec in sweep: {e}"))
            };

            if !resume::is_active() {
                return simulate(&specs)
                    .into_iter()
                    .map(|r| r.mispredict_pct())
                    .collect();
            }

            let keys: Vec<(CellKey, u64)> = specs
                .iter()
                .map(|spec| resume::cell(spec, bench, len, seed, policy))
                .collect();
            let mut results: Vec<Option<RunResult>> = keys
                .iter()
                .map(|&(_, fingerprint)| resume::lookup(fingerprint))
                .collect();
            let missing: Vec<usize> = (0..rows).filter(|&row| results[row].is_none()).collect();
            if !missing.is_empty() {
                let missing_specs: Vec<String> =
                    missing.iter().map(|&row| specs[row].clone()).collect();
                let start = Instant::now();
                let simulated = simulate(&missing_specs);
                // The trace walk is shared; bill it evenly per cell.
                let per_cell_ms = start.elapsed().as_secs_f64() * 1e3 / missing.len() as f64;
                for (&row, result) in missing.iter().zip(simulated) {
                    let (key, fingerprint) = keys[row].clone();
                    resume::record(key, fingerprint, result, per_cell_ms);
                    results[row] = Some(result);
                }
            }
            results
                .into_iter()
                .map(|r| r.expect("every row resolved").mispredict_pct())
                .collect()
        });

    for (row, label) in row_labels.iter().enumerate() {
        let mut cells = vec![label.clone()];
        cells.extend(per_bench.iter().map(|col| pct(col[row])));
        table.push_row(cells);
    }
    table
}

/// Classify a whole three-C grid over one benchmark trace, batched: one
/// direct-mapped kernel pass per cell plus one shared-distance
/// fully-associative pass per distinct history length, all over a single
/// cached column view ([`kernel::run_three_c`]). Results are parallel to
/// `cells` and bit-identical to running `ThreeCClassifier` per cell.
///
/// With a results store attached ([`crate::resume`]), stored units are
/// adopted and only the missing ones run: direct-mapped units are keyed
/// per cell ([`resume::alias_dm_cell`]) and fully-associative units per
/// `(capacity, history)` — shared across index functions — so a warm
/// rerun touches no trace at all.
pub(crate) fn three_c_grid(
    bench: IbsBenchmark,
    len: u64,
    cells: &[ThreeCCell],
    threads: usize,
) -> Vec<ThreeCCounts> {
    use bpred_aliasing::batch::{self, DmCounts, FaCounts};
    let seed = workload_seed();
    if !resume::is_active() {
        let cols = cache::columns_seeded(bench, len, seed);
        return kernel::run_three_c(cells, &cols, threads);
    }

    let groups = batch::fa_groups(cells);
    let dm_keys: Vec<(CellKey, u64)> = cells
        .iter()
        .map(|cell| resume::alias_dm_cell(cell, bench, len, seed))
        .collect();
    // One FA key per (capacity, history) coordinate of each group.
    let fa_keys: Vec<Vec<(CellKey, u64)>> = groups
        .iter()
        .map(|(h, caps)| {
            caps.iter()
                .map(|&cap| resume::alias_fa_cell(cap.trailing_zeros(), *h, bench, len, seed))
                .collect()
        })
        .collect();

    let mut dm: Vec<Option<DmCounts>> = dm_keys
        .iter()
        .map(|&(_, fp)| {
            resume::lookup(fp).map(|r| DmCounts {
                references: r.conditional,
                misses: r.mispredicted,
                cold_misses: r.novel,
            })
        })
        .collect();
    // An FA group is servable only when *every* capacity of the group is
    // stored (they come from one shared pass, so they are stored
    // together; a partial hit re-runs the whole group).
    let mut fa: Vec<Option<FaCounts>> = fa_keys
        .iter()
        .map(|keys| {
            let hits: Vec<RunResult> = keys
                .iter()
                .map(|&(_, fp)| resume::lookup(fp))
                .collect::<Option<Vec<_>>>()?;
            Some(FaCounts {
                references: hits[0].conditional,
                cold_misses: hits[0].novel,
                misses: hits.iter().map(|r| r.mispredicted).collect(),
            })
        })
        .collect();

    let missing_dm: Vec<usize> = (0..cells.len()).filter(|&i| dm[i].is_none()).collect();
    let missing_fa: Vec<usize> = (0..groups.len()).filter(|&g| fa[g].is_none()).collect();
    if !missing_dm.is_empty() || !missing_fa.is_empty() {
        let cols = cache::columns_seeded(bench, len, seed);
        let run_cells: Vec<ThreeCCell> = missing_dm.iter().map(|&i| cells[i]).collect();
        let run_groups: Vec<(u32, Vec<u64>)> =
            missing_fa.iter().map(|&g| groups[g].clone()).collect();
        let (dm_done, fa_done) = kernel::run_three_c_units(&run_cells, &run_groups, &cols, threads);
        for (&i, (counts, ms)) in missing_dm.iter().zip(dm_done) {
            let (key, fp) = dm_keys[i].clone();
            resume::record(
                key,
                fp,
                RunResult {
                    conditional: counts.references,
                    mispredicted: counts.misses,
                    novel: counts.cold_misses,
                },
                ms,
            );
            dm[i] = Some(counts);
        }
        for (&g, (counts, ms)) in missing_fa.iter().zip(fa_done) {
            // The distance walk is shared by the group; bill it evenly
            // per stored capacity.
            let per_cell_ms = ms / counts.misses.len() as f64;
            for (keyed, &misses) in fa_keys[g].iter().zip(&counts.misses) {
                let (key, fp) = keyed.clone();
                resume::record(
                    key,
                    fp,
                    RunResult {
                        conditional: counts.references,
                        mispredicted: misses,
                        novel: counts.cold_misses,
                    },
                    per_cell_ms,
                );
            }
            fa[g] = Some(counts);
        }
    }

    let dm: Vec<DmCounts> = dm
        .into_iter()
        .map(|c| c.expect("dm unit resolved"))
        .collect();
    let fa: Vec<FaCounts> = fa
        .into_iter()
        .map(|c| c.expect("fa unit resolved"))
        .collect();
    batch::assemble(cells, &groups, &dm, &fa)
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
        let per_cell = bench_sweep_table("t", "n", &rows, &opts, |row, bench| {
            sim_pct(
                &format!("gshare:n={},h=4", ns[row]),
                bench,
                opts.len_for(bench),
            )
        });
        assert_eq!(batched.rows(), per_cell.rows());
    }
}
