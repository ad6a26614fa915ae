//! Results-store integration: persist simulated cells and resume past
//! them.
//!
//! When a [`bpred_results::store::ResultsStore`] is configured here, the
//! experiment helpers ([`crate::experiments::sim_pct`] and the
//! spec-sweep tables) consult it before simulating a cell: a
//! fingerprint-identical hit is adopted wholesale (the stored counts
//! reproduce the cell's rendering byte for byte) and the simulation is
//! skipped, which makes whole experiment reruns incremental across
//! processes — the durable complement of the in-memory trace cache.
//! Misses are simulated normally and, when saving is enabled, appended
//! to this process's segment of the store.
//!
//! The context is process-global by design, mirroring
//! `bpred_trace::cache`: only single-threaded entry points (the CLI)
//! should configure it. Counters are atomic so the parallel sweep
//! workers can report through them.

use crate::engine::{NovelPolicy, RunResult};
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use bpred_trace::workload::IbsBenchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the simulation engine's accounting, fingerprinted into
/// every stored cell. Bump this whenever a change alters what any
/// simulated number *means* (accounting rules, workload synthesis,
/// predictor semantics): old records stop matching and every cell
/// re-simulates instead of silently serving stale numbers.
pub const ENGINE_VERSION: &str = "1";

struct Context {
    store: ResultsStore,
    /// Serve fingerprint hits instead of simulating.
    resume: bool,
    /// Persist simulated cells.
    save: bool,
}

static CONTEXT: Mutex<Option<Context>> = Mutex::new(None);
static CELLS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static CELLS_SIMULATED: AtomicU64 = AtomicU64::new(0);
static RECORDS_SAVED: AtomicU64 = AtomicU64::new(0);
/// The experiment id currently running, stamped into saved records
/// (informational only; not part of the fingerprint).
static EXPERIMENT: Mutex<Option<&'static str>> = Mutex::new(None);

/// Attach a store. `resume` serves fingerprint-identical hits without
/// simulating; `save` persists simulated cells. Both may be set.
pub fn configure(store: ResultsStore, resume: bool, save: bool) {
    *CONTEXT.lock().expect("resume context poisoned") = Some(Context {
        store,
        resume,
        save,
    });
}

/// Detach and return the store, if one was configured.
pub fn deconfigure() -> Option<ResultsStore> {
    CONTEXT
        .lock()
        .expect("resume context poisoned")
        .take()
        .map(|ctx| ctx.store)
}

/// Whether a store is currently attached.
pub fn is_active() -> bool {
    CONTEXT.lock().expect("resume context poisoned").is_some()
}

/// Stamp the experiment id recorded on cells saved from now on.
pub fn set_experiment(id: &'static str) {
    *EXPERIMENT.lock().expect("experiment label poisoned") = Some(id);
}

fn experiment_label() -> String {
    EXPERIMENT
        .lock()
        .expect("experiment label poisoned")
        .unwrap_or("adhoc")
        .to_string()
}

/// Counter snapshot for `--verbose` summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Cells served from the store without simulating.
    pub cells_skipped: u64,
    /// Cells actually simulated while a store was attached.
    pub cells_simulated: u64,
    /// Records written to the store.
    pub records_saved: u64,
}

/// Snapshot the global counters.
pub fn stats() -> ResumeStats {
    ResumeStats {
        cells_skipped: CELLS_SKIPPED.load(Ordering::Relaxed),
        cells_simulated: CELLS_SIMULATED.load(Ordering::Relaxed),
        records_saved: RECORDS_SAVED.load(Ordering::Relaxed),
    }
}

/// The policy's stable name inside cell keys.
pub fn policy_name(policy: NovelPolicy) -> &'static str {
    match policy {
        NovelPolicy::Count => "count",
        NovelPolicy::Exclude => "exclude",
    }
}

/// Build the cell key and fingerprint for one simulation cell. The
/// fingerprint covers the spec, the *full* workload parameter set (the
/// benchmark's seeded `WorkloadSpec`, so recalibrating a workload
/// invalidates its cells), the trace length, seed, accounting policy
/// and [`ENGINE_VERSION`].
pub fn cell(
    spec: &str,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    policy: NovelPolicy,
) -> (CellKey, u64) {
    cell_keyed(spec, bench, len, seed, policy_name(policy))
}

/// [`cell`] with a free-form policy label — the shared core for cells
/// that are not predictor runs (the aliasing cells use the
/// [`ALIAS_POLICY`] label, where a `NovelPolicy` would be meaningless).
pub fn cell_keyed(
    spec: &str,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    policy: &str,
) -> (CellKey, u64) {
    let key = CellKey {
        bench: bench.name().to_string(),
        spec: spec.to_string(),
        len,
        seed,
        policy: policy.to_string(),
    };
    let workload_params = format!("{:?}", bench.spec_seeded(seed));
    let fingerprint = key.fingerprint(&workload_params, ENGINE_VERSION);
    (key, fingerprint)
}

/// Policy label of three-C aliasing cells. Distinct from every
/// [`policy_name`] value, so an aliasing cell can never collide with a
/// predictor cell that happens to share a spec string.
pub const ALIAS_POLICY: &str = "alias";

/// Key + fingerprint of one *direct-mapped* three-C measurement: the
/// tagged-table pass of a grid cell. Stored as `conditional` =
/// references, `mispredicted` = misses, `novel` = cold misses.
pub fn alias_dm_cell(
    cell: &bpred_aliasing::batch::ThreeCCell,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
) -> (CellKey, u64) {
    let spec = format!(
        "3c-dm:ix={},n={},h={}",
        cell.func, cell.entries_log2, cell.history_bits
    );
    cell_keyed(&spec, bench, len, seed, ALIAS_POLICY)
}

/// Key + fingerprint of one *fully-associative* three-C measurement at
/// capacity `2^entries_log2` under `history_bits` of history. Keyed
/// without an index function — the FA reference is shared by every index
/// function of the grid, which is exactly what lets the batched engine
/// (and a resumed rerun) pay for it once. Stored as `conditional` =
/// references, `mispredicted` = misses, `novel` = cold misses.
pub fn alias_fa_cell(
    entries_log2: u32,
    history_bits: u32,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
) -> (CellKey, u64) {
    let spec = format!("3c-fa:n={entries_log2},h={history_bits}");
    cell_keyed(&spec, bench, len, seed, ALIAS_POLICY)
}

/// Look a cell up. `Some` only when a store is attached with resume
/// enabled and it holds a valid record under this fingerprint.
pub fn lookup(fingerprint: u64) -> Option<RunResult> {
    let guard = CONTEXT.lock().expect("resume context poisoned");
    let ctx = guard.as_ref().filter(|ctx| ctx.resume)?;
    let record = ctx.store.get(fingerprint)?;
    CELLS_SKIPPED.fetch_add(1, Ordering::Relaxed);
    Some(RunResult {
        conditional: record.conditional,
        mispredicted: record.mispredicted,
        novel: record.novel,
    })
}

/// Account one simulated cell and persist it when saving is enabled.
/// A write failure is reported to stderr but never fails the sweep —
/// the simulation result is already in hand.
pub fn record(key: CellKey, fingerprint: u64, result: RunResult, elapsed_ms: f64) {
    CELLS_SIMULATED.fetch_add(1, Ordering::Relaxed);
    let mut guard = CONTEXT.lock().expect("resume context poisoned");
    let Some(ctx) = guard.as_mut().filter(|ctx| ctx.save) else {
        return;
    };
    let record = ResultRecord {
        experiment: experiment_label(),
        key,
        fingerprint,
        engine_version: ENGINE_VERSION.to_string(),
        conditional: result.conditional,
        mispredicted: result.mispredicted,
        novel: result.novel,
        elapsed_ms,
    };
    match ctx.store.put(&record) {
        Ok(()) => {
            RECORDS_SAVED.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => eprintln!("bpsim: results store write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_fingerprints_separate_every_coordinate() {
        let (_, base) = cell(
            "gshare:n=10,h=4",
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        let variants = [
            cell(
                "gshare:n=11,h=4",
                IbsBenchmark::Groff,
                1000,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                "gshare:n=10,h=4",
                IbsBenchmark::Gs,
                1000,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                "gshare:n=10,h=4",
                IbsBenchmark::Groff,
                1001,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                "gshare:n=10,h=4",
                IbsBenchmark::Groff,
                1000,
                8,
                NovelPolicy::Count,
            )
            .1,
            cell(
                "gshare:n=10,h=4",
                IbsBenchmark::Groff,
                1000,
                7,
                NovelPolicy::Exclude,
            )
            .1,
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        let (_, again) = cell(
            "gshare:n=10,h=4",
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        assert_eq!(again, base, "fingerprints are stable");
    }

    #[test]
    fn policy_names() {
        assert_eq!(policy_name(NovelPolicy::Count), "count");
        assert_eq!(policy_name(NovelPolicy::Exclude), "exclude");
    }

    #[test]
    fn alias_cells_fingerprint_every_coordinate() {
        use bpred_aliasing::batch::ThreeCCell;
        use bpred_core::index::IndexFunction;
        let cell = ThreeCCell {
            entries_log2: 10,
            history_bits: 4,
            func: IndexFunction::Gshare,
        };
        let (key, base) = alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 7);
        assert_eq!(key.policy, ALIAS_POLICY);
        let variants = [
            alias_dm_cell(
                &ThreeCCell {
                    entries_log2: 11,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(
                &ThreeCCell {
                    history_bits: 5,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(
                &ThreeCCell {
                    func: IndexFunction::Gselect,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(&cell, IbsBenchmark::Gs, 1000, 7).1,
            alias_dm_cell(&cell, IbsBenchmark::Groff, 1001, 7).1,
            alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 8).1,
            // The FA cell of the same geometry is a different cell.
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1,
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        assert_eq!(alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 7).1, base);
        // FA cells ignore the index function by construction: one key per
        // (capacity, history).
        assert_eq!(
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1,
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1
        );
    }

    // Lookup/record behaviour against a real store lives in
    // `tests/resume.rs`: the context is process-global, so it is
    // exercised in a dedicated integration-test process instead of this
    // shared unit-test binary.
}
