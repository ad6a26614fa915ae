//! Results-store integration: persist simulated cells and resume past
//! them.
//!
//! Every cell the experiment helpers produce ([`crate::experiments::sim_pct`],
//! the spec-sweep tables and the three-C grids) goes through one
//! crate-private pipeline, `run_cells`, over *units* of simulation work:
//! a predictor spec, a direct-mapped three-C cell, or one shared
//! fully-associative pass that serves several capacities. With a
//! [`bpred_results::store::ResultsStore`] attached, each unit is keyed
//! (one cell key per stored count set, so an FA unit has one key per
//! capacity) and served from the store only when *every* one of its keys
//! hits; the stored counts reproduce the cell's rendering byte for byte.
//! The remaining units run in one batch over a single cached trace and,
//! when saving is enabled, every key of every simulated unit is appended
//! to this process's segment of the store. A unit is therefore served or
//! simulated whole, never both, so `cells_skipped + cells_simulated`
//! equals the number of cells a run produces. With no store attached the
//! pipeline simulates directly and the counters stand still.
//!
//! The context is process-global by design, mirroring
//! `bpred_trace::cache`: only single-threaded entry points (the CLI)
//! should configure it. Counters are atomic so the parallel sweep
//! workers can report through them.

use crate::engine::{NovelPolicy, RunResult};
use crate::experiments::workload_seed;
use crate::kernel;
use bpred_aliasing::batch::{DmCounts, FaCounts, ThreeCCell};
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use bpred_trace::cache;
use bpred_trace::workload::IbsBenchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// Policy label of three-C aliasing cells. Distinct from every
/// [`policy_name`] value, so an aliasing cell can never collide with a
/// predictor cell that happens to share a spec string.
pub const ALIAS_POLICY: &str = "alias";

/// One unit of simulation work over one benchmark trace.
///
/// Aliasing units store their tallies in a [`RunResult`]'s fields:
/// `conditional` = references, `mispredicted` = misses, `novel` = cold
/// misses ([`dm_counts`] and [`fa_counts`] unpack them).
#[derive(Debug)]
pub(crate) enum Unit {
    /// One predictor cell, run under the pipeline's novel policy.
    Spec(String),
    /// One direct-mapped three-C cell.
    Dm(ThreeCCell),
    /// One shared fully-associative pass under `history_bits` of history,
    /// serving every capacity in `capacities` (one cell each).
    Fa {
        history_bits: u32,
        capacities: Vec<u64>,
    },
}

impl Unit {
    /// The unit's cell keys and fingerprints, one per cell. A fingerprint
    /// covers the spec, the *full* workload parameter set (the benchmark's
    /// seeded `WorkloadSpec`, so recalibrating a workload invalidates its
    /// cells), the trace length, seed, policy label and
    /// [`ENGINE_VERSION`]. FA cells are keyed by `(capacity, history)`
    /// without an index function: the FA reference is shared by every
    /// index function of a grid, so it is stored and paid for once.
    fn keys(
        &self,
        bench: IbsBenchmark,
        len: u64,
        seed: u64,
        policy: NovelPolicy,
    ) -> Vec<(CellKey, u64)> {
        let keyed = |spec: String, policy: &str| {
            let key = CellKey {
                bench: bench.name().to_string(),
                spec,
                len,
                seed,
                policy: policy.to_string(),
            };
            let workload_params = format!("{:?}", bench.spec_seeded(seed));
            let fingerprint = key.fingerprint(&workload_params, ENGINE_VERSION);
            (key, fingerprint)
        };
        match self {
            Unit::Spec(spec) => vec![keyed(spec.clone(), policy_name(policy))],
            Unit::Dm(cell) => vec![keyed(
                format!(
                    "3c-dm:ix={},n={},h={}",
                    cell.func, cell.entries_log2, cell.history_bits
                ),
                ALIAS_POLICY,
            )],
            Unit::Fa {
                history_bits,
                capacities,
            } => capacities
                .iter()
                .map(|cap| {
                    let n = cap.trailing_zeros();
                    keyed(format!("3c-fa:n={n},h={history_bits}"), ALIAS_POLICY)
                })
                .collect(),
        }
    }
}

/// Unpack a [`Unit::Dm`] result.
pub(crate) fn dm_counts(results: &[RunResult]) -> DmCounts {
    DmCounts {
        references: results[0].conditional,
        misses: results[0].mispredicted,
        cold_misses: results[0].novel,
    }
}

/// Unpack a [`Unit::Fa`] result (one entry per capacity).
pub(crate) fn fa_counts(results: &[RunResult]) -> FaCounts {
    FaCounts {
        references: results[0].conditional,
        cold_misses: results[0].novel,
        misses: results.iter().map(|r| r.mispredicted).collect(),
    }
}

/// Produce every unit's results over `bench` at `len` conditional
/// branches, under the current workload seed: one result per cell of
/// the unit (see [`Unit::keys`]), in the order of `units`.
///
/// With a store attached, a unit whose keys all hit is served from the
/// store; the rest are simulated in one batch over one cached trace
/// (spec units through [`kernel::run_specs`], aliasing units through
/// [`kernel::run_three_c_units`], each fanned out over up to `threads`
/// workers) and every one of their cells is recorded.
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub(crate) fn run_cells(
    bench: IbsBenchmark,
    len: u64,
    policy: NovelPolicy,
    units: &[Unit],
    threads: usize,
) -> Vec<Vec<RunResult>> {
    let seed = workload_seed();
    if !is_active() {
        let all: Vec<&Unit> = units.iter().collect();
        return simulate(bench, len, seed, policy, &all, threads)
            .into_iter()
            .map(|(results, _)| results)
            .collect();
    }

    let mut keys: Vec<Vec<(CellKey, u64)>> = units
        .iter()
        .map(|unit| unit.keys(bench, len, seed, policy))
        .collect();
    let mut results = serve(&keys);
    let missing: Vec<usize> = (0..units.len()).filter(|&i| results[i].is_none()).collect();
    if !missing.is_empty() {
        let run: Vec<&Unit> = missing.iter().map(|&i| &units[i]).collect();
        let mut cells = Vec::new();
        for (&i, (done, ms)) in missing
            .iter()
            .zip(simulate(bench, len, seed, policy, &run, threads))
        {
            // A unit's pass is shared by its cells; bill it evenly.
            let per_cell_ms = ms / done.len() as f64;
            for ((key, fingerprint), &result) in std::mem::take(&mut keys[i]).into_iter().zip(&done)
            {
                cells.push((key, fingerprint, result, per_cell_ms));
            }
            results[i] = Some(done);
        }
        record(cells);
    }
    results
        .into_iter()
        .map(|r| r.expect("every unit resolved"))
        .collect()
}

/// Look every unit's keys up under one lock. A unit is served only when
/// resume is enabled and *all* of its keys hold a valid record; only
/// served cells count as skipped.
fn serve(keys: &[Vec<(CellKey, u64)>]) -> Vec<Option<Vec<RunResult>>> {
    let guard = CONTEXT.lock().expect("resume context poisoned");
    let Some(ctx) = guard.as_ref().filter(|ctx| ctx.resume) else {
        return vec![None; keys.len()];
    };
    keys.iter()
        .map(|unit| {
            let hits = unit
                .iter()
                .map(|&(_, fingerprint)| {
                    let record = ctx.store.get(fingerprint)?;
                    Some(RunResult {
                        conditional: record.conditional,
                        mispredicted: record.mispredicted,
                        novel: record.novel,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            CELLS_SKIPPED.fetch_add(hits.len() as u64, Ordering::Relaxed);
            Some(hits)
        })
        .collect()
}

/// Simulate `units` over one cached trace. Each unit's results come with
/// its elapsed milliseconds; spec units share one batched pass, which is
/// billed evenly across them.
fn simulate(
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    policy: NovelPolicy,
    units: &[&Unit],
    threads: usize,
) -> Vec<(Vec<RunResult>, f64)> {
    let cols = cache::columns_seeded(bench, len, seed);
    let (mut specs, mut dm_cells, mut fa_groups) = (Vec::new(), Vec::new(), Vec::new());
    for unit in units {
        match unit {
            Unit::Spec(spec) => specs.push(spec.clone()),
            Unit::Dm(cell) => dm_cells.push(*cell),
            Unit::Fa {
                history_bits,
                capacities,
            } => fa_groups.push((*history_bits, capacities.clone())),
        }
    }

    let start = Instant::now();
    let mut spec_done = kernel::run_specs(&specs, &cols, policy, threads)
        .unwrap_or_else(|e| panic!("bad spec: {e}"))
        .into_iter();
    let per_spec_ms = start.elapsed().as_secs_f64() * 1e3 / specs.len().max(1) as f64;
    let (dm_done, fa_done) = kernel::run_three_c_units(&dm_cells, &fa_groups, &cols, threads);
    let (mut dm_done, mut fa_done) = (dm_done.into_iter(), fa_done.into_iter());
    units
        .iter()
        .map(|unit| match unit {
            Unit::Spec(_) => (vec![spec_done.next().expect("spec ran")], per_spec_ms),
            Unit::Dm(_) => {
                let (counts, ms) = dm_done.next().expect("dm unit ran");
                let result = RunResult {
                    conditional: counts.references,
                    mispredicted: counts.misses,
                    novel: counts.cold_misses,
                };
                (vec![result], ms)
            }
            Unit::Fa { .. } => {
                let (counts, ms) = fa_done.next().expect("fa unit ran");
                let per_capacity = counts.misses.iter().map(|&misses| RunResult {
                    conditional: counts.references,
                    mispredicted: misses,
                    novel: counts.cold_misses,
                });
                (per_capacity.collect(), ms)
            }
        })
        .collect()
}

/// Account simulated cells and persist them when saving is enabled. A
/// write failure is reported to stderr but never fails the sweep — the
/// simulation results are already in hand.
fn record(cells: Vec<(CellKey, u64, RunResult, f64)>) {
    CELLS_SIMULATED.fetch_add(cells.len() as u64, Ordering::Relaxed);
    let mut guard = CONTEXT.lock().expect("resume context poisoned");
    let Some(ctx) = guard.as_mut().filter(|ctx| ctx.save) else {
        return;
    };
    let experiment = experiment_label();
    for (key, fingerprint, result, elapsed_ms) in cells {
        let record = ResultRecord {
            experiment: experiment.clone(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::index::IndexFunction;
    use bpred_trace::workload::DEFAULT_SEED_BASE;

    const DM: ThreeCCell = ThreeCCell {
        entries_log2: 10,
        history_bits: 4,
        func: IndexFunction::Gshare,
    };

    fn spec(s: &str) -> Unit {
        Unit::Spec(s.to_string())
    }

    fn fa(entries_log2: u32, history_bits: u32) -> Unit {
        Unit::Fa {
            history_bits,
            capacities: vec![1 << entries_log2],
        }
    }

    /// The single fingerprint of a one-cell unit.
    fn fp(unit: &Unit, bench: IbsBenchmark, len: u64, seed: u64, policy: NovelPolicy) -> u64 {
        let keys = unit.keys(bench, len, seed, policy);
        assert_eq!(keys.len(), 1, "one-cell unit");
        keys[0].1
    }

    #[test]
    fn fingerprints_match_stores_saved_by_earlier_builds() {
        // Values computed by earlier builds: a change here orphans every
        // record they saved without an ENGINE_VERSION bump.
        let at = |unit: &Unit| {
            fp(
                unit,
                IbsBenchmark::Groff,
                1000,
                DEFAULT_SEED_BASE,
                NovelPolicy::Count,
            )
        };
        assert_eq!(at(&spec("gshare:n=10,h=4")), 0x7459_8aba_14d1_4aef);
        assert_eq!(at(&Unit::Dm(DM)), 0xf6d5_ff44_7d30_c89b);
        assert_eq!(at(&fa(10, 4)), 0xc5ce_8e1c_4cb7_82a3);
        let keys = Unit::Dm(DM).keys(
            IbsBenchmark::Groff,
            1000,
            DEFAULT_SEED_BASE,
            NovelPolicy::Count,
        );
        assert_eq!(keys[0].0.spec, "3c-dm:ix=gshare,n=10,h=4");
        assert_eq!(keys[0].0.policy, ALIAS_POLICY);
    }

    #[test]
    fn cell_fingerprints_separate_every_coordinate() {
        use IbsBenchmark::{Groff, Gs};
        use NovelPolicy::{Count, Exclude};
        let base_unit = spec("gshare:n=10,h=4");
        let base = fp(&base_unit, Groff, 1000, 7, Count);
        let variants = [
            fp(&spec("gshare:n=11,h=4"), Groff, 1000, 7, Count),
            fp(&base_unit, Gs, 1000, 7, Count),
            fp(&base_unit, Groff, 1001, 7, Count),
            fp(&base_unit, Groff, 1000, 8, Count),
            fp(&base_unit, Groff, 1000, 7, Exclude),
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        assert_eq!(
            fp(&base_unit, Groff, 1000, 7, Count),
            base,
            "fingerprints are stable"
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(policy_name(NovelPolicy::Count), "count");
        assert_eq!(policy_name(NovelPolicy::Exclude), "exclude");
    }

    #[test]
    fn alias_cells_fingerprint_every_coordinate() {
        use IbsBenchmark::{Groff, Gs};
        use NovelPolicy::{Count, Exclude};
        let dm = |cell: ThreeCCell, bench, len, seed| fp(&Unit::Dm(cell), bench, len, seed, Count);
        let base = dm(DM, Groff, 1000, 7);
        let variants = [
            dm(
                ThreeCCell {
                    entries_log2: 11,
                    ..DM
                },
                Groff,
                1000,
                7,
            ),
            dm(
                ThreeCCell {
                    history_bits: 5,
                    ..DM
                },
                Groff,
                1000,
                7,
            ),
            dm(
                ThreeCCell {
                    func: IndexFunction::Gselect,
                    ..DM
                },
                Groff,
                1000,
                7,
            ),
            dm(DM, Gs, 1000, 7),
            dm(DM, Groff, 1001, 7),
            dm(DM, Groff, 1000, 8),
            // The FA cell of the same geometry is a different cell.
            fp(&fa(10, 4), Groff, 1000, 7, Count),
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        assert_eq!(dm(DM, Groff, 1000, 7), base);
        // Aliasing cells carry their own policy label, so the novel
        // policy the pipeline runs under does not reach their keys.
        assert_eq!(fp(&Unit::Dm(DM), Groff, 1000, 7, Exclude), base);
        // FA cells ignore the index function by construction: one key per
        // (capacity, history), and a multi-capacity unit holds exactly the
        // keys of its one-capacity units.
        let wide = Unit::Fa {
            history_bits: 4,
            capacities: vec![1 << 8, 1 << 10],
        };
        let wide: Vec<u64> = wide
            .keys(Groff, 1000, 7, Count)
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        assert_eq!(
            wide,
            vec![
                fp(&fa(8, 4), Groff, 1000, 7, Count),
                fp(&fa(10, 4), Groff, 1000, 7, Count)
            ]
        );
        assert_ne!(wide[0], wide[1]);
    }

    // Serve/record behaviour against a real store lives in
    // `tests/resume.rs` and `tests/resume_partial.rs`: the context is
    // process-global, so it is exercised in dedicated integration-test
    // processes instead of this shared unit-test binary.
}
