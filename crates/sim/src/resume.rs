//! The cell pipeline: produce every cell once per process, and persist
//! cells in a results store and resume past them.
//!
//! Every cell the experiment helpers produce ([`crate::experiments::sim_pct`],
//! the spec-sweep tables and the three-C grids) goes through one
//! pipeline, [`run_cells`], over *units* of simulation work:
//! a predictor spec, a direct-mapped three-C cell, or one shared
//! fully-associative pass that serves several capacities.
//!
//! Each cell has a structural identity: the benchmark, trace length,
//! workload seed and novel policy it runs under (aliasing cells have
//! none), plus the *parsed* cell
//! (a [`PredictorSpec`], a [`ThreeCCell`], or an FA `(history, capacity)`).
//! Equal specs build equal predictors, so every spelling of one
//! predictor (`gskew:n=9,h=4` and `gskew:n=9,h=4,banks=3`) is one cell.
//! `run_cells` resolves the cells of each unit in turn:
//!
//! 1. from the attached [`bpred_results::store::ResultsStore`] when
//!    resume is on: a cell is keyed by its fingerprint (one per stored
//!    count set, so an FA unit has one per capacity), and the stored
//!    counts reproduce its rendering byte for byte;
//! 2. from the in-process cell memo, which holds every cell produced
//!    since the store was last attached or detached;
//! 3. otherwise the unit is simulated, once per call even when the call
//!    asks for its cells under several spellings (the repeats are
//!    served as reused).
//!
//! A unit is resolved only when *every* one of its cells hits, and is
//! otherwise simulated whole, so each cell a run produces counts once as
//! skipped (served from the store), reused (served from the memo) or
//! simulated. Every produced cell enters the memo. When saving is
//! enabled, every produced cell whose fingerprint the store lacks is
//! appended to this process's segment of the store, reused alias
//! spellings included, so a warm run finds each of its fingerprints.
//! The counters move only while a store is attached; fingerprints are
//! formatted and hashed only then.
//!
//! One `run_cells` call spans every workload of an experiment (a
//! benchmark trace at a length). The units it must simulate, across all
//! workloads, are planned into one list of `(workload, job)` pairs
//! ([`kernel::Job`]), which [`kernel::run_jobs`] runs on one pool of
//! workers: the one fan-out of cell simulation. Each trace is fetched
//! once, by the first job that reads it, so the fetches of different
//! workloads run on different workers. Each simulated cell is billed the
//! time of its own job (a shared walk or FA pass splits its time evenly
//! across its cells).
//!
//! The context is process-global by design, mirroring
//! `bpred_trace::cache`: only single-threaded entry points (the CLI)
//! should configure it. It sits behind one lock, so the parallel sweep
//! workers can resolve and record through it.

use crate::engine::{NovelPolicy, RunResult};
use crate::experiments::workload_seed;
use crate::kernel;
pub use crate::kernel::Unit;
use bpred_aliasing::batch::ThreeCCell;
use bpred_core::spec::PredictorSpec;
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use bpred_trace::cache;
use bpred_trace::soa::TraceColumns;
use bpred_trace::workload::IbsBenchmark;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Version of the simulation engine's accounting, fingerprinted into
/// every stored cell. Bump this whenever a change alters what any
/// simulated number *means* (accounting rules, workload synthesis,
/// predictor semantics): old records stop matching and every cell
/// re-simulates instead of silently serving stale numbers.
pub const ENGINE_VERSION: &str = "1";

/// An attached results store and what to do with it.
struct Attached {
    store: ResultsStore,
    /// Serve fingerprint hits instead of simulating.
    resume: bool,
    /// Persist produced cells the store lacks.
    save: bool,
}

struct Context {
    attached: Option<Attached>,
    /// Every cell produced since the last attach or detach. The hasher
    /// has fixed keys, so the empty table can be built in a `const`.
    memo: HashMap<CellId, RunResult, BuildHasherDefault<DefaultHasher>>,
    /// Cumulative over the process; moves only while a store is attached.
    stats: ResumeStats,
    /// The experiment id currently running, stamped into saved records
    /// (informational only; not part of the fingerprint).
    experiment: Option<&'static str>,
}

static CONTEXT: Mutex<Context> = Mutex::new(Context {
    attached: None,
    memo: HashMap::with_hasher(BuildHasherDefault::new()),
    stats: ResumeStats {
        cells_skipped: 0,
        cells_reused: 0,
        cells_simulated: 0,
        records_saved: 0,
    },
    experiment: None,
});

fn context() -> MutexGuard<'static, Context> {
    CONTEXT.lock().expect("resume context poisoned")
}

/// Attach a store with a fresh cell memo. `resume` serves
/// fingerprint-identical hits without simulating; `save` persists
/// produced cells. Both may be set.
pub fn configure(store: ResultsStore, resume: bool, save: bool) {
    let mut ctx = context();
    ctx.attached = Some(Attached {
        store,
        resume,
        save,
    });
    ctx.memo.clear();
}

/// Detach and return the store, if one was configured. The cell memo
/// starts over empty.
pub fn deconfigure() -> Option<ResultsStore> {
    let mut ctx = context();
    ctx.memo.clear();
    ctx.attached.take().map(|attached| attached.store)
}

/// Whether a store is currently attached.
pub fn is_active() -> bool {
    context().attached.is_some()
}

/// Stamp the experiment id recorded on cells saved from now on.
pub fn set_experiment(id: &'static str) {
    context().experiment = Some(id);
}

/// Counter snapshot for `--verbose` summaries. Only cells produced while
/// a store is attached are counted, each exactly once:
/// skipped + reused + simulated = cells produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Cells served from the store without simulating.
    pub cells_skipped: u64,
    /// Cells served from the in-process cell memo without simulating.
    pub cells_reused: u64,
    /// Cells actually simulated.
    pub cells_simulated: u64,
    /// Records written to the store.
    pub records_saved: u64,
}

/// Snapshot the process's counters.
pub fn stats() -> ResumeStats {
    context().stats
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

/// A cell's structural identity within one process: the key of the cell
/// memo. Within a process `(bench, seed)` fixes the workload, so no
/// workload fingerprint is needed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellId {
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    /// The novel policy of a spec cell; `None` for an aliasing cell,
    /// which no novel policy reaches.
    policy: Option<NovelPolicy>,
    cell: Cell,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Cell {
    Spec(PredictorSpec),
    Dm(ThreeCCell),
    /// One capacity of a fully-associative pass, which the index function
    /// does not reach.
    Fa {
        history_bits: u32,
        capacity: u64,
    },
}

/// The workload parameters a cell fingerprint covers: the benchmark's
/// seeded `WorkloadSpec`, so recalibrating a workload invalidates its
/// cells.
fn workload_params(bench: IbsBenchmark, seed: u64) -> String {
    format!("{:?}", bench.spec_seeded(seed))
}

impl Unit {
    /// The unit's cell identities, one per cell, parallel to its keys.
    ///
    /// # Panics
    ///
    /// Panics on a spec that does not parse.
    fn ids(&self, bench: IbsBenchmark, len: u64, seed: u64, policy: NovelPolicy) -> Vec<CellId> {
        let id = |policy, cell| CellId {
            bench,
            len,
            seed,
            policy,
            cell,
        };
        match self {
            Unit::Spec(spec) => {
                let parsed = PredictorSpec::parse(spec).unwrap_or_else(|e| panic!("bad spec: {e}"));
                vec![id(Some(policy), Cell::Spec(parsed))]
            }
            Unit::Dm(cell) => vec![id(None, Cell::Dm(*cell))],
            Unit::Fa {
                history_bits,
                capacities,
            } => capacities
                .iter()
                .map(|&capacity| {
                    let cell = Cell::Fa {
                        history_bits: *history_bits,
                        capacity,
                    };
                    id(None, cell)
                })
                .collect(),
        }
    }

    /// The unit's cell keys and fingerprints, one per cell. A fingerprint
    /// covers the spec, the full workload parameter set
    /// ([`workload_params`], passed in so a batch formats it once), the
    /// trace length, seed, policy label and [`ENGINE_VERSION`]. FA cells
    /// are keyed by `(capacity, history)` without an index function: the
    /// FA reference is shared by every index function of a grid, so it is
    /// stored and paid for once.
    fn keys(
        &self,
        bench: IbsBenchmark,
        len: u64,
        seed: u64,
        policy: NovelPolicy,
        workload_params: &str,
    ) -> Vec<(CellKey, u64)> {
        let keyed = |spec: String, policy: &str| {
            let key = CellKey {
                bench: bench.name().to_string(),
                spec,
                len,
                seed,
                policy: policy.to_string(),
            };
            let fingerprint = key.fingerprint(workload_params, ENGINE_VERSION);
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

/// Where a produced cell came from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// Served from the store.
    Store,
    /// Served from the cell memo.
    Memo,
    /// Simulated, with the milliseconds billed to the cell.
    Simulated(f64),
}

/// One workload: a benchmark trace of `len` conditional branches, under
/// the current workload seed.
pub type Workload = (IbsBenchmark, u64);

/// Produce every unit's results over every workload: for each workload,
/// in the order of `workloads`, one entry per unit, in the order of
/// `units`, holding one result per cell of the unit (one per capacity for
/// an FA unit).
///
/// A unit whose cells all hit the store (with resume on) or the cell
/// memo is served. The rest, across all workloads, are planned into one
/// list of `(workload, job)` pairs that [`kernel::run_jobs`] runs on up
/// to `threads` workers; units asking for the same cells over one
/// workload are planned once, and the repeats count as reused. Every
/// cell is then recorded (see the module doc).
///
/// # Panics
///
/// Panics on an invalid predictor spec — experiment code owns its specs.
pub fn run_cells(
    workloads: &[Workload],
    policy: NovelPolicy,
    units: &[Unit],
    threads: usize,
) -> Vec<Vec<Vec<RunResult>>> {
    let seed = workload_seed();
    // Workload-major slots: slot `w * units.len() + u` is unit `u` over
    // workload `w`.
    let ids: Vec<Vec<CellId>> = workloads
        .iter()
        .flat_map(|&(bench, len)| units.iter().map(move |u| u.ids(bench, len, seed, policy)))
        .collect();
    let keys: Option<Vec<Vec<(CellKey, u64)>>> = is_active().then(|| {
        let keys = workloads.iter().flat_map(|&(bench, len)| {
            let params = workload_params(bench, seed);
            units
                .iter()
                .map(move |u| u.keys(bench, len, seed, policy, &params))
        });
        keys.collect()
    });

    let mut cells = lookup(&ids, keys.as_deref());
    simulate(workloads, seed, policy, units, &ids, &mut cells, threads);
    let cells: Vec<Vec<(RunResult, Source)>> = cells
        .into_iter()
        .map(|unit| unit.expect("every unit resolved"))
        .collect();
    record(ids, keys, &cells);
    let mut results = cells
        .into_iter()
        .map(|unit| unit.into_iter().map(|(result, _)| result).collect());
    workloads
        .iter()
        .map(|_| results.by_ref().take(units.len()).collect())
        .collect()
}

/// Resolve every unit whose cells all hit, under one lock: each cell
/// from the store when resume is on and its fingerprint is stored, else
/// from the memo.
fn lookup(
    ids: &[Vec<CellId>],
    keys: Option<&[Vec<(CellKey, u64)>]>,
) -> Vec<Option<Vec<(RunResult, Source)>>> {
    let ctx = context();
    let store = ctx
        .attached
        .as_ref()
        .filter(|attached| attached.resume)
        .map(|attached| &attached.store);
    ids.iter()
        .enumerate()
        .map(|(i, unit)| {
            unit.iter()
                .enumerate()
                .map(|(j, id)| {
                    let stored = store.zip(keys).and_then(|(store, keys)| {
                        let record = store.get(keys[i][j].1)?;
                        Some(RunResult {
                            conditional: record.conditional,
                            mispredicted: record.mispredicted,
                            novel: record.novel,
                        })
                    });
                    match stored {
                        Some(result) => Some((result, Source::Store)),
                        None => ctx.memo.get(id).map(|&result| (result, Source::Memo)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Simulate every unresolved slot of `cells` (see [`run_cells`]): plan
/// each distinct one into one list of `(workload, job)` pairs and run the
/// list through [`kernel::run_jobs`]. Each cell is billed its job's own
/// elapsed time, split evenly across the cells the job serves. A slot
/// asking for the same cells as an earlier slot of its workload (another
/// spelling of one spec) is not planned: it takes that slot's results,
/// as reused.
fn simulate(
    workloads: &[Workload],
    seed: u64,
    policy: NovelPolicy,
    units: &[Unit],
    ids: &[Vec<CellId>],
    cells: &mut [Option<Vec<(RunResult, Source)>>],
    threads: usize,
) {
    // Each job, by its trace's index, with the slots it serves in the
    // order of its results.
    let (mut queue, mut traces) = (Vec::new(), Vec::new());
    // Slots asking for the same cells as an earlier planned slot (alias
    // spellings in one call), each with that slot.
    let mut repeats = Vec::new();
    for (w, &workload) in workloads.iter().enumerate() {
        let mut planned: HashMap<&[CellId], usize> = HashMap::new();
        let mut slots = Vec::new();
        for slot in w * units.len()..(w + 1) * units.len() {
            if cells[slot].is_some() {
                continue;
            }
            match planned.entry(ids[slot].as_slice()) {
                Entry::Occupied(first) => repeats.push((slot, *first.get())),
                Entry::Vacant(entry) => {
                    entry.insert(slot);
                    slots.push(slot);
                }
            }
        }
        if slots.is_empty() {
            continue;
        }
        let missing = slots.iter().map(|&slot| &units[slot % units.len()]);
        for (rows, job) in kernel::plan(missing).unwrap_or_else(|e| panic!("bad spec: {e}")) {
            let slots: Vec<usize> = rows.into_iter().map(|row| slots[row]).collect();
            queue.push(((traces.len(), job), slots));
        }
        traces.push(workload);
    }
    let (jobs, served): (Vec<_>, Vec<_>) = spread_workloads(queue, |((t, _), _)| *t)
        .into_iter()
        .unzip();

    // Each trace is fetched once, by the first job that reads it: jobs
    // of other workloads meanwhile run, or fetch theirs, on the other
    // workers.
    let fetched: Vec<OnceLock<Arc<TraceColumns>>> =
        traces.iter().map(|_| OnceLock::new()).collect();
    let trace = |t: usize| {
        let (bench, len) = traces[t];
        Arc::clone(fetched[t].get_or_init(|| cache::columns_seeded(bench, len, seed)))
    };
    let done = kernel::run_jobs(jobs, trace, policy, threads);
    for ((results, ms), slots) in done.into_iter().zip(served) {
        let per_cell_ms = ms / results.len() as f64;
        let mut results = results.into_iter();
        for slot in slots {
            let unit = results.by_ref().take(ids[slot].len());
            cells[slot] = Some(unit.map(|r| (r, Source::Simulated(per_cell_ms))).collect());
        }
    }
    for (slot, first) in repeats {
        let reused = cells[first].as_ref().expect("planned slots are simulated");
        cells[slot] = Some(reused.iter().map(|&(r, _)| (r, Source::Memo)).collect());
    }
}

/// `jobs`, listed trace by trace (`trace` gives a job's trace index), in
/// the order to run them: the first job of every trace, then the others,
/// each group in list order. Workers take jobs in order, so on a cold
/// cache they synthesise different traces at once, where in list order
/// the second worker would wait on the trace the first is building.
fn spread_workloads<T>(jobs: Vec<T>, trace: impl Fn(&T) -> usize) -> Vec<T> {
    let mut previous = None;
    let (mut order, rest): (Vec<_>, Vec<_>) = jobs
        .into_iter()
        .partition(|job| previous.replace(trace(job)) != Some(trace(job)));
    order.extend(rest);
    order
}

/// Enter every produced cell into the memo. With a store attached, also
/// count each cell by its source and, when saving is enabled, persist
/// each one whose fingerprint the store lacks (a reused cell is billed
/// 0 ms). A write failure is reported to stderr but never fails the
/// sweep — the results are already in hand.
fn record(
    ids: Vec<Vec<CellId>>,
    keys: Option<Vec<Vec<(CellKey, u64)>>>,
    cells: &[Vec<(RunResult, Source)>],
) {
    let mut guard = context();
    let ctx = &mut *guard;
    for (id, &(result, source)) in ids.into_iter().flatten().zip(cells.iter().flatten()) {
        if source != Source::Memo {
            ctx.memo.insert(id, result);
        }
    }
    let (Some(attached), Some(keys)) = (ctx.attached.as_mut(), keys) else {
        return;
    };
    let experiment = attached
        .save
        .then(|| ctx.experiment.unwrap_or("adhoc").to_string());
    for ((key, fingerprint), &(result, source)) in
        keys.into_iter().flatten().zip(cells.iter().flatten())
    {
        let (counter, elapsed_ms) = match source {
            Source::Store => (&mut ctx.stats.cells_skipped, 0.0),
            Source::Memo => (&mut ctx.stats.cells_reused, 0.0),
            Source::Simulated(ms) => (&mut ctx.stats.cells_simulated, ms),
        };
        *counter += 1;
        let Some(experiment) = &experiment else {
            continue;
        };
        if attached.store.contains(fingerprint) {
            continue;
        }
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
        match attached.store.put(&record) {
            Ok(()) => ctx.stats.records_saved += 1,
            Err(e) => eprintln!("bpsim: results store write failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::index::IndexFunction;
    use bpred_trace::workload::DEFAULT_SEED_BASE;

    #[test]
    fn jobs_run_one_of_each_workload_first() {
        let jobs = vec![(0, 'a'), (0, 'b'), (0, 'c'), (1, 'd'), (2, 'e'), (2, 'f')];
        assert_eq!(
            spread_workloads(jobs, |&(t, _)| t),
            [(0, 'a'), (1, 'd'), (2, 'e'), (0, 'b'), (0, 'c'), (2, 'f')]
        );
        assert!(spread_workloads(Vec::<usize>::new(), |&t| t).is_empty());
    }

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
        let keys = unit.keys(bench, len, seed, policy, &workload_params(bench, seed));
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
            &workload_params(IbsBenchmark::Groff, DEFAULT_SEED_BASE),
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
            .keys(Groff, 1000, 7, Count, &workload_params(Groff, 7))
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

    /// The single identity of a one-cell unit.
    fn id(unit: &Unit, bench: IbsBenchmark, len: u64, seed: u64, policy: NovelPolicy) -> CellId {
        let ids = unit.ids(bench, len, seed, policy);
        assert_eq!(ids.len(), 1, "one-cell unit");
        ids.into_iter().next().unwrap()
    }

    #[test]
    fn alias_spellings_share_one_cell() {
        use IbsBenchmark::Groff;
        use NovelPolicy::Count;
        let at = |s: &str| id(&spec(s), Groff, 1000, 7, Count);
        let base = at("gskew:n=9,h=4");
        for alias in [
            "gskew:n=9,h=4,banks=3",
            "gskew:n=9,h=4,update=partial",
            "gskew:n=9,h=4,ctr=2",
            "gskew:h=4,n=9,skew=on",
        ] {
            assert_eq!(at(alias), base, "{alias}");
        }
        // The store still keys each spelling apart.
        let fingerprint = |s: &str| fp(&spec(s), Groff, 1000, 7, Count);
        assert_ne!(
            fingerprint("gskew:n=9,h=4,banks=3"),
            fingerprint("gskew:n=9,h=4")
        );
        // A spelling of a different predictor is a different cell.
        for other in [
            "gskew:n=9,h=4,update=total",
            "gskew:n=9,h=4,banks=5",
            "egskew:n=9,h=4",
        ] {
            assert_ne!(at(other), base, "{other}");
        }
    }

    #[test]
    fn cell_ids_separate_every_coordinate() {
        use IbsBenchmark::{Groff, Gs};
        use NovelPolicy::{Count, Exclude};
        let gshare = spec("gshare:n=10,h=4");
        let base = id(&gshare, Groff, 1000, 7, Count);
        let dm = |cell: ThreeCCell| id(&Unit::Dm(cell), Groff, 1000, 7, Count);
        let variants = [
            ("bench", id(&gshare, Gs, 1000, 7, Count)),
            ("len", id(&gshare, Groff, 1001, 7, Count)),
            ("seed", id(&gshare, Groff, 1000, 8, Count)),
            ("policy", id(&gshare, Groff, 1000, 7, Exclude)),
            (
                "history",
                id(&spec("gshare:n=10,h=5"), Groff, 1000, 7, Count),
            ),
            ("size", id(&spec("gshare:n=11,h=4"), Groff, 1000, 7, Count)),
            (
                "family",
                id(&spec("gselect:n=10,h=4"), Groff, 1000, 7, Count),
            ),
        ];
        for (coordinate, variant) in &variants {
            assert_ne!(*variant, base, "{coordinate}");
        }
        assert_eq!(id(&gshare, Groff, 1000, 7, Count), base, "ids are stable");

        // Aliasing cells: the index function, history and size separate
        // direct-mapped cells; the novel policy does not reach them.
        let dm_base = dm(DM);
        for (coordinate, variant) in [
            (
                "index function",
                dm(ThreeCCell {
                    func: IndexFunction::Gselect,
                    ..DM
                }),
            ),
            (
                "history",
                dm(ThreeCCell {
                    history_bits: 5,
                    ..DM
                }),
            ),
            (
                "size",
                dm(ThreeCCell {
                    entries_log2: 11,
                    ..DM
                }),
            ),
            ("fa", id(&fa(10, 4), Groff, 1000, 7, Count)),
        ] {
            assert_ne!(variant, dm_base, "{coordinate}");
        }
        assert_eq!(id(&Unit::Dm(DM), Groff, 1000, 7, Exclude), dm_base);

        // FA cells: history and capacity separate them, and a
        // multi-capacity unit holds exactly its one-capacity units' cells.
        let fa_base = id(&fa(10, 4), Groff, 1000, 7, Count);
        assert_ne!(id(&fa(10, 5), Groff, 1000, 7, Count), fa_base, "history");
        assert_ne!(id(&fa(11, 4), Groff, 1000, 7, Count), fa_base, "capacity");
        let wide = Unit::Fa {
            history_bits: 4,
            capacities: vec![1 << 8, 1 << 10],
        };
        assert_eq!(
            wide.ids(Groff, 1000, 7, Count),
            vec![id(&fa(8, 4), Groff, 1000, 7, Count), fa_base]
        );
    }

    // Serve/reuse/record behaviour against a real store lives in
    // `tests/resume.rs`, `tests/resume_partial.rs` and
    // `tests/resume_aliases.rs`: the context is process-global, so it is
    // exercised in dedicated integration-test processes instead of this
    // shared unit-test binary.
}
