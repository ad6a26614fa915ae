//! Monomorphized batch kernels: the devirtualized simulation fast path.
//!
//! The general engine drives `Box<dyn BranchPredictor>` objects — two
//! virtual calls per record per predictor — over an array-of-structs
//! trace. The tag-less table families that dominate every sweep in the
//! paper need no dynamic dispatch: each is one [`Table`] transition of
//! `bpred_core::table` — a few table index computations, counter
//! compares and saturating steps. This module compiles that transition
//! into one tight loop per predictor shape over the conditional records
//! of the [`TraceColumns`] layout alone: the trace's cursor
//! ([`TraceColumns::conditionals`]) hands each one its pc, outcome and
//! raw global history, so no kernel visits an unconditional record,
//! tests a per-record conditional bit or keeps a history register of its
//! own.
//!
//! Every predictor family has a fast path, so no cell runs on the `dyn`
//! engine:
//!
//! - every table family of `bpred_core::table` (`bimodal`, `gshare`,
//!   `gselect`, `gskew`, `egskew`, `mcfarling`, `2bcgskew`, `agree`,
//!   `bimode`, `pas`, `spas`, `shgskew`, `always-taken`,
//!   `always-nottaken`), as a [`PredictorKernel`];
//! - `falru` and `ideal` (tagged tables), one [`LruWalk`] per history
//!   length;
//! - `setassoc` (a tagged set-associative table), one walk per spec
//!   calling [`SetAssociative::access`] on every conditional record.
//!
//! Every table family is driven by one loop, `drive`, over its [`Table`]:
//! `look` computes a record's indices under a given history and reads
//! the cells, `train` writes them back with the outcome. The loop owns
//! the accounting and the observer hook, and masks the cursor's history
//! to the table's length. It reaches the family's concrete table through
//! [`TablePredictor::visit`], so each family shape gets its own
//! monomorphized copy of the loop.
//!
//! The contract is **bit identity**: for every table spec,
//! [`PredictorKernel::run`] produces exactly the [`RunResult`] that
//! [`engine::run_with`] produces for the [`TablePredictor`] built from
//! the same spec — the same transition, with the indices computed *once*
//! per conditional record (legal because the predictor's `update` looks
//! the record up again under the unchanged prediction-time history).
//! Table kernels never flag a prediction *novel*, so their result is also
//! independent of the [`NovelPolicy`]; the [`LruWalk`] rows and the
//! set walk do flag misses novel and honour the policy they are given,
//! as the engine does for the tagged dyn predictors. An [`LruWalk`] and
//! the `falru`/`ideal` dyn predictor run one transition,
//! `bpred_core::lru::LruTable::step`. The equivalence is pinned by a
//! proptest suite (`tests/kernel_equiv.rs`) against naive per-record
//! reference models written from the paper's definitions
//! (`tests/reference`), and by the campaign regression gates.
//!
//! The same transitions serve the custom experiment loops, for every
//! table family:
//!
//! - [`PredictorKernel::run_observed`] is `drive` with an observer
//!   closure, called with every conditional record's bank votes,
//!   prediction and outcome before the tables train — `ext-confidence`'s
//!   unanimous/split tally, and the table families' per-record "wrong"
//!   bits of [`run_spec_observed`].
//!   [`PredictorKernel::run`] is the copy with a no-op hook, which
//!   compiles to the plain loop: `train` reuses the cells `look` read, so
//!   each cell is read once.
//! - [`PredictorKernel::run_delayed`] is retirement-time training
//!   (`ext-delay`), bit-identical to [`engine::run_delayed`]: record `i`
//!   predicts from the state the records before `i - delay` left, and a
//!   retiring record looks its cells up again under the retire-time
//!   history before it trains, as the predictor's `update` does.
//!   Retirement is positional over all records, so this one loop,
//!   `drive_delayed`, walks [`TraceColumns::records`] with a trailing
//!   retire cursor and shifts the history itself.
//!
//! Simulation work runs as [`Job`]s: a table kernel, a shared
//! [`LruWalk`], a set walk, a direct-mapped three-C pass or a shared
//! fully-associative pass. [`plan`] splits a spec list into jobs, and
//! [`run_jobs`] is the one fan-out: it runs a list of `(trace, job)`
//! pairs, across any number of workloads, on one pool of workers, and
//! times each job on the worker that runs it. The cell pipeline
//! ([`crate::resume`]) plans every cell an experiment or a CLI command
//! misses into one such list; [`run_specs`] and [`run_three_c_units`]
//! are its one-trace forms for the tests and the benchmarks.
//!
//! [`run_spec_observed`] runs one spec of any family on its job and
//! hands an observer each conditional record's "wrong" bit: the walks
//! take the same generic observer argument as `drive`, and
//! [`Job::run`] passes a no-op one. The CLI's `duel`
//! ([`crate::duel::kernel_duel`]) and `run --windows`
//! ([`windowed_rates`]) run on it.

#[cfg(doc)]
use crate::engine;
use crate::engine::{NovelPolicy, RunResult};
use crate::runner::parallel_map;
use crate::timing;
use bpred_aliasing::batch::{self, DmCounts, FaCounts, ThreeCCell};
use bpred_core::assoc::SetAssociative;
use bpred_core::error::ConfigError;
use bpred_core::lru::{LastUseDistance, LruRow, LruTable, PairTracker};
use bpred_core::pair::PairMap;
use bpred_core::predictor::{Outcome, Prediction};
use bpred_core::spec::PredictorSpec;
use bpred_core::table::{History, Table, TablePredictor, Visit};
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use std::ops::Deref;
use std::time::Instant;

/// The loop of every table family over the conditional records. It owns
/// the accounting and the observer hook; the trace's cursor hands it the
/// global history, which it masks to the table's length.
///
/// Each conditional record trains right after it is predicted, reusing
/// the predict-time lookup. `observe` sees every conditional record's
/// votes, prediction and outcome before the table trains on it.
///
/// Each copy stays its own function, so the register allocation of one
/// family's loop does not depend on the other families' loops around it.
#[inline(never)]
fn drive<T: Table>(
    table: &mut T,
    hist: &mut History,
    cols: &TraceColumns,
    mut observe: impl FnMut(&[bool], bool, bool),
) -> RunResult {
    let mut mispredicted = 0;
    let hmask = hist.mask();
    let mut h = *hist;
    let mut walk = cols.conditionals(h.value());
    walk.for_each_record(|pc, taken, global| {
        if T::GLOBAL_HISTORY {
            h.load(global, hmask);
        }
        let look = table.look(pc, h);
        observe(look.votes.as_ref(), look.predicted, taken);
        mispredicted += u64::from(look.predicted != taken);
        table.train(look, taken);
    });
    if T::GLOBAL_HISTORY {
        hist.load(walk.finish(), hmask);
    }
    RunResult {
        conditional: cols.conditional_count(),
        mispredicted,
        novel: 0,
    }
}

/// [`drive`] with retirement-time training over the records: record `i`
/// is predicted, then record `i - delay` retires. A retiring conditional
/// record is looked up again under the retire-time history and trained;
/// every retiring record shifts into the history. The records still in
/// flight retire at the end (see [`PredictorKernel::run_delayed`]).
#[inline(never)]
fn drive_delayed<T: Table>(
    table: &mut T,
    hist: &mut History,
    cols: &TraceColumns,
    delay: usize,
) -> RunResult {
    let mut mispredicted = 0;
    let hmask = hist.mask();
    let mut h = *hist;
    let retire = |r: BranchRecord, table: &mut T, h: &mut History| {
        let conditional = r.kind.is_conditional();
        if conditional {
            let look = table.look(r.pc, *h);
            table.train(look, r.taken);
        }
        if T::GLOBAL_HISTORY {
            h.push(!conditional || r.taken, hmask);
        }
    };
    let mut predict = |r: BranchRecord, table: &mut T, h: History| {
        if r.kind.is_conditional() {
            mispredicted += u64::from(table.look(r.pc, h).predicted != r.taken);
        }
    };
    let mut ahead = cols.records();
    for r in ahead.by_ref().take(delay) {
        predict(r, table, h);
    }
    let mut retiring = cols.records();
    for r in ahead {
        predict(r, table, h);
        let r = retiring.next().expect("the retiring cursor trails");
        retire(r, table, &mut h);
    }
    // Drain the records still in flight.
    for r in retiring {
        retire(r, table, &mut h);
    }
    *hist = h;
    RunResult {
        conditional: cols.conditional_count(),
        mispredicted,
        novel: 0,
    }
}

/// [`drive`] as a [`Visit`]: the loop over whichever table
/// [`TablePredictor::visit`] hands it.
struct Drive<'c, O> {
    cols: &'c TraceColumns,
    observe: O,
}

impl<O: FnMut(&[bool], bool, bool)> Visit for Drive<'_, O> {
    type Output = RunResult;

    fn visit<T: Table>(self, table: &mut T, hist: &mut History) -> RunResult {
        drive(table, hist, self.cols, self.observe)
    }
}

/// [`drive_delayed`] as a [`Visit`].
struct DriveDelayed<'c> {
    cols: &'c TraceColumns,
    delay: usize,
}

impl Visit for DriveDelayed<'_> {
    type Output = RunResult;

    fn visit<T: Table>(self, table: &mut T, hist: &mut History) -> RunResult {
        drive_delayed(table, hist, self.cols, self.delay)
    }
}

/// A monomorphized run loop over one [`TablePredictor`].
#[derive(Debug, Clone)]
pub struct PredictorKernel {
    table: TablePredictor,
}

impl PredictorKernel {
    /// The kernel for a table-family `spec` (see `bpred_core::table`);
    /// `None` for the tagged families (`falru` and `ideal` run as an
    /// [`LruWalk`] instead, `setassoc` as a [`Job::Set`]).
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range; [`PredictorSpec::build`]
    /// and [`plan`] report those as errors.
    pub fn from_spec(spec: &PredictorSpec) -> Option<PredictorKernel> {
        let table = TablePredictor::new(spec).unwrap_or_else(|e| panic!("{e}"))?;
        Some(PredictorKernel { table })
    }

    /// Drive the kernel over a whole column view, accounting every
    /// conditional record. The kernel keeps its tables and history, so
    /// consecutive calls continue one trace: running the chunks of a
    /// trace in order sums to the result of running it whole.
    ///
    /// Bit-identical to [`engine::run_with`] on the equivalent predictor
    /// under *either* [`NovelPolicy`] (kernel predictions are never
    /// novel). Time spent is credited to the kernel path of
    /// [`crate::timing`].
    pub fn run(&mut self, cols: &TraceColumns) -> RunResult {
        self.run_observed(cols, |_, _, _| {})
    }

    /// Drive the kernel over one whole trace with retirement-time
    /// training, bit-identical to [`engine::run_delayed`] on the
    /// equivalent predictor:
    ///
    /// - record `i` is predicted from the state left once the records
    ///   before `i - delay` have retired;
    /// - retiring a conditional record recomputes its indices and reads
    ///   its cells under the history at retire time, trains them, then
    ///   shifts the outcome into the history;
    /// - retiring any other record shifts in a taken bit;
    /// - the records still in flight at the end retire before this
    ///   returns.
    ///
    /// Delay 0 is [`PredictorKernel::run`]. Time spent is credited as
    /// [`PredictorKernel::run`] credits it.
    pub fn run_delayed(&mut self, cols: &TraceColumns, delay: usize) -> RunResult {
        self.dispatch(cols, DriveDelayed { cols, delay })
    }

    /// [`PredictorKernel::run`], calling `observe(votes, predicted,
    /// taken)` for every conditional record before the tables train:
    /// `votes` holds each bank's direction (a hybrid's components', and
    /// the prediction alone for the one-counter lookups of the one-bank
    /// families, `agree`, `bimode` and `pas`), `predicted` the overall
    /// prediction and `taken` the outcome. Time spent is credited as
    /// [`PredictorKernel::run`] credits it.
    pub fn run_observed(
        &mut self,
        cols: &TraceColumns,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        self.dispatch(cols, Drive { cols, observe })
    }

    /// Run a drive loop over the family's table, timed.
    fn dispatch(
        &mut self,
        cols: &TraceColumns,
        drive: impl Visit<Output = RunResult>,
    ) -> RunResult {
        let start = Instant::now();
        let result = self.table.visit(drive);
        timing::record_kernel(cols.len() as u64, start.elapsed());
        result
    }
}

/// Every `falru` and `ideal` row that shares one history length, in one
/// trace walk.
///
/// An N-entry LRU table holds a pair exactly when the pair's last-use
/// distance is below N (LRU stack inclusion), so one
/// [`LastUseDistance`] walk decides hit or miss for every capacity at
/// once — `bpred_aliasing::distance::CapacitySweep`'s identity, applied
/// to a predictor. An unbounded (`ideal`) row hits on every reuse, so a
/// walk whose rows are all unbounded tracks only first uses, in a
/// [`PairMap`] from pair to dense id, and keeps no stack distance. Both
/// trackers drive the same loop over one [`LruTable`]: each reference is
/// one [`LruTable::step`], the transition the `falru`/`ideal` predictor
/// (`bpred_core::lru::LruPredictor`) runs per record too.
#[derive(Debug, Clone)]
pub struct LruWalk {
    hist_bits: u32,
    rows: Vec<LruRow>,
}

impl LruWalk {
    /// Walk `cols` once; one result per row, bit-identical to
    /// [`engine::run_with`] on the row's predictor under `policy`.
    /// `wrong` sees every row's charged misprediction bit, row by row
    /// within each conditional record. Credits `cols.len()` applications
    /// per row to the kernel path of [`crate::timing`].
    fn run(
        &self,
        cols: &TraceColumns,
        policy: NovelPolicy,
        wrong: impl FnMut(bool),
    ) -> Vec<RunResult> {
        let start = Instant::now();
        let rows = self.rows.clone();
        let results = if rows.iter().all(|row| row.is_unbounded()) {
            let pairs = PairMap::<u32>::default();
            self.walk(cols, policy, LruTable::new(rows, pairs), wrong)
        } else {
            let pairs = LastUseDistance::<u32>::with_payload();
            self.walk(cols, policy, LruTable::new(rows, pairs), wrong)
        };
        timing::record_kernel(cols.len() as u64 * self.rows.len() as u64, start.elapsed());
        results
    }

    /// The loop of [`LruWalk::run`], over `table`.
    #[inline(never)]
    fn walk<T: PairTracker>(
        &self,
        cols: &TraceColumns,
        policy: NovelPolicy,
        mut table: LruTable<T>,
        mut wrong: impl FnMut(bool),
    ) -> Vec<RunResult> {
        let result = RunResult {
            conditional: cols.conditional_count(),
            ..RunResult::default()
        };
        let mut results = vec![result; self.rows.len()];
        let hmask = History::new(self.hist_bits).mask();
        cols.conditionals(0).for_each_record(|pc, taken, global| {
            table.step((pc >> 2, global & hmask), taken, |row, p| {
                let charged = charged(p, taken, policy);
                let result = &mut results[row];
                result.novel += u64::from(p.novel);
                result.mispredicted += u64::from(charged);
                wrong(charged);
            });
        });
        results
    }
}

/// Whether the engine charges prediction `p` of a record with outcome
/// `taken` as a misprediction under `policy`.
#[inline(always)]
fn charged(p: Prediction, taken: bool, policy: NovelPolicy) -> bool {
    (policy == NovelPolicy::Count || !p.novel) && p.outcome.is_taken() != taken
}

/// The walk of the table a `setassoc` spec describes over the
/// conditional records: one [`SetAssociative::access`] each, under the
/// cursor's global history. Bit-identical to [`engine::run_with`] on the
/// same table under `policy`: a miss is flagged novel and, under
/// [`NovelPolicy::Exclude`], not charged. `wrong` sees each record's
/// charged misprediction bit.
///
/// # Panics
///
/// Panics on another family or an out-of-range parameter; [`plan`]
/// makes neither.
fn set_walk(
    spec: &PredictorSpec,
    cols: &TraceColumns,
    policy: NovelPolicy,
    mut wrong: impl FnMut(bool),
) -> RunResult {
    let PredictorSpec::SetAssoc {
        n,
        ways,
        h,
        ctr,
        miss,
    } = *spec
    else {
        panic!("{spec:?} is not a setassoc spec");
    };
    let table = SetAssociative::new(n, ways, h, ctr).unwrap_or_else(|e| panic!("{e}"));
    let mut table = table.with_miss_policy(miss);
    let mut result = RunResult {
        conditional: cols.conditional_count(),
        ..RunResult::default()
    };
    cols.conditionals(0).for_each_record(|pc, taken, global| {
        let p = table.access(pc, global, Outcome::from(taken));
        let charged = charged(p, taken, policy);
        result.novel += u64::from(p.novel);
        result.mispredicted += u64::from(charged);
        wrong(charged);
    });
    result
}

/// One unit of simulation work over one trace, the input of [`plan`].
///
/// Aliasing units store their tallies in a [`RunResult`]'s fields:
/// `conditional` = references, `mispredicted` = misses, `novel` = cold
/// misses ([`dm_counts`] and [`fa_counts`] unpack them).
#[derive(Debug)]
pub enum Unit {
    /// One predictor cell.
    Spec(String),
    /// One direct-mapped three-C cell.
    Dm(ThreeCCell),
    /// One shared fully-associative pass, one cell per capacity.
    Fa {
        /// Global history bits in the `(address, history)` tag.
        history_bits: u32,
        /// Table entries, one cell each.
        capacities: Vec<u64>,
    },
}

/// One job of simulation work over one trace. A job holds only its
/// parameters: the worker that starts it builds its tables, so a long job
/// list never holds every table at once.
#[derive(Debug, Clone)]
pub enum Job {
    /// A table kernel serving one spec with a [`PredictorKernel`].
    Table(PredictorSpec),
    /// A shared walk serving every `falru`/`ideal` spec of one history
    /// length.
    Walk(LruWalk),
    /// A walk of one `setassoc` table.
    Set(PredictorSpec),
    /// One direct-mapped three-C cell ([`batch::dm_pass`]).
    Dm(ThreeCCell),
    /// One fully-associative pass under a history length, serving
    /// several capacities ([`batch::fa_pass`]).
    Fa(u32, Vec<u64>),
}

impl Job {
    /// The job that serves `spec` alone: a table kernel, a set walk, or a
    /// one-row [`LruWalk`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an out-of-range value, with the
    /// message the family's constructor gives.
    fn of(spec: PredictorSpec) -> Result<Job, ConfigError> {
        if TablePredictor::check(&spec)? {
            Ok(Job::Table(spec))
        } else if let PredictorSpec::SetAssoc { n, ways, h, .. } = spec {
            SetAssociative::check(n, ways, h)?;
            Ok(Job::Set(spec))
        } else if let Some((hist_bits, row)) = LruRow::from_spec(&spec)? {
            let rows = vec![row];
            Ok(Job::Walk(LruWalk { hist_bits, rows }))
        } else {
            unreachable!("every family is a table, a set or an LRU row");
        }
    }

    /// Run the job over `cols`: one result per cell it serves, in the
    /// order [`plan`] listed its specs, or of the FA capacities. Aliasing
    /// jobs pack their counts into a [`RunResult`] ([`dm_counts`] and
    /// [`fa_counts`] unpack them). Table kernels and aliasing passes
    /// ignore `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Job::Table`] spec has no kernel or a [`Job::Set`]
    /// spec is not an in-range `setassoc` spec; [`plan`] makes neither.
    pub fn run(self, cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
        self.run_observed(cols, policy, |_| {})
    }

    /// [`Job::run`], handing `wrong` every charged misprediction bit of a
    /// predictor job: record by record, and row by row within a record
    /// of a walk. Aliasing passes never call it.
    fn run_observed(
        self,
        cols: &TraceColumns,
        policy: NovelPolicy,
        mut wrong: impl FnMut(bool),
    ) -> Vec<RunResult> {
        let start = Instant::now();
        let counts = match self {
            Job::Table(spec) => {
                let mut kernel = PredictorKernel::from_spec(&spec).expect("plan checked support");
                return vec![
                    kernel.run_observed(cols, |_, predicted, taken| wrong(predicted != taken))
                ];
            }
            Job::Walk(walk) => return walk.run(cols, policy, wrong),
            Job::Set(spec) => {
                let result = set_walk(&spec, cols, policy, wrong);
                timing::record_kernel(cols.len() as u64, start.elapsed());
                return vec![result];
            }
            Job::Dm(cell) => {
                let c = batch::dm_pass(cols, cell.entries_log2, cell.history_bits, cell.func);
                (c.references, vec![c.misses], c.cold_misses)
            }
            Job::Fa(history_bits, capacities) => {
                let c = batch::fa_pass(cols, history_bits, &capacities);
                (c.references, c.misses, c.cold_misses)
            }
        };
        let (conditional, misses, novel) = counts;
        timing::record_kernel(cols.len() as u64, start.elapsed());
        let cell = |mispredicted| RunResult {
            conditional,
            mispredicted,
            novel,
        };
        misses.into_iter().map(cell).collect()
    }
}

/// Unpack a [`Job::Dm`] result.
pub fn dm_counts(results: &[RunResult]) -> DmCounts {
    DmCounts {
        references: results[0].conditional,
        misses: results[0].mispredicted,
        cold_misses: results[0].novel,
    }
}

/// Unpack a [`Job::Fa`] result (one entry per capacity).
pub fn fa_counts(results: &[RunResult]) -> FaCounts {
    FaCounts {
        references: results[0].conditional,
        cold_misses: results[0].novel,
        misses: results.iter().map(|r| r.mispredicted).collect(),
    }
}

/// Split `units` into jobs, each with the indices of the units it serves,
/// shared passes first (they are the longest jobs): one walk per history
/// length and one FA pass per FA unit; then one table kernel or set walk
/// per spec and one DM pass per DM unit.
///
/// # Errors
///
/// Returns [`ConfigError`] for malformed specs and out-of-range values,
/// with the message the family's constructor gives.
pub fn plan<'a>(
    units: impl IntoIterator<Item = &'a Unit>,
) -> Result<Vec<(Vec<usize>, Job)>, ConfigError> {
    let (mut shared, mut single): (Vec<(Vec<usize>, Job)>, _) = (Vec::new(), Vec::new());
    for (i, unit) in units.into_iter().enumerate() {
        let job = match unit {
            Unit::Spec(spec) => Job::of(PredictorSpec::parse(spec)?)?,
            Unit::Dm(cell) => Job::Dm(*cell),
            Unit::Fa {
                history_bits,
                capacities,
            } => Job::Fa(*history_bits, capacities.clone()),
        };
        match job {
            Job::Walk(walk) => {
                let same = shared.iter_mut().find_map(|(rows, job)| match job {
                    Job::Walk(other) if other.hist_bits == walk.hist_bits => Some((rows, other)),
                    _ => None,
                });
                match same {
                    Some((rows, other)) => {
                        rows.push(i);
                        other.rows.extend(walk.rows);
                    }
                    None => shared.push((vec![i], Job::Walk(walk))),
                }
            }
            Job::Fa(..) => shared.push((vec![i], job)),
            job => single.push((vec![i], job)),
        }
    }
    shared.extend(single);
    Ok(shared)
}

/// A job's results paired with the job's own elapsed milliseconds.
pub type Timed<T> = (T, f64);

/// Run every `(trace, job)` pair on up to `threads` workers: the one
/// fan-out of simulation work. A worker reads the job's trace from
/// `trace(index)` and then starts the job's clock, so a trace fetched on
/// first use is not billed to the job. Results keep the order of `jobs`,
/// each with the milliseconds its worker spent on it.
pub fn run_jobs<T: Deref<Target = TraceColumns>>(
    jobs: Vec<(usize, Job)>,
    trace: impl Fn(usize) -> T + Sync,
    policy: NovelPolicy,
    threads: usize,
) -> Vec<Timed<Vec<RunResult>>> {
    parallel_map(jobs, threads, |(index, job)| {
        let cols = trace(index);
        let start = Instant::now();
        let results = job.run(&cols, policy);
        (results, start.elapsed().as_secs_f64() * 1e3)
    })
}

/// Run every spec over one trace: the [`plan`]'s jobs through
/// [`run_jobs`]. Results keep the order of `specs`, and each is
/// bit-identical to [`engine::run_with`] on its spec's predictor under
/// the same `policy`.
///
/// # Errors
///
/// Returns [`plan`]'s [`ConfigError`] before any simulation runs.
pub fn run_specs(
    specs: &[String],
    columns: &TraceColumns,
    policy: NovelPolicy,
    threads: usize,
) -> Result<Vec<RunResult>, ConfigError> {
    let units: Vec<Unit> = specs.iter().cloned().map(Unit::Spec).collect();
    let (rows, jobs): (Vec<_>, Vec<_>) = plan(&units)?
        .into_iter()
        .map(|(rows, job)| (rows, (0, job)))
        .unzip();
    let mut results = vec![RunResult::default(); specs.len()];
    let done = run_jobs(jobs, |_| columns, policy, threads);
    for (rows, (job_results, _)) in rows.into_iter().zip(done) {
        for (i, result) in rows.into_iter().zip(job_results) {
            results[i] = result;
        }
    }
    Ok(results)
}

/// Parse `spec` and check its values as [`PredictorSpec::build`] does,
/// without allocating any table.
///
/// # Errors
///
/// Returns the [`ConfigError`] [`PredictorSpec::build`] would return.
pub fn check(spec: &str) -> Result<PredictorSpec, ConfigError> {
    let parsed = PredictorSpec::parse(spec)?;
    Job::of(parsed.clone())?;
    Ok(parsed)
}

/// Run one spec of any family over `cols` under [`NovelPolicy::Count`],
/// on the job [`plan`] gives it: a table kernel, a one-row [`LruWalk`] or
/// a set walk. `wrong` is handed each conditional record's misprediction
/// bit in trace order, so the bits sum to the result's `mispredicted`.
/// Time spent is credited to the kernel path of [`crate::timing`].
///
/// # Errors
///
/// Returns [`check`]'s [`ConfigError`] before any simulation runs.
pub fn run_spec_observed(
    spec: &PredictorSpec,
    cols: &TraceColumns,
    wrong: impl FnMut(bool),
) -> Result<RunResult, ConfigError> {
    let job = Job::of(spec.clone())?;
    Ok(job.run_observed(cols, NovelPolicy::Count, wrong)[0])
}

/// The misprediction percentage of each of `windows` consecutive windows
/// of `cols`' conditional records under `spec` ([`run_spec_observed`]):
/// the phase-level view of prediction quality, where cold starts and
/// working-set shifts show up as spikes. Of `n` records, every window
/// holds `n / windows` except the last, which also takes the remainder.
///
/// # Errors
///
/// Returns [`check`]'s [`ConfigError`] before any simulation runs.
///
/// # Panics
///
/// Panics if `windows` is zero or exceeds the conditional records.
pub fn windowed_rates(
    spec: &PredictorSpec,
    cols: &TraceColumns,
    windows: u64,
) -> Result<Vec<f64>, ConfigError> {
    let n = cols.conditional_count();
    assert!(
        (1..=n).contains(&windows),
        "{windows} windows of {n} records"
    );
    let window = n / windows;
    let mut wrong = vec![0u64; windows as usize];
    let mut at = 0;
    run_spec_observed(spec, cols, |bit| {
        wrong[(at / window).min(windows - 1) as usize] += u64::from(bit);
        at += 1;
    })?;
    let last = n - (windows - 1) * window;
    let sizes = (1..windows).map(|_| window).chain([last]);
    let rates = wrong.iter().zip(sizes);
    Ok(rates
        .map(|(&w, size)| 100.0 * w as f64 / size as f64)
        .collect())
}

/// The three-C jobs over one trace through [`run_jobs`]: one
/// direct-mapped pass per cell of `dm_cells` and one fully-associative
/// pass per `(history, capacities)` group of `fa_groups`, each with its
/// own elapsed milliseconds. [`batch::assemble`] turns them into
/// per-cell counts, bit-identical to running `ThreeCClassifier` per cell.
pub fn run_three_c_units(
    dm_cells: &[ThreeCCell],
    fa_groups: &[(u32, Vec<u64>)],
    columns: &TraceColumns,
    threads: usize,
) -> (Vec<Timed<DmCounts>>, Vec<Timed<FaCounts>>) {
    let dm = dm_cells.iter().map(|&cell| (0, Job::Dm(cell)));
    let fa = fa_groups
        .iter()
        .map(|(h, capacities)| (0, Job::Fa(*h, capacities.clone())));
    let jobs = dm.chain(fa).collect();
    let mut done = run_jobs(jobs, |_| columns, NovelPolicy::Count, threads).into_iter();
    let dm = done.by_ref().take(dm_cells.len());
    let dm = dm.map(|(r, ms)| (dm_counts(&r), ms)).collect();
    let fa = done.map(|(r, ms)| (fa_counts(&r), ms)).collect();
    (dm, fa)
}

/// The naive per-record models the kernels and walks are checked
/// against.
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use bpred_core::index::IndexFunction;
    use bpred_core::spec::parse_spec;
    use bpred_trace::cache;
    use bpred_trace::workload::IbsBenchmark;

    fn equivalent(spec: &str, bench: IbsBenchmark, len: u64) {
        let cols = cache::columns(bench, len);
        let mut kernel =
            PredictorKernel::from_spec(&PredictorSpec::parse(spec).unwrap()).expect("supported");
        let fast = kernel.run(&cols);
        let mut model = reference::oracle(spec);
        let slow = engine::run_with(&mut model, cols.records(), NovelPolicy::Count);
        assert_eq!(fast, slow, "{spec} diverges from its reference model");
        // The same transition, driven per record as a dyn predictor.
        let mut table = parse_spec(spec).unwrap();
        let per_record = engine::run_with(&mut table, cols.records(), NovelPolicy::Count);
        assert_eq!(fast, per_record, "{spec} diverges from its dyn predictor");
    }

    /// Each spec's reference model, run alone over `cols` under `policy`.
    fn modelled(specs: &[String], cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
        let run = |spec| engine::run_with(&mut reference::oracle(spec), cols.records(), policy);
        specs.iter().map(|spec| run(spec)).collect()
    }

    #[test]
    fn kernels_match_their_reference_models() {
        for spec in [
            "bimodal:n=8",
            "gshare:n=10,h=4",
            "gshare:n=8,h=12", // folded long history
            "gshare:n=10,h=0",
            "gselect:n=10,h=4",
            "gselect:n=6,h=10", // degenerate history-only indexing
            "gskew:n=8,h=4",
            "gskew:n=8,h=4,update=total",
            "gskew:n=8,h=4,banks=5",
            "gskew:n=8,h=4,skew=off",
            "egskew:n=8,h=6",
            "egskew:n=8,h=6,banks=5,skew=off",
            "gshare:n=10,h=4,ctr=1",
            "gselect:n=9,h=3,ctr=3",
            "bimodal:n=8,ctr=7",
            "gskew:n=8,h=4,ctr=1,update=total",
            "egskew:n=8,h=6,ctr=4",
            "mcfarling:n=10,h=8",
            "mcfarling:n=9,h=5,ctr=1",
            "2bcgskew:n=8,h=8",
            "2bcgskew:n=9,h=13",
            "agree:n=10,h=6",
            "agree:n=9,h=12,bias=6,ctr=3",
            "bimode:n=9,h=6",
            "bimode:n=8,h=10,choice=11,ctr=1",
            "pas:bht=8,l=6,n=10",
            "pas:bht=4,l=12,n=8,ctr=4", // history-only pattern index
            "spas:bht=8,l=6,n=8",
            "spas:bht=6,l=9,n=7,ctr=1,update=total",
            "shgskew:n=8,h=4",
            "shgskew:n=9,h=11,update=total",
            "always-taken",
            "always-nottaken",
        ] {
            equivalent(spec, IbsBenchmark::Groff, 6_000);
        }
    }

    #[test]
    fn kernels_carry_state_across_runs() {
        let cols = cache::columns(IbsBenchmark::Nroff, 5_000);
        let records: Vec<_> = cols.records().collect();
        for spec in [
            "gshare:n=9,h=6",
            "gskew:n=8,h=6,ctr=3",
            "agree:n=9,h=6",
            "bimode:n=8,h=5",
            "pas:bht=6,l=6,n=9",
            "shgskew:n=8,h=6",
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            let whole = PredictorKernel::from_spec(&parsed).unwrap().run(&cols);
            let mut kernel = PredictorKernel::from_spec(&parsed).unwrap();
            let mut chunked = RunResult::default();
            for chunk in records.chunks(777) {
                let part = kernel.run(&TraceColumns::from_records(chunk));
                chunked.conditional += part.conditional;
                chunked.mispredicted += part.mispredicted;
            }
            assert_eq!(chunked, whole, "{spec}");
        }
    }

    #[test]
    fn delayed_and_observed_kernels_match_their_oracles() {
        let cols = cache::columns(IbsBenchmark::Groff, 6_000);
        // One spec per table family.
        for spec in [
            "bimodal:n=14",
            "gshare:n=14,h=8",
            "gskew:n=12,h=8",
            "mcfarling:n=9,h=5,ctr=3",
            "2bcgskew:n=8,h=8",
            "agree:n=9,h=6",
            "bimode:n=8,h=10,choice=11,ctr=1",
            "pas:bht=6,l=6,n=9",
            "spas:bht=6,l=9,n=7,ctr=1,update=total",
            "shgskew:n=8,h=6",
            "always-nottaken",
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            for delay in [0, 1, 3, 32, 10_000] {
                let fast = PredictorKernel::from_spec(&parsed)
                    .unwrap()
                    .run_delayed(&cols, delay);
                let mut model = reference::oracle(spec);
                let slow =
                    engine::run_delayed(&mut model, cols.records(), NovelPolicy::Count, delay);
                assert_eq!(fast, slow, "{spec} at delay {delay}");
            }
            let mut wrong = 0u64;
            let observed = PredictorKernel::from_spec(&parsed)
                .unwrap()
                .run_observed(&cols, |_, predicted, taken| {
                    wrong += u64::from(predicted != taken)
                });
            let plain = PredictorKernel::from_spec(&parsed).unwrap().run(&cols);
            assert_eq!(observed, plain, "{spec}");
            assert_eq!(wrong, plain.mispredicted, "{spec}");
        }
    }

    #[test]
    fn other_families_have_no_kernel() {
        for spec in [
            "ideal:h=4", // runs as an LruWalk row instead
            "falru:cap=64,h=4",
            "setassoc:n=6,ways=2,h=4", // runs as a set walk instead
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            assert!(
                PredictorKernel::from_spec(&parsed).is_none(),
                "{spec} should not have a table kernel"
            );
        }
    }

    #[test]
    fn run_specs_mixes_every_job_kind_in_order() {
        let bench = IbsBenchmark::Verilog;
        let len = 5_000;
        let cols = cache::columns(bench, len);
        let specs: Vec<String> = [
            "gshare:n=9,h=4",          // kernel
            "setassoc:n=6,ways=2,h=4", // set walk
            "falru:cap=32,h=4",        // walk
            "gskew:n=8,h=4",           // kernel
            "ideal:h=4",               // same walk
            "always-taken",            // kernel
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let jobs = plan(&specs.iter().cloned().map(Unit::Spec).collect::<Vec<_>>()).unwrap();
        let rows: Vec<_> = jobs.iter().map(|(rows, _)| rows.clone()).collect();
        assert_eq!(rows, [vec![2, 4], vec![0], vec![1], vec![3], vec![5]]);
        assert!(matches!(jobs[2].1, Job::Set(_)) && matches!(jobs[4].1, Job::Table(_)));
        let routed = run_specs(&specs, &cols, NovelPolicy::Count, 2).unwrap();
        assert_eq!(routed, modelled(&specs, &cols, NovelPolicy::Count));
    }

    #[test]
    fn run_specs_surfaces_config_errors() {
        let cols = cache::columns(IbsBenchmark::Verilog, 100);
        // Out-of-range specs fail with `build`'s error, and `plan` builds
        // nothing to find it.
        for spec in [
            "gshare:n=0",
            "gshare:n=31",
            "gskew:n=1,h=4",
            "mcfarling:n=0,h=4",
            "2bcgskew:n=1,h=8",
            "agree:n=10,h=4,bias=31",
            "bimode:n=10,h=65",
            "pas:bht=10,l=33,n=10",
            "spas:bht=10,l=8,n=1",
            "shgskew:n=1,h=4",
            "falru:cap=0,h=4",
            "falru:cap=64,h=65",
            "ideal:h=65",
            "setassoc:n=0,ways=2,h=4",
            "setassoc:n=31,ways=2,h=4",
            "setassoc:n=6,ways=0,h=4",
            "setassoc:n=30,ways=1,h=4",
            "setassoc:n=6,ways=2,h=65",
        ] {
            let built = PredictorSpec::parse(spec).unwrap().build().err();
            let routed = run_specs(&[spec.to_string()], &cols, NovelPolicy::Count, 1).err();
            assert!(routed.is_some(), "{spec}");
            assert_eq!(routed, built, "{spec}");
        }
        let unknown = vec!["tage:n=12".to_string()];
        assert!(run_specs(&unknown, &cols, NovelPolicy::Count, 1).is_err());
    }

    #[test]
    fn three_c_units_match_the_classifier_under_any_thread_count() {
        use bpred_aliasing::three_c::ThreeCClassifier;
        let cols = cache::columns(IbsBenchmark::Groff, 8_000);
        let cells: Vec<ThreeCCell> = [
            (6u32, 4u32, IndexFunction::Gshare),
            (6, 4, IndexFunction::Gselect),
            (8, 4, IndexFunction::Gshare),
            (8, 12, IndexFunction::Gselect),
            (10, 0, IndexFunction::Bimodal),
        ]
        .iter()
        .map(|&(n, h, func)| ThreeCCell {
            entries_log2: n,
            history_bits: h,
            func,
        })
        .collect();
        let groups = batch::fa_groups(&cells);
        let run_three_c = |threads| {
            let (dm, fa) = run_three_c_units(&cells, &groups, &cols, threads);
            let dm: Vec<_> = dm.into_iter().map(|(counts, _)| counts).collect();
            let fa: Vec<_> = fa.into_iter().map(|(counts, _)| counts).collect();
            batch::assemble(&cells, &groups, &dm, &fa)
        };
        let sequential = run_three_c(1);
        let parallel = run_three_c(4);
        assert_eq!(sequential, parallel, "thread count must not matter");
        for (cell, counts) in cells.iter().zip(&sequential) {
            let reference = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(cols.records());
            assert_eq!(*counts, reference, "{cell:?}");
        }
    }

    #[test]
    fn windowed_rates_average_to_the_total() {
        let len = 40_000;
        let cols = cache::columns(IbsBenchmark::Groff, len);
        // A table kernel, and a walk whose novel misses are charged.
        for spec in ["gshare:n=10,h=6", "ideal:h=6"] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            let windows = windowed_rates(&parsed, &cols, 10).unwrap();
            assert_eq!(windows.len(), 10);
            let total = run_specs(&[spec.to_string()], &cols, NovelPolicy::Count, 1).unwrap()[0];
            let mean = windows.iter().sum::<f64>() / windows.len() as f64;
            assert!(
                (mean - total.mispredict_pct()).abs() < 1e-9,
                "{spec}: windowed mean {mean} vs total {}",
                total.mispredict_pct()
            );
        }
    }

    #[test]
    fn windowed_cold_start_is_visible() {
        let cols = cache::columns(IbsBenchmark::Gs, 100_000);
        let spec = PredictorSpec::parse("gshare:n=12,h=8").unwrap();
        let windows = windowed_rates(&spec, &cols, 10).unwrap();
        assert!(
            windows[0] > *windows.last().unwrap(),
            "first (cold) window {} should exceed the last {}",
            windows[0],
            windows.last().unwrap()
        );
    }

    #[test]
    fn last_window_takes_the_remainder() {
        let records: Vec<_> = [true, false, false, true, false]
            .iter()
            .enumerate()
            .map(|(i, &taken)| BranchRecord::conditional(0x100 + 4 * i as u64, taken))
            .collect();
        let cols = TraceColumns::from_records(&records);
        let spec = PredictorSpec::parse("always-taken").unwrap();
        // Five branches in two windows of two: the last holds three.
        let windows = windowed_rates(&spec, &cols, 2).unwrap();
        assert_eq!(windows.len(), 2);
        assert!((windows[0] - 50.0).abs() < 1e-12);
        assert!((windows[1] - 200.0 / 3.0).abs() < 1e-12);
        // One window per branch.
        let windows = windowed_rates(&spec, &cols, 5).unwrap();
        assert_eq!(windows, [0.0, 100.0, 100.0, 0.0, 100.0]);
    }

    #[test]
    fn novel_policy_is_irrelevant_to_the_table_kernels() {
        let cols = cache::columns(IbsBenchmark::Gs, 4_000);
        let specs = vec!["gskew:n=8,h=6".to_string(), "agree:n=9,h=6".to_string()];
        let count = run_specs(&specs, &cols, NovelPolicy::Count, 1).unwrap();
        let exclude = run_specs(&specs, &cols, NovelPolicy::Exclude, 1).unwrap();
        assert_eq!(count, exclude);
        assert!(count.iter().all(|r| r.novel == 0));
    }

    #[test]
    fn lru_walk_matches_the_reference_models_under_both_policies() {
        let cols = cache::columns(IbsBenchmark::Groff, 6_000);
        let specs: Vec<String> = [
            "falru:cap=16,h=4",
            "falru:cap=256,h=4,ctr=1,miss=nottaken",
            "ideal:h=4,ctr=3",
            "falru:cap=1,h=8",
            "falru:cap=16,h=4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let units: Vec<_> = specs.iter().cloned().map(Unit::Spec).collect();
        let jobs = plan(&units).unwrap();
        assert_eq!(jobs.len(), 2, "one walk per history length");
        assert!(jobs.iter().all(|(_, job)| matches!(job, Job::Walk(_))));
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 2).unwrap();
            assert_eq!(routed, modelled(&specs, &cols, policy), "{policy:?}");
            assert!(routed.iter().all(|r| r.novel > 0));
        }
    }
}
