//! Monomorphized batch kernels: the devirtualized simulation fast path.
//!
//! The general engine drives `Box<dyn BranchPredictor>` objects — two
//! virtual calls per record per predictor — over an array-of-structs
//! trace. For the tag-less table predictors that dominate every sweep in
//! the paper nothing about the predict/update pair actually needs dynamic
//! dispatch: the whole transition is a few table index computations,
//! counter compares and saturating steps. This module compiles that
//! transition into one tight loop per predictor shape, walking the
//! structure-of-arrays [`TraceColumns`] view instead of `BranchRecord`
//! structs.
//!
//! Fast-path families (everything else runs on the `dyn` engine):
//!
//! | family | kernel | counters |
//! |---|---|---|
//! | `bimodal`, `gshare`, `gselect` | [`OneBankKernel`] | 1..=7 bits |
//! | `gskew`, `egskew` (3 or 5 banks, partial/total, `skew=off`) | [`GskewKernel`] | 1..=7 bits |
//! | `mcfarling` (bimodal + gshare + 2-bit meta) | [`McFarlingKernel`] | 1..=7 bits |
//! | `2bcgskew` (BIM + G0 + G1 + meta) | [`TwoBcGskewKernel`] | 2 bits |
//! | `agree` (gshare counters + first-outcome bias table) | [`AgreeKernel`] | 1..=7 bits |
//! | `bimode` (choice table + two gshare banks) | [`BiModeKernel`] | 1..=7 bits |
//! | `pas` (local histories + gselect pattern table) | [`PasKernel`] | 1..=7 bits |
//! | `spas` (local histories + 3 skewed banks) | [`SpasKernel`] | 1..=7 bits |
//! | `shgskew` (3 direction banks, shared hysteresis) | [`ShgskewKernel`] | 2 bits |
//! | `falru`, `ideal` (tagged tables), one walk per history length | [`LruWalk`] | 1..=7 bits |
//!
//! Every table loop is generic over its counter automaton: the 2-bit
//! counter has its bounds as constants, every other width reads them from
//! its [`CounterKind`] (boot at `weakly_taken`, predict taken above
//! `neutral`, saturate at `max_value`). The gskew loop also takes its
//! bank count and indexing variant as const parameters, computes the
//! shared `H`/`H⁻¹` images of the two `n`-bit vector halves once per
//! record, reads each bank's counter once and writes every bank back
//! through a select; `spas` and `shgskew` use the same index code.
//!
//! The contract is **bit identity**: for every supported spec,
//! [`PredictorKernel::run`] produces exactly the [`RunResult`] that
//! [`engine::run_with`] produces for the predictor built from the same
//! spec — same index functions ([`IndexFunction::index`], the skewing
//! functions of `bpred_core::skew`), same counter semantics, same
//! history updates, and the indices are computed *once* per conditional
//! record (legal because the dyn path's `update` recomputes them under
//! the unchanged prediction-time history). Table kernels never flag a
//! prediction *novel*, so their result is also independent of the
//! [`NovelPolicy`]; the [`LruWalk`] rows do flag misses novel and honour
//! the policy they are given, as the tagged dyn predictors do. The
//! equivalence is pinned by a proptest suite (`tests/kernel_equiv.rs`)
//! and by the campaign regression gates.
//!
//! The one-bank and gskew loops also serve the custom experiment loops
//! that used to drive `dyn` predictors. Each has one source,
//! monomorphized by a `DELAYED` const flag and an observer closure:
//!
//! - [`PredictorKernel::run_delayed`] is retirement-time training
//!   (`ext-delay`), bit-identical to [`engine::run_delayed`]: record `i`
//!   predicts from the state the records before `i - delay` left, and a
//!   retiring record recomputes its indices under the retire-time
//!   history (gskew re-votes, as `Gskew::update` does) before it trains.
//! - [`PredictorKernel::run_observed`] calls a hook with every
//!   conditional record's bank votes, prediction and outcome before the
//!   tables train — `ext-duel`'s per-record "wrong" bits
//!   ([`crate::duel::kernel_duel`]) and `ext-confidence`'s
//!   unanimous/split tally.
//!
//! [`PredictorKernel::run`] is the `DELAYED = false` copy with a no-op
//! hook, which compiles to the plain loop.
//!
//! [`run_specs`] is the batching entry point used by the experiment
//! sweeps: it parses each spec ([`PredictorSpec::parse`]), splits the
//! list into fast-path units ([`plan`]) running in parallel over one
//! shared column view, and falls back to a single batched
//! [`engine::run_many`] pass for everything else.

use crate::engine::{self, NovelPolicy, RunResult};
use crate::runner::parallel_map;
use crate::timing;
use bpred_aliasing::batch::{self, DmCounts, FaCounts, ThreeCCell};
use bpred_aliasing::distance::LastUseDistance;
use bpred_aliasing::three_c::ThreeCCounts;
use bpred_core::assoc::MissPolicy;
use bpred_core::counter::CounterKind;
use bpred_core::error::ConfigError;
use bpred_core::gskew::UpdatePolicy;
use bpred_core::index::IndexFunction;
use bpred_core::skew;
use bpred_core::spec::PredictorSpec;
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;
use std::time::Instant;

/// A saturating-counter automaton, the type parameter of every kernel
/// loop: the `bpred_core::counter` transition over the bounds of one
/// [`CounterKind`].
trait Counter: Copy {
    /// The highest value that predicts not-taken.
    fn neutral(self) -> u8;
    /// The saturation value.
    fn max(self) -> u8;

    /// Whether `cell` predicts taken.
    #[inline(always)]
    fn taken(self, cell: u8) -> bool {
        cell > self.neutral()
    }

    /// `cell` after training with `taken`.
    #[inline(always)]
    fn step(self, cell: u8, taken: bool) -> u8 {
        if taken {
            if cell < self.max() {
                cell + 1
            } else {
                cell
            }
        } else {
            cell.saturating_sub(1)
        }
    }
}

/// The [`CounterKind::TwoBit`] automaton, with its bounds as constants.
#[derive(Debug, Clone, Copy)]
struct TwoBit;

impl Counter for TwoBit {
    #[inline(always)]
    fn neutral(self) -> u8 {
        1
    }

    #[inline(always)]
    fn max(self) -> u8 {
        3
    }
}

/// Any [`CounterKind`], with its bounds read at run time.
#[derive(Debug, Clone, Copy)]
struct Width {
    neutral: u8,
    max: u8,
}

impl Width {
    fn of(kind: CounterKind) -> Width {
        Width {
            neutral: kind.neutral(),
            max: kind.max_value(),
        }
    }
}

impl Counter for Width {
    #[inline(always)]
    fn neutral(self) -> u8 {
        self.neutral
    }

    #[inline(always)]
    fn max(self) -> u8 {
        self.max
    }
}

/// Evaluate `$body` with `$c` bound to the automaton for `$kind`: the
/// constant-bounded [`TwoBit`] for 2-bit tables, a [`Width`] otherwise.
macro_rules! with_counter {
    ($kind:expr, $c:ident => $body:expr) => {
        match $kind {
            CounterKind::TwoBit => {
                let $c = TwoBit;
                $body
            }
            kind => {
                let $c = Width::of(kind);
                $body
            }
        }
    };
}

#[inline(always)]
fn hist_mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// `hist` with `bit` shifted in, kept to the history length's mask.
#[inline(always)]
fn push_history(hist: u64, bit: bool, hmask: u64) -> u64 {
    ((hist << 1) | u64::from(bit)) & hmask
}

/// A single-bank kernel: bimodal, gshare or gselect.
#[derive(Debug, Clone)]
pub struct OneBankKernel {
    func: IndexFunction,
    kind: CounterKind,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    table: Vec<u8>,
}

impl OneBankKernel {
    fn new(func: IndexFunction, n: u32, hist_bits: u32, kind: CounterKind) -> OneBankKernel {
        OneBankKernel {
            func,
            kind,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            table: vec![kind.weakly_taken(); 1usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        self.dispatch::<false>(cols, 0, |_, _, _| {})
    }

    fn dispatch<const DELAYED: bool>(
        &mut self,
        cols: &TraceColumns,
        delay: usize,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        // Dispatch once, outside the loop: each closure pins the variant,
        // so `IndexFunction::index` const-folds its match inside the
        // monomorphized copy of `drive`.
        with_counter!(self.kind, c => match self.func {
            IndexFunction::Bimodal => self.drive::<_, DELAYED>(
                cols,
                c,
                |v, n| IndexFunction::Bimodal.index(v, n),
                delay,
                observe,
            ),
            IndexFunction::Gshare => self.drive::<_, DELAYED>(
                cols,
                c,
                |v, n| IndexFunction::Gshare.index(v, n),
                delay,
                observe,
            ),
            IndexFunction::Gselect => self.drive::<_, DELAYED>(
                cols,
                c,
                |v, n| IndexFunction::Gselect.index(v, n),
                delay,
                observe,
            ),
        })
    }

    /// The one drive loop. `DELAYED = false` trains each conditional
    /// record right after predicting it; `DELAYED = true` retires record
    /// `i - delay` after predicting record `i` (see
    /// [`PredictorKernel::run_delayed`]). `observe` sees every
    /// conditional record's vote, prediction and outcome.
    #[inline(always)]
    fn drive<C: Counter, const DELAYED: bool>(
        &mut self,
        cols: &TraceColumns,
        c: C,
        index: impl Fn(&InfoVector, u32) -> u64,
        delay: usize,
        mut observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let table = &mut self.table[..];
        let tmask = table.len() - 1;
        // The extra mask is value-neutral (the index is already `n` bits)
        // but lets the compiler drop the bounds check.
        let at =
            |pc: u64, hist: u64| index(&InfoVector::new(pc, hist, hist_bits), n) as usize & tmask;
        let pcs = cols.pcs();
        // Retire record `j`: recompute its index under the history at
        // retire time, train, and shift the history.
        let retire = |j: usize, table: &mut [u8], hist: &mut u64| {
            let (conditional, taken) = cols.cond_taken(j);
            if conditional {
                let idx = at(pcs[j], *hist);
                table[idx] = c.step(table[idx], taken);
            }
            *hist = push_history(*hist, !conditional || taken, hmask);
        };
        for (i, &pc) in pcs.iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let idx = at(pc, hist);
                let cell = table[idx];
                let predicted = c.taken(cell);
                observe(&[predicted], predicted, taken);
                result.conditional += 1;
                result.mispredicted += u64::from(predicted != taken);
                if !DELAYED {
                    table[idx] = c.step(cell, taken);
                    hist = push_history(hist, taken, hmask);
                }
            } else if !DELAYED {
                hist = push_history(hist, true, hmask);
            }
            if DELAYED && i >= delay {
                retire(i - delay, table, &mut hist);
            }
        }
        if DELAYED {
            // Drain the records still in flight.
            for j in pcs.len().saturating_sub(delay)..pcs.len() {
                retire(j, table, &mut hist);
            }
        }
        self.hist = hist;
        result
    }
}

/// The two low `n`-bit substrings `(V1, V2)` of a packed information
/// vector (`bpred_core::skew`'s decomposition).
#[inline(always)]
fn halves(packed: u64, n: u32) -> (u64, u64) {
    let m = (1u64 << n) - 1;
    (packed & m, (packed >> n) & m)
}

/// The bank indices of one record under the skewing functions `f0..f4`
/// of `bpred_core::skew::skew_index`, sharing `H(V1)`, `H⁻¹(V2)`,
/// `H⁻¹(V1)` and `H(V2)` across banks. `ENHANCED` indexes bank 0 by
/// the address alone; `SKEW = false` indexes every other bank with `f0`
/// (the `skew=off` ablation). Images no bank uses are dead code in the
/// monomorphized copy.
#[inline(always)]
fn gskew_indices<const B: usize, const ENHANCED: bool, const SKEW: bool>(
    addr: u64,
    packed: u64,
    n: u32,
) -> [usize; B] {
    let (v1, v2) = halves(packed, n);
    let (h_v1, hi_v2) = (skew::h(v1, n), skew::h_inv(v2, n));
    let (hi_v1, h_v2) = (skew::h_inv(v1, n), skew::h(v2, n));
    let f = [
        h_v1 ^ hi_v2 ^ v2,
        h_v1 ^ hi_v2 ^ v1,
        hi_v1 ^ h_v2 ^ v2,
        hi_v1 ^ h_v2 ^ v1,
        skew::h(h_v1, n) ^ skew::h_inv(hi_v2, n) ^ v2,
    ];
    std::array::from_fn(|b| {
        let raw = if ENHANCED && b == 0 {
            addr & ((1u64 << n) - 1)
        } else if SKEW {
            f[b]
        } else {
            f[0]
        };
        raw as usize
    })
}

/// The per-bank votes of `cells` and their majority: the read-only half
/// of a skewed lookup.
#[inline(always)]
fn vote<C: Counter, const B: usize>(cells: [u8; B], c: C) -> ([bool; B], bool) {
    let votes = cells.map(|cell| c.taken(cell));
    let overall = 2 * votes.iter().filter(|&&v| v).count() > B;
    (votes, overall)
}

/// Train the `B` counters at `at`, which held `cells` and voted for the
/// majority `overall`, with `taken`. Partial update spares dissenting
/// banks only when the vote was correct (section 4.1).
#[inline(always)]
fn train<C: Counter, const B: usize>(
    tables: &mut [u8],
    at: [usize; B],
    cells: [u8; B],
    overall: bool,
    c: C,
    taken: bool,
    partial: bool,
) {
    let train_all = !partial || overall != taken;
    for b in 0..B {
        let cell = cells[b];
        let train = train_all || c.taken(cell) == taken;
        tables[at[b]] = if train { c.step(cell, taken) } else { cell };
    }
}

/// A gskew-family kernel: 3 or 5 banks in one flat array, partial or
/// total update, plain / enhanced / identical-indexing variants.
#[derive(Debug, Clone)]
pub struct GskewKernel {
    banks: usize,
    kind: CounterKind,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    partial: bool,
    enhanced: bool,
    skewing: bool,
    tables: Vec<u8>,
}

impl GskewKernel {
    fn new(
        n: u32,
        hist_bits: u32,
        banks: usize,
        kind: CounterKind,
        update: UpdatePolicy,
        enhanced: bool,
        skewing: bool,
    ) -> GskewKernel {
        GskewKernel {
            banks,
            kind,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            partial: update == UpdatePolicy::Partial,
            enhanced,
            skewing,
            tables: vec![kind.weakly_taken(); banks << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        self.dispatch::<false>(cols, 0, |_, _, _| {})
    }

    fn dispatch<const DELAYED: bool>(
        &mut self,
        cols: &TraceColumns,
        delay: usize,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        with_counter!(self.kind, c => match self.banks {
            3 => self.variant::<_, 3, DELAYED>(cols, c, delay, observe),
            5 => self.variant::<_, 5, DELAYED>(cols, c, delay, observe),
            _ => unreachable!("from_spec admits 3 or 5 banks only"),
        })
    }

    fn variant<C: Counter, const B: usize, const DELAYED: bool>(
        &mut self,
        cols: &TraceColumns,
        c: C,
        delay: usize,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        match (self.enhanced, self.skewing) {
            (false, true) => self.drive::<C, B, false, true, DELAYED>(cols, c, delay, observe),
            (true, true) => self.drive::<C, B, true, true, DELAYED>(cols, c, delay, observe),
            (false, false) => self.drive::<C, B, false, false, DELAYED>(cols, c, delay, observe),
            (true, false) => self.drive::<C, B, true, false, DELAYED>(cols, c, delay, observe),
        }
    }

    /// The one drive loop; `DELAYED` and `observe` as in
    /// [`OneBankKernel`]'s. A delayed retirement re-votes under the
    /// retire-time history before training, as `Gskew::update` does.
    #[inline(always)]
    fn drive<
        C: Counter,
        const B: usize,
        const ENHANCED: bool,
        const SKEW: bool,
        const DELAYED: bool,
    >(
        &mut self,
        cols: &TraceColumns,
        c: C,
        delay: usize,
        mut observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let bank_size = 1usize << n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let partial = self.partial;
        let tables = &mut self.tables[..];
        let at = |pc: u64, hist: u64| -> [usize; B] {
            let addr = pc >> 2;
            // InfoVector::packed for a pre-masked history.
            let packed = if hist_bits >= 64 {
                hist
            } else {
                (addr << hist_bits) | hist
            };
            let raw = gskew_indices::<B, ENHANCED, SKEW>(addr, packed, n);
            std::array::from_fn(|b| b * bank_size + raw[b])
        };
        let pcs = cols.pcs();
        // Retire record `j` under the history at retire time.
        let retire = |j: usize, tables: &mut [u8], hist: &mut u64| {
            let (conditional, taken) = cols.cond_taken(j);
            if conditional {
                let at = at(pcs[j], *hist);
                let cells: [u8; B] = at.map(|i| tables[i]);
                let (_, overall) = vote(cells, c);
                train(tables, at, cells, overall, c, taken, partial);
            }
            *hist = push_history(*hist, !conditional || taken, hmask);
        };
        for (i, &pc) in pcs.iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let at = at(pc, hist);
                let cells: [u8; B] = at.map(|i| tables[i]);
                let (votes, overall) = vote(cells, c);
                observe(&votes, overall, taken);
                result.conditional += 1;
                result.mispredicted += u64::from(overall != taken);
                if !DELAYED {
                    train(tables, at, cells, overall, c, taken, partial);
                    hist = push_history(hist, taken, hmask);
                }
            } else if !DELAYED {
                hist = push_history(hist, true, hmask);
            }
            if DELAYED && i >= delay {
                retire(i - delay, tables, &mut hist);
            }
        }
        if DELAYED {
            // Drain the records still in flight.
            for j in pcs.len().saturating_sub(delay)..pcs.len() {
                retire(j, tables, &mut hist);
            }
        }
        self.hist = hist;
        result
    }
}

/// The `mcfarling` kernel: a bimodal and a gshare table of `2^n`
/// counters each plus a `2^n`-entry 2-bit meta table indexed by address.
/// A high meta counter selects gshare; the meta counter trains only
/// when the two components disagree, toward the one that was right.
#[derive(Debug, Clone)]
pub struct McFarlingKernel {
    kind: CounterKind,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    meta: Vec<u8>,
}

impl McFarlingKernel {
    fn new(n: u32, hist_bits: u32, kind: CounterKind) -> McFarlingKernel {
        McFarlingKernel {
            kind,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            bimodal: vec![kind.weakly_taken(); 1usize << n],
            gshare: vec![kind.weakly_taken(); 1usize << n],
            meta: vec![CounterKind::TwoBit.weakly_taken(); 1usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        with_counter!(self.kind, c => self.drive(cols, c))
    }

    #[inline(always)]
    fn drive<C: Counter>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let tmask = (1usize << n) - 1;
        let (bimodal, gshare, meta) = (&mut self.bimodal, &mut self.gshare, &mut self.meta);
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let v = InfoVector::new(pc, hist, hist_bits);
                let ia = IndexFunction::Bimodal.index(&v, n) as usize & tmask;
                let ig = IndexFunction::Gshare.index(&v, n) as usize & tmask;
                let (b, g, m) = (bimodal[ia], gshare[ig], meta[ia]);
                let (p0, p1) = (c.taken(b), c.taken(g));
                let predicted = if TwoBit.taken(m) { p1 } else { p0 };
                result.conditional += 1;
                result.mispredicted += u64::from(predicted != taken);
                meta[ia] = if p0 != p1 {
                    TwoBit.step(m, p1 == taken)
                } else {
                    m
                };
                bimodal[ia] = c.step(b, taken);
                gshare[ig] = c.step(g, taken);
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// The `2bcgskew` kernel: four `2^n`-entry banks of 2-bit counters —
/// BIM and meta indexed by address, G0 by `f1` over `h/2` history bits,
/// G1 by `f2` over all `h` bits. Meta selects between BIM and the
/// 3-way majority and trains when they disagree; the three predicting
/// banks train with partial update.
#[derive(Debug, Clone)]
pub struct TwoBcGskewKernel {
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    /// BIM, G0, G1 and meta, `2^n` counters each, in that order.
    tables: Vec<u8>,
}

impl TwoBcGskewKernel {
    fn new(n: u32, hist_bits: u32) -> TwoBcGskewKernel {
        TwoBcGskewKernel {
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            tables: vec![CounterKind::TwoBit.weakly_taken(); 4usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let size = 1usize << n;
        let long_bits = self.hist_bits;
        let short_bits = long_bits / 2;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let (bim, rest) = self.tables.split_at_mut(size);
        let (g0, rest) = rest.split_at_mut(size);
        let (g1, meta) = rest.split_at_mut(size);
        let c = TwoBit;
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let ia = ((pc >> 2) as usize) & (size - 1);
                let (s1, s2) = halves(InfoVector::new(pc, hist, short_bits).packed(), n);
                let i0 = (skew::h(s1, n) ^ skew::h_inv(s2, n) ^ s1) as usize;
                let (l1, l2) = halves(InfoVector::new(pc, hist, long_bits).packed(), n);
                let i1 = (skew::h_inv(l1, n) ^ skew::h(l2, n) ^ l2) as usize;
                let cells = [bim[ia], g0[i0], g1[i1]];
                let m = meta[ia];
                let votes = cells.map(|cell| c.taken(cell));
                let majority = votes.iter().filter(|&&v| v).count() >= 2;
                let predicted = if c.taken(m) { majority } else { votes[0] };
                result.conditional += 1;
                result.mispredicted += u64::from(predicted != taken);
                meta[ia] = if majority != votes[0] {
                    c.step(m, majority == taken)
                } else {
                    m
                };
                // Partial update: on a correct prediction only the
                // agreeing banks are strengthened.
                let train_all = predicted != taken;
                let trained = |b: usize| {
                    if train_all || votes[b] == taken {
                        c.step(cells[b], taken)
                    } else {
                        cells[b]
                    }
                };
                bim[ia] = trained(0);
                g0[i0] = trained(1);
                g1[i1] = trained(2);
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// The `agree` kernel: `2^n` gshare-indexed agreement counters over a
/// `2^bias`-entry address-indexed bias table. A bias entry is set to the
/// first outcome that reaches it and reads as taken while unset; a
/// counter predicts "agrees with the bias" and trains toward whether the
/// outcome did.
#[derive(Debug, Clone)]
pub struct AgreeKernel {
    kind: CounterKind,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    counters: Vec<u8>,
    /// [`BIAS_UNSET`], [`BIAS_NOT_TAKEN`] or [`BIAS_TAKEN`] per entry.
    bias: Vec<u8>,
}

const BIAS_UNSET: u8 = 0;
const BIAS_NOT_TAKEN: u8 = 1;
const BIAS_TAKEN: u8 = 2;

impl AgreeKernel {
    fn new(n: u32, hist_bits: u32, bias: u32, kind: CounterKind) -> AgreeKernel {
        AgreeKernel {
            kind,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            counters: vec![kind.weakly_taken(); 1usize << n],
            bias: vec![BIAS_UNSET; 1usize << bias],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        with_counter!(self.kind, c => self.drive(cols, c))
    }

    #[inline(always)]
    fn drive<C: Counter>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let tmask = (1usize << n) - 1;
        let bmask = self.bias.len() - 1;
        let (counters, bias) = (&mut self.counters, &mut self.bias);
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let v = InfoVector::new(pc, hist, hist_bits);
                let idx = IndexFunction::Gshare.index(&v, n) as usize & tmask;
                let bi = (pc >> 2) as usize & bmask;
                let b = bias[bi];
                let cell = counters[idx];
                // Agreeing with the bias predicts the bias direction.
                let predicted = c.taken(cell) == (b != BIAS_NOT_TAKEN);
                result.conditional += 1;
                result.mispredicted += u64::from(predicted != taken);
                let biased_taken = if b == BIAS_UNSET {
                    bias[bi] = if taken { BIAS_TAKEN } else { BIAS_NOT_TAKEN };
                    taken
                } else {
                    b == BIAS_TAKEN
                };
                counters[idx] = c.step(cell, taken == biased_taken);
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// The `bimode` kernel: a `2^choice`-entry address-indexed choice table
/// steering between a not-taken and a taken bank of `2^n` gshare-indexed
/// counters. Only the chosen bank trains; the choice counter trains with
/// the outcome unless the chosen bank overrode it successfully.
#[derive(Debug, Clone)]
pub struct BiModeKernel {
    kind: CounterKind,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    choice: Vec<u8>,
    /// The not-taken bank, then the taken bank, `2^n` counters each.
    banks: Vec<u8>,
}

impl BiModeKernel {
    fn new(n: u32, hist_bits: u32, choice: u32, kind: CounterKind) -> BiModeKernel {
        BiModeKernel {
            kind,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            choice: vec![kind.weakly_taken(); 1usize << choice],
            banks: vec![kind.weakly_taken(); 2usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        with_counter!(self.kind, c => self.drive(cols, c))
    }

    #[inline(always)]
    fn drive<C: Counter>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let tmask = (1usize << n) - 1;
        let cmask = self.choice.len() - 1;
        let (choice, banks) = (&mut self.choice, &mut self.banks);
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let v = InfoVector::new(pc, hist, hist_bits);
                let ci = (pc >> 2) as usize & cmask;
                let ch = choice[ci];
                let chosen_taken = c.taken(ch);
                let at = (usize::from(chosen_taken) << n)
                    | (IndexFunction::Gshare.index(&v, n) as usize & tmask);
                let cell = banks[at];
                let predicted = c.taken(cell);
                result.conditional += 1;
                result.mispredicted += u64::from(predicted != taken);
                banks[at] = c.step(cell, taken);
                let overridden = predicted == taken && chosen_taken != taken;
                if !overridden {
                    choice[ci] = c.step(ch, taken);
                }
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// The first level of `pas` and `spas`: `2^bht` local histories of `l`
/// bits, indexed by address truncation. Unconditional branches leave it
/// alone.
#[derive(Debug, Clone)]
struct LocalHistories {
    slots: Vec<u64>,
    bits: u32,
}

impl LocalHistories {
    fn new(bht: u32, bits: u32) -> LocalHistories {
        LocalHistories {
            slots: vec![0; 1usize << bht],
            bits,
        }
    }
}

/// The `pas` kernel: `2^bht` local histories of `l` bits and a `2^n`-entry
/// pattern table indexed by gselect over (address, local history).
#[derive(Debug, Clone)]
pub struct PasKernel {
    kind: CounterKind,
    n: u32,
    bht: LocalHistories,
    table: Vec<u8>,
}

impl PasKernel {
    fn new(bht: u32, l: u32, n: u32, kind: CounterKind) -> PasKernel {
        PasKernel {
            kind,
            n,
            bht: LocalHistories::new(bht, l),
            table: vec![kind.weakly_taken(); 1usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        with_counter!(self.kind, c => self.drive(cols, c))
    }

    #[inline(always)]
    fn drive<C: Counter>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let tmask = (1usize << n) - 1;
        let l = self.bht.bits;
        let lmask = hist_mask(l);
        let slots = &mut self.bht.slots[..];
        let smask = slots.len() - 1;
        let table = &mut self.table[..];
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let slot = (pc >> 2) as usize & smask;
                let local = slots[slot];
                let v = InfoVector::new(pc, local, l);
                let idx = IndexFunction::Gselect.index(&v, n) as usize & tmask;
                let cell = table[idx];
                result.conditional += 1;
                result.mispredicted += u64::from(c.taken(cell) != taken);
                table[idx] = c.step(cell, taken);
                slots[slot] = ((local << 1) | u64::from(taken)) & lmask;
            }
        }
        result
    }
}

/// The `spas` kernel: `2^bht` local histories of `l` bits and three
/// `2^n`-counter banks indexed by `f0..f2` over (address, local
/// history), majority vote, partial or total update.
#[derive(Debug, Clone)]
pub struct SpasKernel {
    kind: CounterKind,
    n: u32,
    partial: bool,
    bht: LocalHistories,
    tables: Vec<u8>,
}

impl SpasKernel {
    fn new(bht: u32, l: u32, n: u32, kind: CounterKind, update: UpdatePolicy) -> SpasKernel {
        SpasKernel {
            kind,
            n,
            partial: update == UpdatePolicy::Partial,
            bht: LocalHistories::new(bht, l),
            tables: vec![kind.weakly_taken(); 3usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        with_counter!(self.kind, c => self.drive(cols, c))
    }

    #[inline(always)]
    fn drive<C: Counter>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let bank_size = 1usize << n;
        let partial = self.partial;
        let l = self.bht.bits;
        let lmask = hist_mask(l);
        let slots = &mut self.bht.slots[..];
        let smask = slots.len() - 1;
        let tables = &mut self.tables[..];
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let addr = pc >> 2;
                let slot = addr as usize & smask;
                let local = slots[slot];
                // InfoVector::packed, with `l` at most 32 bits.
                let raw = gskew_indices::<3, false, true>(addr, (addr << l) | local, n);
                let at: [usize; 3] = std::array::from_fn(|b| b * bank_size + raw[b]);
                let cells = at.map(|i| tables[i]);
                let (_, overall) = vote(cells, c);
                train(tables, at, cells, overall, c, taken, partial);
                result.conditional += 1;
                result.mispredicted += u64::from(overall != taken);
                slots[slot] = ((local << 1) | u64::from(taken)) & lmask;
            }
        }
        result
    }
}

/// The `shgskew` kernel: three `2^n`-entry banks of direction bits
/// indexed by `f0..f2`, each with a `2^(n-1)`-entry hysteresis bank whose
/// bit `idx >> 1` is shared by entries `idx` and `idx ^ 1`. A
/// (direction, hysteresis) pair steps as one 2-bit counter; majority
/// vote, partial or total update.
#[derive(Debug, Clone)]
pub struct ShgskewKernel {
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    partial: bool,
    /// Three banks of `2^n` direction bits, one per byte.
    direction: Vec<u8>,
    /// Three banks of `2^(n-1)` hysteresis bits, one per byte.
    hysteresis: Vec<u8>,
}

impl ShgskewKernel {
    fn new(n: u32, hist_bits: u32, update: UpdatePolicy) -> ShgskewKernel {
        ShgskewKernel {
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            partial: update == UpdatePolicy::Partial,
            // Boot weakly taken: direction 1, hysteresis 0.
            direction: vec![1; 3usize << n],
            hysteresis: vec![0; 3usize << (n - 1)],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let (size, half) = (1usize << n, 1usize << (n - 1));
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let partial = self.partial;
        let (direction, hysteresis) = (&mut self.direction[..], &mut self.hysteresis[..]);
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let addr = pc >> 2;
                let packed = if hist_bits >= 64 {
                    hist
                } else {
                    (addr << hist_bits) | hist
                };
                let raw = gskew_indices::<3, false, true>(addr, packed, n);
                let votes: [bool; 3] = std::array::from_fn(|b| direction[b * size + raw[b]] != 0);
                let overall = votes.iter().filter(|&&v| v).count() >= 2;
                result.conditional += 1;
                result.mispredicted += u64::from(overall != taken);
                let train_all = !partial || overall != taken;
                for b in 0..3 {
                    if train_all || votes[b] == taken {
                        let (d, h) = (b * size + raw[b], b * half + (raw[b] >> 1));
                        let next = TwoBit.step((u8::from(votes[b]) << 1) | hysteresis[h], taken);
                        direction[d] = next >> 1;
                        hysteresis[h] = next & 1;
                    }
                }
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// A monomorphized run loop for one supported predictor shape.
///
/// Build one with [`PredictorKernel::from_spec`]; `None` means the spec
/// has no fast path and must go through the `dyn` engine.
#[derive(Debug, Clone)]
pub enum PredictorKernel {
    /// Bimodal / gshare / gselect.
    OneBank(OneBankKernel),
    /// The gskew family (plain, enhanced, identical-indexing ablation).
    Gskew(GskewKernel),
    /// The McFarling bimodal + gshare combining predictor.
    McFarling(McFarlingKernel),
    /// The EV8-style 2bc-gskew hybrid.
    TwoBcGskew(TwoBcGskewKernel),
    /// The agree predictor.
    Agree(AgreeKernel),
    /// The bi-mode predictor.
    BiMode(BiModeKernel),
    /// The per-address two-level predictor.
    Pas(PasKernel),
    /// The skewed per-address predictor.
    Spas(SpasKernel),
    /// The shared-hysteresis skewed predictor.
    Shgskew(ShgskewKernel),
}

impl PredictorKernel {
    /// The kernel for `spec`, when one exists.
    ///
    /// Supported, with in-range parameters:
    ///
    /// - `bimodal`, `gshare`, `gselect` (`n` in 1..=30, `h` ≤ 64);
    /// - `gskew`/`egskew` (`n` in 2..=30, `h` ≤ 64, 3 or 5 banks,
    ///   partial or total update, `skew=off` included);
    /// - `mcfarling` (`n` in 1..=30, `h` ≤ 64; the meta table is 2-bit);
    /// - `2bcgskew` (`n` in 2..=30, `h` ≤ 64; always 2-bit);
    /// - `agree` (`n` and `bias` in 1..=30, `h` ≤ 64);
    /// - `bimode` (`n` and `choice` in 1..=30, `h` ≤ 64);
    /// - `pas` (`bht` and `n` in 1..=30, `l` in 1..=32);
    /// - `spas` (`bht` in 1..=30, `l` in 1..=32, `n` in 2..=30);
    /// - `shgskew` (`n` in 2..=30, `h` ≤ 64; always 2-bit).
    ///
    /// Every family with a `ctr` key accepts every counter width 1..=7.
    /// Anything else — the tagged families (`falru` and `ideal` run as an
    /// [`LruWalk`] instead), other families, out-of-range values —
    /// returns `None` so the caller falls back to [`PredictorSpec::build`]
    /// and the `dyn` engine (where invalid values produce their usual
    /// errors).
    pub fn from_spec(spec: &PredictorSpec) -> Option<PredictorKernel> {
        let one_bank = |func: IndexFunction, n: u32, h: u32, ctr: CounterKind| {
            ((1..=30).contains(&n) && h <= 64)
                .then(|| PredictorKernel::OneBank(OneBankKernel::new(func, n, h, ctr)))
        };
        match *spec {
            PredictorSpec::Bimodal { n, ctr } => one_bank(IndexFunction::Bimodal, n, 0, ctr),
            PredictorSpec::Gshare { n, h, ctr } => one_bank(IndexFunction::Gshare, n, h, ctr),
            PredictorSpec::Gselect { n, h, ctr } => one_bank(IndexFunction::Gselect, n, h, ctr),
            PredictorSpec::Gskew {
                n,
                h,
                banks,
                ctr,
                update,
                enhanced,
                skewing,
            } if (2..=30).contains(&n) && h <= 64 && (banks == 3 || banks == 5) => {
                Some(PredictorKernel::Gskew(GskewKernel::new(
                    n, h, banks, ctr, update, enhanced, skewing,
                )))
            }
            PredictorSpec::McFarling { n, h, ctr } if (1..=30).contains(&n) && h <= 64 => {
                Some(PredictorKernel::McFarling(McFarlingKernel::new(n, h, ctr)))
            }
            PredictorSpec::TwoBcGskew { n, h } if (2..=30).contains(&n) && h <= 64 => {
                Some(PredictorKernel::TwoBcGskew(TwoBcGskewKernel::new(n, h)))
            }
            PredictorSpec::Agree { n, h, bias, ctr }
                if (1..=30).contains(&n) && (1..=30).contains(&bias) && h <= 64 =>
            {
                Some(PredictorKernel::Agree(AgreeKernel::new(n, h, bias, ctr)))
            }
            PredictorSpec::BiMode { n, h, choice, ctr }
                if (1..=30).contains(&n) && (1..=30).contains(&choice) && h <= 64 =>
            {
                Some(PredictorKernel::BiMode(BiModeKernel::new(
                    n, h, choice, ctr,
                )))
            }
            PredictorSpec::Pas { bht, l, n, ctr }
                if (1..=30).contains(&bht) && (1..=32).contains(&l) && (1..=30).contains(&n) =>
            {
                Some(PredictorKernel::Pas(PasKernel::new(bht, l, n, ctr)))
            }
            PredictorSpec::Spas {
                bht,
                l,
                n,
                ctr,
                update,
            } if (1..=30).contains(&bht) && (1..=32).contains(&l) && (2..=30).contains(&n) => Some(
                PredictorKernel::Spas(SpasKernel::new(bht, l, n, ctr, update)),
            ),
            PredictorSpec::Shgskew { n, h, update } if (2..=30).contains(&n) && h <= 64 => {
                Some(PredictorKernel::Shgskew(ShgskewKernel::new(n, h, update)))
            }
            _ => None,
        }
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
        let start = Instant::now();
        let result = match self {
            PredictorKernel::OneBank(k) => k.run(cols),
            PredictorKernel::Gskew(k) => k.run(cols),
            PredictorKernel::McFarling(k) => k.run(cols),
            PredictorKernel::TwoBcGskew(k) => k.run(cols),
            PredictorKernel::Agree(k) => k.run(cols),
            PredictorKernel::BiMode(k) => k.run(cols),
            PredictorKernel::Pas(k) => k.run(cols),
            PredictorKernel::Spas(k) => k.run(cols),
            PredictorKernel::Shgskew(k) => k.run(cols),
        };
        timing::record_kernel(cols.len() as u64, start.elapsed());
        result
    }

    /// Drive the kernel over one whole trace with retirement-time
    /// training, bit-identical to [`engine::run_delayed`] on the
    /// equivalent predictor:
    ///
    /// - record `i` is predicted from the state left once the records
    ///   before `i - delay` have retired;
    /// - retiring a conditional record recomputes its indices under the
    ///   history at retire time and trains (gskew re-votes first, as its
    ///   `update` does), then shifts the outcome into the history;
    /// - retiring any other record shifts in a taken bit;
    /// - the records still in flight at the end retire before this
    ///   returns.
    ///
    /// Delay 0 is [`PredictorKernel::run`]. Returns `None` for families
    /// without a delayed loop: only the one-bank and gskew kernels have
    /// one. Time spent is credited as [`PredictorKernel::run`] credits it.
    pub fn run_delayed(&mut self, cols: &TraceColumns, delay: usize) -> Option<RunResult> {
        let start = Instant::now();
        let result = match self {
            PredictorKernel::OneBank(k) => k.dispatch::<true>(cols, delay, |_, _, _| {}),
            PredictorKernel::Gskew(k) => k.dispatch::<true>(cols, delay, |_, _, _| {}),
            _ => return None,
        };
        timing::record_kernel(cols.len() as u64, start.elapsed());
        Some(result)
    }

    /// [`PredictorKernel::run`], calling `observe(votes, predicted,
    /// taken)` for every conditional record before the tables train:
    /// `votes` holds each bank's direction (one entry for the one-bank
    /// kernels), `predicted` the overall prediction and `taken` the
    /// outcome. Returns `None`, without running, for families other than
    /// the one-bank and gskew kernels. Time spent is credited as
    /// [`PredictorKernel::run`] credits it.
    pub fn run_observed(
        &mut self,
        cols: &TraceColumns,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> Option<RunResult> {
        let start = Instant::now();
        let result = match self {
            PredictorKernel::OneBank(k) => k.dispatch::<false>(cols, 0, observe),
            PredictorKernel::Gskew(k) => k.dispatch::<false>(cols, 0, observe),
            _ => return None,
        };
        timing::record_kernel(cols.len() as u64, start.elapsed());
        Some(result)
    }
}

/// One row of an [`LruWalk`]: an N-entry fully-associative LRU table
/// tagged with `(address, history)` pairs (`falru`), or the unbounded
/// table (`ideal`, N = ∞).
#[derive(Debug, Clone, Copy)]
struct LruRow {
    /// Entries; `u64::MAX` stands for ∞.
    capacity: u64,
    /// The prediction on a miss: `falru`'s `miss` outcome, not-taken for
    /// `ideal`.
    miss_taken: bool,
    counter: Width,
}

impl LruRow {
    /// The row and its history length for a `falru` or `ideal` spec with
    /// in-range parameters (`cap` ≥ 1, `h` ≤ 64); `None` otherwise.
    fn from_spec(spec: &PredictorSpec) -> Option<(u32, LruRow)> {
        let (h, capacity, miss_taken, ctr) = match *spec {
            PredictorSpec::Falru { cap, h, ctr, miss } if cap > 0 => {
                (h, cap as u64, miss == MissPolicy::AlwaysTaken, ctr)
            }
            PredictorSpec::Ideal { h, ctr } => (h, u64::MAX, false, ctr),
            _ => return None,
        };
        let row = LruRow {
            capacity,
            miss_taken,
            counter: Width::of(ctr),
        };
        (h <= 64).then_some((h, row))
    }
}

/// Every `falru` and `ideal` row that shares one history length, in one
/// trace walk.
///
/// An N-entry LRU table holds a pair exactly when the pair's last-use
/// distance is below N (LRU stack inclusion), so one
/// [`LastUseDistance`] walk decides hit or miss for every capacity at
/// once — `bpred_aliasing::distance::CapacitySweep`'s identity, applied
/// to a predictor. Each `(pair, row)` keeps one counter: a hit predicts
/// from it and trains it; a miss predicts the row's miss outcome, is
/// flagged novel, and re-seeds the counter with
/// `SatCounter::seeded(kind, outcome)` — the entry the table would
/// allocate.
#[derive(Debug, Clone)]
pub struct LruWalk {
    hist_bits: u32,
    rows: Vec<LruRow>,
}

impl LruWalk {
    /// A walk over `rows` under `hist_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or `hist_bits` exceeds 64.
    fn new(hist_bits: u32, rows: Vec<LruRow>) -> LruWalk {
        assert!(!rows.is_empty(), "a walk needs at least one row");
        assert!(hist_bits <= 64, "history_bits {hist_bits} above 64");
        LruWalk { hist_bits, rows }
    }

    /// Walk `cols` once; one result per row, bit-identical to
    /// [`engine::run_with`] on the row's predictor under `policy`.
    /// Credits `cols.len()` applications per row to the kernel path of
    /// [`crate::timing`].
    pub fn run(&self, cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
        let start = Instant::now();
        let rows = &self.rows[..];
        let width = rows.len();
        let charge_novel = policy == NovelPolicy::Count;
        let mut results = vec![RunResult::default(); width];
        // The payload is the pair's dense id: its counters sit at
        // `cells[id * width..][..width]`.
        let mut lud = LastUseDistance::<u32>::with_payload();
        let mut cells: Vec<u8> = Vec::new();
        let hmask = hist_mask(self.hist_bits);
        let mut hist = 0u64;
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let fresh = (cells.len() / width) as u32;
                let (distance, id) = lud.observe_with((pc >> 2, hist), || fresh);
                if distance.is_none() {
                    cells.resize(cells.len() + width, 0);
                }
                let at = id as usize * width;
                let pair = cells[at..at + width].iter_mut().zip(&mut results);
                for ((cell, result), row) in pair.zip(rows) {
                    let c = row.counter;
                    result.conditional += 1;
                    if distance.is_some_and(|d| d < row.capacity) {
                        result.mispredicted += u64::from(c.taken(*cell) != taken);
                        *cell = c.step(*cell, taken);
                    } else {
                        result.novel += 1;
                        result.mispredicted += u64::from(charge_novel && row.miss_taken != taken);
                        // SatCounter::seeded: weakly toward the outcome.
                        *cell = c.neutral() + u8::from(taken);
                    }
                }
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        timing::record_kernel(cols.len() as u64 * width as u64, start.elapsed());
        results
    }
}

/// One unit of fast-path work over a trace.
#[derive(Debug, Clone)]
pub enum FastPath {
    /// A table kernel, serving one row.
    Table(PredictorKernel),
    /// A shared walk, serving every `falru`/`ideal` row of one history
    /// length.
    Walk(LruWalk),
}

impl FastPath {
    /// Run the unit over `cols`: one result per row it serves, in the
    /// order [`plan`] listed them. Table kernels ignore `policy`.
    pub fn run(&mut self, cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
        match self {
            FastPath::Table(kernel) => vec![kernel.run(cols)],
            FastPath::Walk(walk) => walk.run(cols, policy),
        }
    }
}

/// Split `specs` into fast-path units and dyn rows: each unit comes with
/// the spec indices it serves, walks first (they are the longest units);
/// the indices left over have no fast path.
pub fn plan(specs: &[PredictorSpec]) -> (Vec<(Vec<usize>, FastPath)>, Vec<usize>) {
    let mut walks: Vec<(u32, Vec<usize>, Vec<LruRow>)> = Vec::new();
    let mut tables = Vec::new();
    let mut dyn_rows = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if let Some(kernel) = PredictorKernel::from_spec(spec) {
            tables.push((vec![i], FastPath::Table(kernel)));
        } else if let Some((h, row)) = LruRow::from_spec(spec) {
            match walks.iter_mut().find(|(wh, _, _)| *wh == h) {
                Some((_, indices, rows)) => {
                    indices.push(i);
                    rows.push(row);
                }
                None => walks.push((h, vec![i], vec![row])),
            }
        } else {
            dyn_rows.push(i);
        }
    }
    let mut units: Vec<(Vec<usize>, FastPath)> = walks
        .into_iter()
        .map(|(h, indices, rows)| (indices, FastPath::Walk(LruWalk::new(h, rows))))
        .collect();
    units.extend(tables);
    (units, dyn_rows)
}

/// Run every spec over one trace, fast paths first: the [`plan`]'s units
/// run split across up to `threads` workers sharing `columns`, the rest
/// ride a single batched [`engine::run_many`] pass over the same columns.
/// Results keep the order of `specs` and are bit-identical to a pure
/// `run_many` over the same list under the same `policy`.
///
/// # Errors
///
/// Returns [`ConfigError`] for malformed specs and (via
/// [`PredictorSpec::build`] on the fallback rows) out-of-range values —
/// before any simulation runs.
pub fn run_specs(
    specs: &[String],
    columns: &TraceColumns,
    policy: NovelPolicy,
    threads: usize,
) -> Result<Vec<RunResult>, ConfigError> {
    let parsed = specs
        .iter()
        .map(|s| PredictorSpec::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let (units, dyn_rows) = plan(&parsed);
    // Build the fallback predictors up front so configuration errors
    // surface before any pass starts.
    let mut fallback = dyn_rows
        .iter()
        .map(|&i| parsed[i].build())
        .collect::<Result<Vec<_>, _>>()?;

    let mut results = vec![RunResult::default(); specs.len()];
    let done = parallel_map(units, threads, |(rows, mut unit)| {
        (rows, unit.run(columns, policy))
    });
    for (rows, unit_results) in done {
        for (i, result) in rows.into_iter().zip(unit_results) {
            results[i] = result;
        }
    }
    if !fallback.is_empty() {
        for (&i, result) in dyn_rows
            .iter()
            .zip(engine::run_many(&mut fallback, columns, policy))
        {
            results[i] = result;
        }
    }
    Ok(results)
}

/// Batched three-C classification of a whole `(size × index-fn ×
/// history)` grid in one logical pass over `columns`, fanned out across
/// up to `threads` workers: one [`batch::dm_pass`] unit per cell plus one
/// shared [`batch::fa_pass`] unit per distinct history length (the
/// fully-associative reference depends on history alone, and one
/// last-use-distance walk serves every capacity at once). Results keep
/// the order of `cells` and are bit-identical to running
/// `ThreeCClassifier` per cell over the same records.
///
/// Time spent in the units is credited to the kernel path of
/// [`crate::timing`].
pub fn run_three_c(
    cells: &[ThreeCCell],
    columns: &TraceColumns,
    threads: usize,
) -> Vec<ThreeCCounts> {
    let groups = batch::fa_groups(cells);
    let (dm, fa) = run_three_c_units(cells, &groups, columns, threads);
    let dm: Vec<DmCounts> = dm.into_iter().map(|(c, _)| c).collect();
    let fa: Vec<FaCounts> = fa.into_iter().map(|(c, _)| c).collect();
    batch::assemble(cells, &groups, &dm, &fa)
}

/// A work unit's result paired with the unit's own elapsed
/// milliseconds (for per-cell accounting in the results store).
pub type Timed<T> = (T, f64);

/// The work units behind [`run_three_c`], exposed separately so the
/// resume layer can run *only* the units whose results are not already
/// stored: direct-mapped units for `dm_cells` and one fully-associative
/// unit per `(history, capacities)` group. Each result carries the unit's
/// own elapsed milliseconds (for per-cell accounting in the results
/// store). All units share one `parallel_map` fan-out, so a mixed batch
/// keeps every worker busy.
pub fn run_three_c_units(
    dm_cells: &[ThreeCCell],
    fa_groups: &[(u32, Vec<u64>)],
    columns: &TraceColumns,
    threads: usize,
) -> (Vec<Timed<DmCounts>>, Vec<Timed<FaCounts>>) {
    enum Unit {
        Dm(usize),
        Fa(usize),
    }
    let units: Vec<Unit> = (0..dm_cells.len())
        .map(Unit::Dm)
        .chain((0..fa_groups.len()).map(Unit::Fa))
        .collect();
    enum Done {
        Dm(usize, DmCounts, f64),
        Fa(usize, FaCounts, f64),
    }
    let results = parallel_map(units, threads, |unit| {
        let start = Instant::now();
        let done = match unit {
            Unit::Dm(i) => {
                let cell = &dm_cells[i];
                let counts =
                    batch::dm_pass(columns, cell.entries_log2, cell.history_bits, cell.func);
                Done::Dm(i, counts, ms_since(start))
            }
            Unit::Fa(g) => {
                let (history_bits, caps) = &fa_groups[g];
                let counts = batch::fa_pass(columns, *history_bits, caps);
                Done::Fa(g, counts, ms_since(start))
            }
        };
        timing::record_kernel(columns.len() as u64, start.elapsed());
        done
    });
    let mut dm: Vec<(DmCounts, f64)> = vec![(DmCounts::default(), 0.0); dm_cells.len()];
    let mut fa: Vec<(FaCounts, f64)> = vec![(FaCounts::default(), 0.0); fa_groups.len()];
    for done in results {
        match done {
            Done::Dm(i, counts, ms) => dm[i] = (counts, ms),
            Done::Fa(g, counts, ms) => fa[g] = (counts, ms),
        }
    }
    (dm, fa)
}

#[inline]
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::spec::parse_spec;
    use bpred_trace::cache;
    use bpred_trace::workload::IbsBenchmark;

    fn equivalent(spec: &str, bench: IbsBenchmark, len: u64) {
        let cols = cache::columns(bench, len);
        let mut kernel =
            PredictorKernel::from_spec(&PredictorSpec::parse(spec).unwrap()).expect("supported");
        let fast = kernel.run(&cols);
        let mut dyn_p = parse_spec(spec).unwrap();
        let slow = engine::run_with(&mut dyn_p, cols.records(), NovelPolicy::Count);
        assert_eq!(fast, slow, "{spec} diverges from the dyn path");
    }

    #[test]
    fn kernels_match_the_dyn_engine() {
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
    fn delayed_kernels_match_run_delayed() {
        let cols = cache::columns(IbsBenchmark::Groff, 6_000);
        for spec in ["bimodal:n=14", "gshare:n=14,h=8", "gskew:n=12,h=8"] {
            for delay in [0, 1, 3, 32, 10_000] {
                let parsed = PredictorSpec::parse(spec).unwrap();
                let mut kernel = PredictorKernel::from_spec(&parsed).unwrap();
                let fast = kernel.run_delayed(&cols, delay).unwrap();
                let mut dyn_p = parse_spec(spec).unwrap();
                let slow =
                    engine::run_delayed(&mut dyn_p, cols.records(), NovelPolicy::Count, delay);
                assert_eq!(fast, slow, "{spec} at delay {delay}");
            }
        }
        // Families without a delayed or observed loop say so.
        let mut agree =
            PredictorKernel::from_spec(&PredictorSpec::parse("agree:n=9,h=6").unwrap()).unwrap();
        assert!(agree.run_delayed(&cols, 2).is_none());
        assert!(agree.run_observed(&cols, |_, _, _| {}).is_none());
    }

    #[test]
    fn unsupported_specs_have_no_kernel() {
        for spec in [
            "ideal:h=4", // runs as an LruWalk row instead
            "falru:cap=64,h=4",
            "setassoc:n=6,ways=2,h=4",
            "gshare:n=0",  // out of range: dyn path reports the error
            "gshare:n=31", // out of range: dyn path reports the error
            "gskew:n=1,h=4",
            "mcfarling:n=0,h=4",
            "2bcgskew:n=1,h=8",
            "agree:n=10,h=4,bias=31",
            "bimode:n=10,h=65",
            "pas:bht=10,l=33,n=10",
            "spas:bht=10,l=8,n=1",
            "shgskew:n=1,h=4",
            "always-taken",
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            assert!(
                PredictorKernel::from_spec(&parsed).is_none(),
                "{spec} should not have a fast path"
            );
        }
    }

    #[test]
    fn run_specs_mixes_kernel_and_dyn_rows_in_order() {
        let bench = IbsBenchmark::Verilog;
        let len = 5_000;
        let cols = cache::columns(bench, len);
        let specs: Vec<String> = [
            "gshare:n=9,h=4",          // kernel
            "setassoc:n=6,ways=2,h=4", // dyn fallback
            "falru:cap=32,h=4",        // walk
            "gskew:n=8,h=4",           // kernel
            "ideal:h=4",               // same walk
            "always-taken",            // dyn fallback
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let routed = run_specs(&specs, &cols, NovelPolicy::Count, 2).unwrap();
        let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
        let reference = engine::run_many(&mut predictors, &cols, NovelPolicy::Count);
        assert_eq!(routed, reference);
    }

    #[test]
    fn run_specs_surfaces_config_errors() {
        let cols = cache::columns(IbsBenchmark::Verilog, 100);
        let bad = vec!["gshare:n=0".to_string()];
        assert!(run_specs(&bad, &cols, NovelPolicy::Count, 1).is_err());
        let unknown = vec!["tage:n=12".to_string()];
        assert!(run_specs(&unknown, &cols, NovelPolicy::Count, 1).is_err());
    }

    #[test]
    fn run_three_c_matches_the_classifier_under_any_thread_count() {
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
        let sequential = run_three_c(&cells, &cols, 1);
        let parallel = run_three_c(&cells, &cols, 4);
        assert_eq!(sequential, parallel, "thread count must not matter");
        for (cell, counts) in cells.iter().zip(&sequential) {
            let reference = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(cols.records());
            assert_eq!(*counts, reference, "{cell:?}");
        }
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
    fn lru_walk_matches_the_dyn_engine_under_both_policies() {
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
        let parsed: Vec<_> = specs
            .iter()
            .map(|s| PredictorSpec::parse(s).unwrap())
            .collect();
        let (units, dyn_rows) = plan(&parsed);
        assert!(dyn_rows.is_empty());
        assert_eq!(units.len(), 2, "one walk per history length");
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 2).unwrap();
            let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
            let reference = engine::run_many(&mut predictors, &cols, policy);
            assert_eq!(routed, reference, "{policy:?}");
            assert!(routed.iter().all(|r| r.novel > 0));
        }
    }
}
