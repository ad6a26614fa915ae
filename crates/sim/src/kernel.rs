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
//! | family | tables | counters |
//! |---|---|---|
//! | `bimodal`, `gshare`, `gselect` | one table | 1..=7 bits |
//! | `gskew`, `egskew` (3 or 5 banks, partial/total, `skew=off`) | skewed banks | 1..=7 bits |
//! | `mcfarling` | bimodal + gshare + 2-bit meta | 1..=7 bits |
//! | `2bcgskew` | BIM + G0 + G1 + meta | 2 bits |
//! | `agree` | gshare counters + first-outcome bias table | 1..=7 bits |
//! | `bimode` | choice table + two gshare banks | 1..=7 bits |
//! | `pas` | local histories + gselect pattern table | 1..=7 bits |
//! | `spas` | local histories + 3 skewed banks | 1..=7 bits |
//! | `shgskew` | 3 direction banks, shared hysteresis | 2 bits |
//! | `falru`, `ideal` (tagged tables), one walk per history length | [`LruWalk`] | 1..=7 bits |
//!
//! Every table family is one [`PredictorKernel`] driven by one loop,
//! `drive`, over a two-method per-family transition: `look` computes a
//! record's indices under a given history and reads the cells, `train`
//! writes them back with the outcome. The loop alone owns the global
//! history, the accounting, retirement under delay and the observer
//! hook. Each family's transition is generic over its counter automaton:
//! the 2-bit counter has its bounds as constants, every other width reads
//! them from its [`CounterKind`] (boot at `weakly_taken`, predict taken
//! above `neutral`, saturate at `max_value`). The skewed banks also take
//! their bank count and indexing variant as const parameters, compute the
//! shared `H`/`H⁻¹` images of the two `n`-bit vector halves once per
//! record, read each bank's counter once and write every bank back
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
//! The same loop serves the custom experiment loops that used to drive
//! `dyn` predictors, for every table family. It is monomorphized by a
//! `DELAYED` const flag and an observer closure:
//!
//! - [`PredictorKernel::run_delayed`] is retirement-time training
//!   (`ext-delay`), bit-identical to [`engine::run_delayed`]: record `i`
//!   predicts from the state the records before `i - delay` left, and a
//!   retiring record looks its cells up again under the retire-time
//!   history before it trains, as every dyn `update` recomputes its
//!   lookup from the current state.
//! - [`PredictorKernel::run_observed`] calls a hook with every
//!   conditional record's bank votes, prediction and outcome before the
//!   tables train — `ext-duel`'s per-record "wrong" bits
//!   ([`crate::duel::kernel_duel`]) and `ext-confidence`'s
//!   unanimous/split tally.
//!
//! [`PredictorKernel::run`] is the `DELAYED = false` copy with a no-op
//! hook, which compiles to the plain loop: `train` reuses the cells
//! `look` read, so each cell is read once.
//!
//! Simulation work runs as [`Job`]s: a table kernel, a shared
//! [`LruWalk`], one batched [`engine::run_many`] pass for the specs
//! without a fast path, a direct-mapped three-C pass or a shared
//! fully-associative pass. [`plan`] splits a spec list into jobs, and
//! [`run_jobs`] is the one fan-out: it runs a list of `(trace, job)`
//! pairs, across any number of workloads, on one pool of workers, and
//! times each job on the worker that runs it. The cell pipeline
//! ([`crate::resume`]) plans every cell an experiment misses into one
//! such list; [`run_specs`] and [`run_three_c_units`] are its
//! one-trace forms for the CLI and the benchmarks.

use crate::engine::{self, NovelPolicy, RunResult};
use crate::runner::parallel_map;
use crate::timing;
use bpred_aliasing::batch::{self, DmCounts, FaCounts, ThreeCCell};
use bpred_aliasing::distance::LastUseDistance;
use bpred_core::assoc::MissPolicy;
use bpred_core::counter::CounterKind;
use bpred_core::error::ConfigError;
use bpred_core::gskew::UpdatePolicy;
use bpred_core::index::IndexFunction;
use bpred_core::skew;
use bpred_core::spec::PredictorSpec;
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;
use std::ops::Deref;
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

/// A history register as a lookup sees it: the youngest `bits` outcomes,
/// youngest in bit 0, already masked to `bits`.
#[derive(Debug, Clone, Copy)]
struct History {
    bits: u32,
    value: u64,
}

impl History {
    /// The information vector of the branch at `pc`.
    #[inline(always)]
    fn vector(self, pc: u64) -> InfoVector {
        InfoVector::new(pc, self.value, self.bits)
    }

    /// [`InfoVector::packed`] for the word address `addr`, without
    /// re-masking the value.
    #[inline(always)]
    fn packed(self, addr: u64) -> u64 {
        if self.bits >= 64 {
            self.value
        } else {
            (addr << self.bits) | self.value
        }
    }
}

/// What [`Table::look`] read for one record: the cells `train` writes
/// back (with their indices), the votes an observer sees, and the
/// prediction.
struct Look<Cells, Votes> {
    cells: Cells,
    votes: Votes,
    predicted: bool,
}

/// One table family's per-record transition, for [`drive`]. The
/// implementing type fixes the counter automaton and any shape
/// parameters, so every `drive` copy is a monomorphized loop.
trait Table {
    /// The indices and cell values `look` read.
    type Cells;
    /// Each bank's direction (the components' for a hybrid, the
    /// prediction alone for a single-counter lookup).
    type Votes: AsRef<[bool]>;
    /// Whether `look` reads the global history. The loop keeps no global
    /// register for a table that does not (`pas`, `spas`).
    const GLOBAL_HISTORY: bool = true;

    /// The indices of the branch at `pc` under `hist`, and the cells
    /// there. Writes nothing.
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, Self::Votes>;

    /// Write the cells `look` read back, trained with the outcome.
    fn train(&mut self, look: Look<Self::Cells, Self::Votes>, taken: bool);
}

/// The one per-record loop of every table family. It owns the global
/// history `hist`, the accounting, retirement and the observer hook.
///
/// `DELAYED = false` trains each conditional record right after
/// predicting it, reusing the predict-time [`Look`]. `DELAYED = true`
/// retires record `i - delay` after predicting record `i`: the retiring
/// record is looked up again under the retire-time history, trained, and
/// shifted into the history; the records still in flight retire at the
/// end (see [`PredictorKernel::run_delayed`]). `observe` sees every
/// conditional record's votes, prediction and outcome before any table
/// trains on it.
///
/// Each copy stays its own function, so the register allocation of one
/// family's loop does not depend on the other families' loops around it.
#[inline(never)]
fn drive<T: Table, const DELAYED: bool>(
    table: &mut T,
    hist: &mut History,
    cols: &TraceColumns,
    delay: usize,
    mut observe: impl FnMut(&[bool], bool, bool),
) -> RunResult {
    let mut result = RunResult::default();
    let hmask = hist_mask(hist.bits);
    let shift = |h: &mut History, bit: bool| {
        if T::GLOBAL_HISTORY {
            h.value = push_history(h.value, bit, hmask);
        }
    };
    let mut h = *hist;
    let pcs = cols.pcs();
    let retire = |j: usize, table: &mut T, h: &mut History| {
        let (conditional, taken) = cols.cond_taken(j);
        if conditional {
            let look = table.look(pcs[j], *h);
            table.train(look, taken);
        }
        shift(h, !conditional || taken);
    };
    for (i, &pc) in pcs.iter().enumerate() {
        if cols.is_conditional(i) {
            let taken = cols.taken(i);
            let look = table.look(pc, h);
            observe(look.votes.as_ref(), look.predicted, taken);
            result.conditional += 1;
            result.mispredicted += u64::from(look.predicted != taken);
            if !DELAYED {
                table.train(look, taken);
                shift(&mut h, taken);
            }
        } else if !DELAYED {
            shift(&mut h, true);
        }
        if DELAYED && i >= delay {
            retire(i - delay, table, &mut h);
        }
    }
    if DELAYED {
        // Drain the records still in flight.
        for j in pcs.len().saturating_sub(delay)..pcs.len() {
            retire(j, table, &mut h);
        }
    }
    *hist = h;
    result
}

/// Bimodal, gshare or gselect: one table of counters at `index`.
struct OneBank<'a, C, I> {
    c: C,
    n: u32,
    index: I,
    table: &'a mut [u8],
}

impl<C: Counter, I: Fn(&InfoVector, u32) -> u64> Table for OneBank<'_, C, I> {
    type Cells = (usize, u8);
    type Votes = [bool; 1];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<(usize, u8), [bool; 1]> {
        // The extra mask is value-neutral (the index is already `n` bits)
        // but lets the compiler drop the bounds check.
        let idx = (self.index)(&hist.vector(pc), self.n) as usize & (self.table.len() - 1);
        let cell = self.table[idx];
        let predicted = self.c.taken(cell);
        Look {
            cells: (idx, cell),
            votes: [predicted],
            predicted,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<(usize, u8), [bool; 1]>, taken: bool) {
        let (idx, cell) = look.cells;
        self.table[idx] = self.c.step(cell, taken);
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

/// The gskew family, and `spas`'s pattern banks: `B` banks of `2^n`
/// counters in one array, indexed by [`gskew_indices`], majority vote.
/// Partial update spares dissenting banks only when the vote was correct
/// (section 4.1).
struct Skewed<'a, C, const B: usize, const ENHANCED: bool, const SKEW: bool> {
    c: C,
    n: u32,
    partial: bool,
    tables: &'a mut [u8],
}

impl<C: Counter, const B: usize, const ENHANCED: bool, const SKEW: bool> Table
    for Skewed<'_, C, B, ENHANCED, SKEW>
{
    type Cells = ([usize; B], [u8; B]);
    type Votes = [bool; B];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, [bool; B]> {
        let addr = pc >> 2;
        let raw = gskew_indices::<B, ENHANCED, SKEW>(addr, hist.packed(addr), self.n);
        let at: [usize; B] = std::array::from_fn(|b| (b << self.n) + raw[b]);
        let cells = at.map(|i| self.tables[i]);
        let votes = cells.map(|cell| self.c.taken(cell));
        let predicted = 2 * votes.iter().filter(|&&v| v).count() > B;
        Look {
            cells: (at, cells),
            votes,
            predicted,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, [bool; B]>, taken: bool) {
        let (at, cells) = look.cells;
        let train_all = !self.partial || look.predicted != taken;
        for b in 0..B {
            let cell = cells[b];
            let train = train_all || self.c.taken(cell) == taken;
            self.tables[at[b]] = if train {
                self.c.step(cell, taken)
            } else {
                cell
            };
        }
    }
}

/// `pas` and `spas`: `2^bht` local histories of `bits` bits, indexed by
/// address, in front of a pattern `table` looked up under the branch's
/// own history instead of the global one. Unconditional branches leave
/// the local histories alone.
struct Local<'a, T> {
    slots: &'a mut [u64],
    bits: u32,
    table: T,
}

impl<T: Table> Table for Local<'_, T> {
    type Cells = (usize, u64, T::Cells);
    type Votes = T::Votes;
    const GLOBAL_HISTORY: bool = false;

    #[inline(always)]
    fn look(&self, pc: u64, _global: History) -> Look<Self::Cells, T::Votes> {
        let slot = (pc >> 2) as usize & (self.slots.len() - 1);
        let local = self.slots[slot];
        let look = self.table.look(
            pc,
            History {
                bits: self.bits,
                value: local,
            },
        );
        Look {
            cells: (slot, local, look.cells),
            votes: look.votes,
            predicted: look.predicted,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, T::Votes>, taken: bool) {
        let (slot, local, cells) = look.cells;
        let inner = Look {
            cells,
            votes: look.votes,
            predicted: look.predicted,
        };
        self.table.train(inner, taken);
        self.slots[slot] = push_history(local, taken, hist_mask(self.bits));
    }
}

/// `mcfarling`: a bimodal and a gshare table of `2^n` counters each plus
/// a `2^n`-entry 2-bit meta table indexed by address. A high meta
/// counter selects gshare; the meta counter trains only when the two
/// components disagree, toward the one that was right. Its votes are
/// the two components'.
struct McFarling<'a, C> {
    c: C,
    n: u32,
    bimodal: &'a mut [u8],
    gshare: &'a mut [u8],
    meta: &'a mut [u8],
}

impl<C: Counter> Table for McFarling<'_, C> {
    /// Bimodal/meta and gshare indices; bimodal, gshare and meta cells.
    type Cells = (usize, usize, [u8; 3]);
    type Votes = [bool; 2];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, [bool; 2]> {
        let (n, tmask) = (self.n, (1usize << self.n) - 1);
        let v = hist.vector(pc);
        let ia = IndexFunction::Bimodal.index(&v, n) as usize & tmask;
        let ig = IndexFunction::Gshare.index(&v, n) as usize & tmask;
        let (b, g, m) = (self.bimodal[ia], self.gshare[ig], self.meta[ia]);
        let (p0, p1) = (self.c.taken(b), self.c.taken(g));
        Look {
            cells: (ia, ig, [b, g, m]),
            votes: [p0, p1],
            predicted: if TwoBit.taken(m) { p1 } else { p0 },
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, [bool; 2]>, taken: bool) {
        let (ia, ig, [b, g, m]) = look.cells;
        let [p0, p1] = look.votes;
        self.meta[ia] = if p0 != p1 {
            TwoBit.step(m, p1 == taken)
        } else {
            m
        };
        self.bimodal[ia] = self.c.step(b, taken);
        self.gshare[ig] = self.c.step(g, taken);
    }
}

/// `2bcgskew`: four `2^n`-entry banks of 2-bit counters — BIM and meta
/// indexed by address, G0 by `f1` over `h/2` history bits, G1 by `f2`
/// over all `h` bits. Meta selects between BIM and the 3-way majority
/// and trains when they disagree; the three predicting banks train with
/// partial update. Its votes are BIM's, G0's and G1's.
struct TwoBcGskew<'a> {
    n: u32,
    bim: &'a mut [u8],
    g0: &'a mut [u8],
    g1: &'a mut [u8],
    meta: &'a mut [u8],
}

impl Table for TwoBcGskew<'_> {
    /// BIM/meta, G0 and G1 indices; their cells; the meta cell.
    type Cells = ([usize; 3], [u8; 3], u8);
    type Votes = [bool; 3];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, [bool; 3]> {
        let n = self.n;
        let ia = ((pc >> 2) as usize) & ((1usize << n) - 1);
        let (s1, s2) = halves(InfoVector::new(pc, hist.value, hist.bits / 2).packed(), n);
        let i0 = (skew::h(s1, n) ^ skew::h_inv(s2, n) ^ s1) as usize;
        let (l1, l2) = halves(hist.vector(pc).packed(), n);
        let i1 = (skew::h_inv(l1, n) ^ skew::h(l2, n) ^ l2) as usize;
        let cells = [self.bim[ia], self.g0[i0], self.g1[i1]];
        let m = self.meta[ia];
        let votes = cells.map(|cell| TwoBit.taken(cell));
        let majority = votes.iter().filter(|&&v| v).count() >= 2;
        Look {
            cells: ([ia, i0, i1], cells, m),
            votes,
            predicted: if TwoBit.taken(m) { majority } else { votes[0] },
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, [bool; 3]>, taken: bool) {
        let ([ia, i0, i1], cells, m) = look.cells;
        let votes = look.votes;
        let majority = votes.iter().filter(|&&v| v).count() >= 2;
        self.meta[ia] = if majority != votes[0] {
            TwoBit.step(m, majority == taken)
        } else {
            m
        };
        // Partial update: on a correct prediction only the agreeing
        // banks are strengthened.
        let train_all = look.predicted != taken;
        let trained = |b: usize| {
            if train_all || votes[b] == taken {
                TwoBit.step(cells[b], taken)
            } else {
                cells[b]
            }
        };
        self.bim[ia] = trained(0);
        self.g0[i0] = trained(1);
        self.g1[i1] = trained(2);
    }
}

/// `agree`: `2^n` gshare-indexed agreement counters over a
/// `2^bias`-entry address-indexed bias table. A bias entry is set to the
/// first outcome that reaches it and reads as taken while unset; a
/// counter predicts "agrees with the bias" and trains toward whether the
/// outcome did.
struct Agree<'a, C> {
    c: C,
    n: u32,
    counters: &'a mut [u8],
    /// [`BIAS_UNSET`], [`BIAS_NOT_TAKEN`] or [`BIAS_TAKEN`] per entry.
    bias: &'a mut [u8],
}

const BIAS_UNSET: u8 = 0;
const BIAS_NOT_TAKEN: u8 = 1;
const BIAS_TAKEN: u8 = 2;

impl<C: Counter> Table for Agree<'_, C> {
    /// Counter index and cell, bias index and entry.
    type Cells = (usize, u8, usize, u8);
    type Votes = [bool; 1];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, [bool; 1]> {
        let idx = IndexFunction::Gshare.index(&hist.vector(pc), self.n) as usize
            & ((1usize << self.n) - 1);
        let bi = (pc >> 2) as usize & (self.bias.len() - 1);
        let (cell, b) = (self.counters[idx], self.bias[bi]);
        // Agreeing with the bias predicts the bias direction.
        let predicted = self.c.taken(cell) == (b != BIAS_NOT_TAKEN);
        Look {
            cells: (idx, cell, bi, b),
            votes: [predicted],
            predicted,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, [bool; 1]>, taken: bool) {
        let (idx, cell, bi, b) = look.cells;
        let biased_taken = if b == BIAS_UNSET {
            self.bias[bi] = if taken { BIAS_TAKEN } else { BIAS_NOT_TAKEN };
            taken
        } else {
            b == BIAS_TAKEN
        };
        self.counters[idx] = self.c.step(cell, taken == biased_taken);
    }
}

/// `bimode`: a `2^choice`-entry address-indexed choice table steering
/// between a not-taken and a taken bank of `2^n` gshare-indexed
/// counters. Only the chosen bank trains; the choice counter trains with
/// the outcome unless the chosen bank overrode it successfully.
struct BiMode<'a, C> {
    c: C,
    n: u32,
    choice: &'a mut [u8],
    /// The not-taken bank, then the taken bank, `2^n` counters each.
    banks: &'a mut [u8],
}

impl<C: Counter> Table for BiMode<'_, C> {
    /// Choice index and cell, bank index and cell.
    type Cells = (usize, u8, usize, u8);
    type Votes = [bool; 1];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, [bool; 1]> {
        let n = self.n;
        let ci = (pc >> 2) as usize & (self.choice.len() - 1);
        let ch = self.choice[ci];
        let at = (usize::from(self.c.taken(ch)) << n)
            | (IndexFunction::Gshare.index(&hist.vector(pc), n) as usize & ((1usize << n) - 1));
        let cell = self.banks[at];
        let predicted = self.c.taken(cell);
        Look {
            cells: (ci, ch, at, cell),
            votes: [predicted],
            predicted,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<Self::Cells, [bool; 1]>, taken: bool) {
        let (ci, ch, at, cell) = look.cells;
        self.banks[at] = self.c.step(cell, taken);
        let overridden = look.predicted == taken && self.c.taken(ch) != taken;
        if !overridden {
            self.choice[ci] = self.c.step(ch, taken);
        }
    }
}

/// `shgskew`: three `2^n`-entry banks of direction bits indexed by
/// `f0..f2`, each with a `2^(n-1)`-entry hysteresis bank whose bit
/// `idx >> 1` is shared by entries `idx` and `idx ^ 1`. A (direction,
/// hysteresis) pair steps as one 2-bit counter; majority vote, partial
/// or total update.
struct Shgskew<'a> {
    n: u32,
    partial: bool,
    /// Three banks of `2^n` direction bits, one per byte.
    direction: &'a mut [u8],
    /// Three banks of `2^(n-1)` hysteresis bits, one per byte.
    hysteresis: &'a mut [u8],
}

impl Table for Shgskew<'_> {
    /// Each bank's raw index.
    type Cells = [usize; 3];
    type Votes = [bool; 3];

    #[inline(always)]
    fn look(&self, pc: u64, hist: History) -> Look<[usize; 3], [bool; 3]> {
        let addr = pc >> 2;
        let raw = gskew_indices::<3, false, true>(addr, hist.packed(addr), self.n);
        let votes: [bool; 3] = std::array::from_fn(|b| self.direction[(b << self.n) + raw[b]] != 0);
        Look {
            cells: raw,
            votes,
            predicted: votes.iter().filter(|&&v| v).count() >= 2,
        }
    }

    #[inline(always)]
    fn train(&mut self, look: Look<[usize; 3], [bool; 3]>, taken: bool) {
        let (raw, votes, n) = (look.cells, look.votes, self.n);
        let train_all = !self.partial || look.predicted != taken;
        for b in 0..3 {
            if train_all || votes[b] == taken {
                let (d, h) = ((b << n) + raw[b], (b << (n - 1)) + (raw[b] >> 1));
                let next = TwoBit.step((u8::from(votes[b]) << 1) | self.hysteresis[h], taken);
                self.direction[d] = next >> 1;
                self.hysteresis[h] = next & 1;
            }
        }
    }
}

/// A kernel's shape: the global history length, the tables at boot as
/// `(entries, boot value)` runs, and the number of local histories.
type Layout = (u32, Vec<(usize, u8)>, usize);

/// A monomorphized run loop for one supported predictor shape.
///
/// Build one with [`PredictorKernel::from_spec`]; `None` means the spec
/// has no fast path and must go through the `dyn` engine.
#[derive(Debug, Clone)]
pub struct PredictorKernel {
    /// The family and its shape, checked by [`PredictorKernel::from_spec`].
    spec: PredictorSpec,
    /// The global history register; `pas` and `spas` keep it at 0 bits.
    hist: History,
    /// Every table of the family, in one array, in the order `dispatch`
    /// splits it.
    cells: Vec<u8>,
    /// `pas`'s and `spas`'s local histories.
    locals: Vec<u64>,
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
        let (h, segments, locals) = Self::layout(spec)?;
        let mut cells = Vec::with_capacity(segments.iter().map(|&(n, _)| n).sum());
        for (entries, boot) in segments {
            cells.resize(cells.len() + entries, boot);
        }
        Some(PredictorKernel {
            spec: spec.clone(),
            hist: History { bits: h, value: 0 },
            cells,
            locals: vec![0; locals],
        })
    }

    /// Whether [`PredictorKernel::from_spec`] has a kernel for `spec`,
    /// without allocating its tables.
    fn supports(spec: &PredictorSpec) -> bool {
        Self::layout(spec).is_some()
    }

    /// The [`Layout`] of a supported spec.
    fn layout(spec: &PredictorSpec) -> Option<Layout> {
        use PredictorSpec as S;
        let table = |lo: u32, n: u32| (lo..=30).contains(&n);
        let local = |bht: u32, l: u32| table(1, bht) && (1..=32).contains(&l);
        let weak = |entries: usize, kind: CounterKind| (entries, kind.weakly_taken());
        let (h, segments, locals) = match *spec {
            S::Bimodal { n, ctr } if table(1, n) => (0, vec![weak(1 << n, ctr)], 0),
            S::Gshare { n, h, ctr } | S::Gselect { n, h, ctr } if table(1, n) => {
                (h, vec![weak(1 << n, ctr)], 0)
            }
            S::Gskew {
                n, h, banks, ctr, ..
            } if table(2, n) && (banks == 3 || banks == 5) => (h, vec![weak(banks << n, ctr)], 0),
            // Bimodal, then gshare, then the 2-bit meta table.
            S::McFarling { n, h, ctr } if table(1, n) => (
                h,
                vec![weak(2 << n, ctr), weak(1 << n, CounterKind::TwoBit)],
                0,
            ),
            // BIM, G0, G1 and meta.
            S::TwoBcGskew { n, h } if table(2, n) => {
                (h, vec![weak(4 << n, CounterKind::TwoBit)], 0)
            }
            // Counters, then the bias table.
            S::Agree { n, h, bias, ctr } if table(1, n) && table(1, bias) => {
                (h, vec![weak(1 << n, ctr), (1 << bias, BIAS_UNSET)], 0)
            }
            // The choice table, then the not-taken and taken banks.
            S::BiMode { n, h, choice, ctr } if table(1, n) && table(1, choice) => {
                (h, vec![weak((1 << choice) + (2 << n), ctr)], 0)
            }
            S::Pas { bht, l, n, ctr } if local(bht, l) && table(1, n) => {
                (0, vec![weak(1 << n, ctr)], 1 << bht)
            }
            S::Spas { bht, l, n, ctr, .. } if local(bht, l) && table(2, n) => {
                (0, vec![weak(3 << n, ctr)], 1 << bht)
            }
            // Direction bits, then hysteresis bits: boot weakly taken,
            // direction 1 and hysteresis 0.
            S::Shgskew { n, h, .. } if table(2, n) => (h, vec![(3 << n, 1), (3 << (n - 1), 0)], 0),
            _ => return None,
        };
        (h <= 64).then_some((h, segments, locals))
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
        self.dispatch::<false>(cols, 0, |_, _, _| {})
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
        self.dispatch::<true>(cols, delay, |_, _, _| {})
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
        self.dispatch::<false>(cols, 0, observe)
    }

    /// Split the tables into the family's [`Table`] and run [`drive`]
    /// over it. Each arm pins the counter automaton and the shape, so
    /// every `drive` copy is a monomorphized loop.
    fn dispatch<const DELAYED: bool>(
        &mut self,
        cols: &TraceColumns,
        delay: usize,
        observe: impl FnMut(&[bool], bool, bool),
    ) -> RunResult {
        use PredictorSpec as S;
        let start = Instant::now();
        let hist = &mut self.hist;
        let cells = &mut self.cells[..];
        let slots = &mut self.locals[..];
        macro_rules! go {
            ($table:expr) => {
                drive::<_, DELAYED>(&mut $table, hist, cols, delay, observe)
            };
        }
        // Each closure pins the variant, so `IndexFunction::index`
        // const-folds its match inside the monomorphized copy.
        macro_rules! one_bank {
            ($func:ident, $c:expr, $n:expr) => {
                OneBank {
                    c: $c,
                    n: $n,
                    index: |v: &InfoVector, n| IndexFunction::$func.index(v, n),
                    table: cells,
                }
            };
        }
        let partial = |update: UpdatePolicy| update == UpdatePolicy::Partial;
        let result = match self.spec {
            S::Bimodal { n, ctr } => with_counter!(ctr, c => go!(one_bank!(Bimodal, c, n))),
            S::Gshare { n, ctr, .. } => with_counter!(ctr, c => go!(one_bank!(Gshare, c, n))),
            S::Gselect { n, ctr, .. } => with_counter!(ctr, c => go!(one_bank!(Gselect, c, n))),
            S::Gskew {
                n,
                banks,
                ctr,
                update,
                enhanced,
                skewing,
                ..
            } => {
                let partial = partial(update);
                macro_rules! skewed {
                    ($c:expr, $b:literal, $enhanced:literal, $skew:literal) => {
                        go!(Skewed::<_, $b, $enhanced, $skew> {
                            c: $c,
                            n,
                            partial,
                            tables: cells,
                        })
                    };
                }
                with_counter!(ctr, c => match (banks, enhanced, skewing) {
                    (3, false, true) => skewed!(c, 3, false, true),
                    (3, true, true) => skewed!(c, 3, true, true),
                    (3, false, false) => skewed!(c, 3, false, false),
                    (3, true, false) => skewed!(c, 3, true, false),
                    (5, false, true) => skewed!(c, 5, false, true),
                    (5, true, true) => skewed!(c, 5, true, true),
                    (5, false, false) => skewed!(c, 5, false, false),
                    (5, true, false) => skewed!(c, 5, true, false),
                    _ => unreachable!("from_spec admits 3 or 5 banks only"),
                })
            }
            S::McFarling { n, ctr, .. } => {
                let (bimodal, rest) = cells.split_at_mut(1 << n);
                let (gshare, meta) = rest.split_at_mut(1 << n);
                with_counter!(ctr, c => go!(McFarling {
                    c,
                    n,
                    bimodal,
                    gshare,
                    meta,
                }))
            }
            S::TwoBcGskew { n, .. } => {
                let (bim, rest) = cells.split_at_mut(1 << n);
                let (g0, rest) = rest.split_at_mut(1 << n);
                let (g1, meta) = rest.split_at_mut(1 << n);
                go!(TwoBcGskew {
                    n,
                    bim,
                    g0,
                    g1,
                    meta,
                })
            }
            S::Agree { n, ctr, .. } => {
                let (counters, bias) = cells.split_at_mut(1 << n);
                with_counter!(ctr, c => go!(Agree {
                    c,
                    n,
                    counters,
                    bias,
                }))
            }
            S::BiMode { n, choice, ctr, .. } => {
                let (choice, banks) = cells.split_at_mut(1 << choice);
                with_counter!(ctr, c => go!(BiMode {
                    c,
                    n,
                    choice,
                    banks,
                }))
            }
            S::Pas { l, n, ctr, .. } => with_counter!(ctr, c => go!(Local {
                slots,
                bits: l,
                table: one_bank!(Gselect, c, n),
            })),
            S::Spas {
                l, n, ctr, update, ..
            } => with_counter!(ctr, c => go!(Local {
                slots,
                bits: l,
                table: Skewed::<_, 3, false, true> {
                    c,
                    n,
                    partial: partial(update),
                    tables: cells,
                },
            })),
            S::Shgskew { n, update, .. } => {
                let (direction, hysteresis) = cells.split_at_mut(3 << n);
                go!(Shgskew {
                    n,
                    partial: partial(update),
                    direction,
                    hysteresis,
                })
            }
            _ => unreachable!("from_spec admits table families only"),
        };
        timing::record_kernel(cols.len() as u64, start.elapsed());
        result
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
    /// One batched [`engine::run_many`] pass over the specs without a
    /// fast path (`setassoc`, `always-*`).
    Dyn(Vec<PredictorSpec>),
    /// One direct-mapped three-C cell ([`batch::dm_pass`]).
    Dm(ThreeCCell),
    /// One fully-associative pass under a history length, serving
    /// several capacities ([`batch::fa_pass`]).
    Fa(u32, Vec<u64>),
}

impl Job {
    /// Run the job over `cols`: one result per cell it serves, in the
    /// order [`plan`] listed its specs, or of the FA capacities. Aliasing
    /// jobs pack their counts into a [`RunResult`] ([`dm_counts`] and
    /// [`fa_counts`] unpack them). Table kernels and aliasing passes
    /// ignore `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Job::Table`] spec has no kernel or a [`Job::Dyn`]
    /// spec does not build; [`plan`] makes neither.
    pub fn run(self, cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
        let start = Instant::now();
        let counts = match self {
            Job::Table(spec) => {
                let mut kernel = PredictorKernel::from_spec(&spec).expect("plan checked support");
                return vec![kernel.run(cols)];
            }
            Job::Walk(walk) => return walk.run(cols, policy),
            Job::Dyn(specs) => {
                let build = |spec: &PredictorSpec| spec.build().unwrap_or_else(|e| panic!("{e}"));
                let mut predictors: Vec<_> = specs.iter().map(build).collect();
                return engine::run_many(&mut predictors, cols, policy);
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
/// length, one FA pass per FA unit and one dyn batch for the specs
/// without a fast path; then one table kernel per spec and one DM pass
/// per DM unit.
///
/// # Errors
///
/// Returns [`ConfigError`] for malformed specs and (via
/// [`PredictorSpec::build`] on the dyn rows) out-of-range values.
pub fn plan<'a>(
    units: impl IntoIterator<Item = &'a Unit>,
) -> Result<Vec<(Vec<usize>, Job)>, ConfigError> {
    let (mut shared, mut single) = (Vec::new(), Vec::new());
    let (mut dyn_rows, mut dyn_specs) = (Vec::new(), Vec::new());
    for (i, unit) in units.into_iter().enumerate() {
        let spec = match unit {
            Unit::Spec(spec) => PredictorSpec::parse(spec)?,
            Unit::Dm(cell) => {
                single.push((vec![i], Job::Dm(*cell)));
                continue;
            }
            Unit::Fa {
                history_bits,
                capacities,
            } => {
                shared.push((vec![i], Job::Fa(*history_bits, capacities.clone())));
                continue;
            }
        };
        if PredictorKernel::supports(&spec) {
            single.push((vec![i], Job::Table(spec)));
        } else if let Some((h, row)) = LruRow::from_spec(&spec) {
            let walk = shared.iter_mut().find_map(|(rows, job)| match job {
                Job::Walk(walk) if walk.hist_bits == h => Some((rows, walk)),
                _ => None,
            });
            match walk {
                Some((rows, walk)) => {
                    rows.push(i);
                    walk.rows.push(row);
                }
                None => shared.push((vec![i], Job::Walk(LruWalk::new(h, vec![row])))),
            }
        } else {
            spec.build()?;
            dyn_rows.push(i);
            dyn_specs.push(spec);
        }
    }
    if !dyn_rows.is_empty() {
        shared.push((dyn_rows, Job::Dyn(dyn_specs)));
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
/// [`run_jobs`]. Results keep the order of `specs` and are bit-identical
/// to a pure [`engine::run_many`] over the same list under the same
/// `policy`.
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
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            for delay in [0, 1, 3, 32, 10_000] {
                let fast = PredictorKernel::from_spec(&parsed)
                    .unwrap()
                    .run_delayed(&cols, delay);
                let mut dyn_p = parse_spec(spec).unwrap();
                let slow =
                    engine::run_delayed(&mut dyn_p, cols.records(), NovelPolicy::Count, delay);
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
        let units: Vec<_> = specs.iter().cloned().map(Unit::Spec).collect();
        let jobs = plan(&units).unwrap();
        assert_eq!(jobs.len(), 2, "one walk per history length");
        assert!(jobs.iter().all(|(_, job)| matches!(job, Job::Walk(_))));
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 2).unwrap();
            let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
            let reference = engine::run_many(&mut predictors, &cols, policy);
            assert_eq!(routed, reference, "{policy:?}");
            assert!(routed.iter().all(|r| r.novel > 0));
        }
    }
}
