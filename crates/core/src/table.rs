//! The tag-less table predictors: every family the paper measures, and
//! its section-7 extensions, written once.
//!
//! | family | tables | counters | paper |
//! |---|---|---|---|
//! | `bimodal`, `gshare`, `gselect` | one table | 1..=7 bits | §2 |
//! | `gskew`, `egskew` (3 or 5 banks, partial/total, `skew=off`) | skewed banks | 1..=7 bits | §4, §4.1, §6 |
//! | `mcfarling` | bimodal + gshare + 2-bit meta | 1..=7 bits | §7 |
//! | `2bcgskew` | BIM + G0 + G1 + meta | 2 bits | §7 |
//! | `agree` | gshare counters + first-outcome bias table | 1..=7 bits | §7 |
//! | `bimode` | choice table + two gshare banks | 1..=7 bits | §7 |
//! | `pas` | local histories + gselect pattern table | 1..=7 bits | §7 |
//! | `spas` | local histories + 3 skewed banks | 1..=7 bits | §7 |
//! | `shgskew` | 3 direction banks, shared hysteresis | 2 bits | §7 |
//! | `always-taken`, `always-nottaken` | none: one constant prediction | — | §3.3 (figure 8's miss fallback) |
//!
//! Each family is a [`Table`]: a two-method per-record transition.
//! [`Table::look`] computes a record's indices under a given history and
//! reads the cells, writing nothing; [`Table::train`] writes them back
//! with the outcome. Each transition is generic over its [`Counter`]
//! automaton: the 2-bit counter ([`TwoBit`]) has its bounds as
//! constants, every other width ([`Width`]) reads them from its
//! [`CounterKind`] (boot at `weakly_taken`, predict taken above
//! `neutral`, saturate at `max_value`). The skewed banks also take their
//! bank count and indexing variant as const parameters, compute the
//! shared `H`/`H⁻¹` images of the two `n`-bit vector halves once per
//! record, read each bank's counter once and write every bank back
//! through a select; `spas` and `shgskew` use the same index code.
//!
//! A [`TablePredictor`] holds one family's tables and global history,
//! built from a [`PredictorSpec`] (which also checks the parameter
//! ranges). [`TablePredictor::visit`] hands a [`Visit`] the family's
//! concrete table, so a caller generic over [`Table`] — the
//! [`BranchPredictor`] impl here, the batch kernels of `bpred-sim` —
//! runs as one monomorphized copy per family shape.

use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::gskew::UpdatePolicy;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::skew;
use crate::spec::PredictorSpec;
use crate::vector::InfoVector;

/// A saturating-counter automaton: the `crate::counter` transition over
/// the bounds of one [`CounterKind`].
pub trait Counter: Copy {
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
pub struct TwoBit;

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
pub struct Width {
    neutral: u8,
    max: u8,
}

impl Width {
    /// The automaton of `kind`.
    pub fn of(kind: CounterKind) -> Width {
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

/// A history register as a lookup sees it: the youngest `bits` outcomes,
/// youngest in bit 0, already masked to `bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct History {
    bits: u32,
    value: u64,
}

impl History {
    /// A cleared register of `bits` bits (at most 64).
    pub fn new(bits: u32) -> History {
        History { bits, value: 0 }
    }

    /// The register's length in bits.
    #[inline(always)]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The register's contents.
    #[inline(always)]
    pub fn value(self) -> u64 {
        self.value
    }

    /// The mask of the register's `bits` bits.
    #[inline(always)]
    pub fn mask(self) -> u64 {
        if self.bits == 0 {
            0
        } else if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Shift `bit` in, keeping the register to `mask` ([`History::mask`]).
    #[inline(always)]
    pub fn push(&mut self, bit: bool, mask: u64) {
        self.value = ((self.value << 1) | u64::from(bit)) & mask;
    }

    /// Hold the low bits of a raw 64-bit global history, under `mask`
    /// ([`History::mask`]).
    #[inline(always)]
    pub fn load(&mut self, raw: u64, mask: u64) {
        self.value = raw & mask;
    }

    /// The information vector of the branch at `pc`.
    #[inline(always)]
    pub fn vector(self, pc: u64) -> InfoVector {
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
#[derive(Debug)]
pub struct Look<Cells, Votes> {
    cells: Cells,
    /// Each bank's direction (the components' for a hybrid, the
    /// prediction alone for a single-counter lookup).
    pub votes: Votes,
    /// The overall prediction.
    pub predicted: bool,
}

/// One table family's per-record transition. The implementing type fixes
/// the counter automaton and any shape parameters, so every caller
/// generic over it is a monomorphized loop.
pub trait Table {
    /// The indices and cell values `look` read.
    type Cells;
    /// Each bank's direction (the components' for a hybrid, the
    /// prediction alone for a single-counter lookup).
    type Votes: AsRef<[bool]>;
    /// Whether `look` reads the global history. A caller need keep no
    /// global register for a table that does not (`pas`, `spas`).
    const GLOBAL_HISTORY: bool = true;

    /// The indices of the branch at `pc` under `hist`, and the cells
    /// there. Writes nothing.
    fn look(&self, pc: u64, hist: History) -> Look<Self::Cells, Self::Votes>;

    /// Write the cells `look` read back, trained with the outcome.
    fn train(&mut self, look: Look<Self::Cells, Self::Votes>, taken: bool);
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
/// vector (`crate::skew`'s decomposition).
#[inline(always)]
fn halves(packed: u64, n: u32) -> (u64, u64) {
    let m = (1u64 << n) - 1;
    (packed & m, (packed >> n) & m)
}

/// The bank indices of one record under the skewing functions `f0..f4`
/// of [`skew::skew_index`], sharing `H(V1)`, `H⁻¹(V2)`, `H⁻¹(V1)` and
/// `H(V2)` across banks. `ENHANCED` indexes bank 0 by the address alone;
/// `SKEW = false` indexes every other bank with `f0` (the `skew=off`
/// ablation). Images no bank uses are dead code in the monomorphized
/// copy.
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
        let mut local = History {
            bits: self.bits,
            value: local,
        };
        local.push(taken, local.mask());
        self.slots[slot] = local.value;
    }
}

/// `always-taken` and `always-nottaken`: no cells, one constant
/// prediction, nothing to train.
struct Static {
    taken: bool,
}

impl Table for Static {
    type Cells = ();
    type Votes = [bool; 1];
    const GLOBAL_HISTORY: bool = false;

    #[inline(always)]
    fn look(&self, _pc: u64, _hist: History) -> Look<(), [bool; 1]> {
        Look {
            cells: (),
            votes: [self.taken],
            predicted: self.taken,
        }
    }

    #[inline(always)]
    fn train(&mut self, _look: Look<(), [bool; 1]>, _taken: bool) {}
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

/// A family's shape: the global history length, the tables at boot as
/// `(entries, boot value)` runs, and the number of local histories.
type Layout = (u32, Vec<(usize, u8)>, usize);

/// The [`Layout`] of a table-family `spec`, `Ok(None)` for the other
/// families, or the first out-of-range parameter.
fn layout(spec: &PredictorSpec) -> Result<Option<Layout>, ConfigError> {
    use PredictorSpec as S;
    let log2 = |name, lo: u32, n: u32| {
        if (lo..=30).contains(&n) {
            Ok(())
        } else if lo == 1 {
            Err(ConfigError::invalid(name, n, "must be in 1..=30"))
        } else {
            Err(ConfigError::invalid(name, n, "must be in 2..=30"))
        }
    };
    let history = |h: u32| {
        if h <= 64 {
            Ok(())
        } else {
            Err(ConfigError::invalid(
                "history_bits",
                h,
                "must be at most 64",
            ))
        }
    };
    let local = |bht: u32, l: u32| {
        log2("bht_entries_log2", 1, bht)?;
        if (1..=32).contains(&l) {
            Ok(())
        } else {
            Err(ConfigError::invalid("local_bits", l, "must be in 1..=32"))
        }
    };
    let weak = |entries: usize, kind: CounterKind| (entries, kind.weakly_taken());
    let layout = match *spec {
        S::Bimodal { n, ctr } => {
            log2("entries_log2", 1, n)?;
            (0, vec![weak(1 << n, ctr)], 0)
        }
        S::Gshare { n, h, ctr } | S::Gselect { n, h, ctr } => {
            log2("entries_log2", 1, n)?;
            history(h)?;
            (h, vec![weak(1 << n, ctr)], 0)
        }
        S::Gskew {
            n, h, banks, ctr, ..
        } => {
            if banks != 3 && banks != 5 {
                let reason = "must be an odd number between 3 and 5";
                return Err(ConfigError::invalid("banks", banks, reason));
            }
            log2("bank_entries_log2", 2, n)?;
            history(h)?;
            (h, vec![weak(banks << n, ctr)], 0)
        }
        // Bimodal, then gshare, then the 2-bit meta table.
        S::McFarling { n, h, ctr } => {
            log2("entries_log2", 1, n)?;
            history(h)?;
            let meta = weak(1 << n, CounterKind::TwoBit);
            (h, vec![weak(2 << n, ctr), meta], 0)
        }
        // BIM, G0, G1 and meta.
        S::TwoBcGskew { n, h } => {
            log2("n", 2, n)?;
            history(h)?;
            (h, vec![weak(4 << n, CounterKind::TwoBit)], 0)
        }
        // Counters, then the bias table.
        S::Agree { n, h, bias, ctr } => {
            log2("entries_log2", 1, n)?;
            log2("bias_entries_log2", 1, bias)?;
            history(h)?;
            (h, vec![weak(1 << n, ctr), (1 << bias, BIAS_UNSET)], 0)
        }
        // The choice table, then the not-taken and taken banks.
        S::BiMode { n, h, choice, ctr } => {
            log2("entries_log2", 1, n)?;
            log2("choice_entries_log2", 1, choice)?;
            history(h)?;
            (h, vec![weak((1 << choice) + (2 << n), ctr)], 0)
        }
        S::Pas { bht, l, n, ctr } => {
            log2("entries_log2", 1, n)?;
            local(bht, l)?;
            (0, vec![weak(1 << n, ctr)], 1 << bht)
        }
        S::Spas { bht, l, n, ctr, .. } => {
            log2("bank_entries_log2", 2, n)?;
            local(bht, l)?;
            (0, vec![weak(3 << n, ctr)], 1 << bht)
        }
        // Direction bits, then hysteresis bits: boot weakly taken,
        // direction 1 and hysteresis 0.
        S::Shgskew { n, h, .. } => {
            log2("entries_log2", 2, n)?;
            history(h)?;
            (h, vec![(3 << n, 1), (3 << (n - 1), 0)], 0)
        }
        S::AlwaysTaken | S::AlwaysNotTaken => (0, Vec::new(), 0),
        S::Ideal { .. } | S::Falru { .. } | S::SetAssoc { .. } => return Ok(None),
    };
    Ok(Some(layout))
}

/// A computation over one family's concrete [`Table`], run by
/// [`TablePredictor::visit`].
pub trait Visit {
    /// What the computation returns.
    type Output;

    /// Run over `table` and the predictor's global history `hist`.
    fn visit<T: Table>(self, table: &mut T, hist: &mut History) -> Self::Output;
}

/// The predictor of one tag-less table family: its tables and global
/// history, in the family's [`Table`] transition.
///
/// As a [`BranchPredictor`], `predict` looks the branch up under the
/// current history; `update` looks it up, trains the cells and shifts
/// the outcome into the history; an unconditional branch shifts in a
/// taken bit. `pas`, `spas` and `always-*` keep a 0-bit global history.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let spec = PredictorSpec::parse("gskew:n=10,h=8")?;
/// let mut pred = TablePredictor::new(&spec)?.expect("a table family");
/// pred.update(0x4000_1000, Outcome::Taken);
/// assert_eq!(pred.name(), "gskew 3x1024 h=8 2-bit partial");
/// assert_eq!(pred.storage_bits(), 3 * 1024 * 2);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePredictor {
    /// The family and its shape, checked by [`TablePredictor::new`].
    spec: PredictorSpec,
    /// The global history register.
    hist: History,
    /// Every table of the family, in one array, in the order
    /// [`TablePredictor::visit`] splits it.
    cells: Vec<u8>,
    /// `pas`'s and `spas`'s local histories.
    locals: Vec<u64>,
}

impl TablePredictor {
    /// The predictor `spec` describes when its family is a tag-less table
    /// (see the [module](self) table), `None` for the other families.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a parameter out of its range: table
    /// sizes of 1..=30 bits (2..=30 for the skewed banks and
    /// `2bcgskew`), 3 or 5 gskew banks, at most 64 history bits, 1..=32
    /// local history bits.
    pub fn new(spec: &PredictorSpec) -> Result<Option<TablePredictor>, ConfigError> {
        let Some((h, segments, locals)) = layout(spec)? else {
            return Ok(None);
        };
        let mut cells = Vec::with_capacity(segments.iter().map(|&(n, _)| n).sum());
        for (entries, boot) in segments {
            cells.resize(cells.len() + entries, boot);
        }
        Ok(Some(TablePredictor {
            spec: spec.clone(),
            hist: History::new(h),
            cells,
            locals: vec![0; locals],
        }))
    }

    /// Whether `spec` is a table family, checking its parameters as
    /// [`TablePredictor::new`] does without allocating the tables.
    ///
    /// # Errors
    ///
    /// As [`TablePredictor::new`].
    pub fn check(spec: &PredictorSpec) -> Result<bool, ConfigError> {
        Ok(layout(spec)?.is_some())
    }

    /// Each bank's vote for the branch at `pc` under the current history
    /// (a hybrid's components', the prediction alone for a
    /// single-counter lookup), as [`Look::votes`].
    pub fn votes(&mut self, pc: u64) -> Vec<bool> {
        self.visit(Votes(pc))
    }

    /// Split the tables into the family's [`Table`] and run `v` over it
    /// and the global history. Each arm pins the counter automaton and
    /// the shape, so every `V::visit` copy is monomorphized.
    pub fn visit<V: Visit>(&mut self, v: V) -> V::Output {
        use PredictorSpec as S;
        let hist = &mut self.hist;
        let cells = &mut self.cells[..];
        let slots = &mut self.locals[..];
        macro_rules! go {
            ($table:expr) => {
                v.visit(&mut $table, hist)
            };
        }
        // Each closure pins the variant, so `IndexFunction::index`
        // const-folds its match inside the monomorphized copy.
        macro_rules! one_bank {
            ($func:ident, $c:expr, $n:expr) => {
                OneBank {
                    c: $c,
                    n: $n,
                    index: |vector: &InfoVector, n| IndexFunction::$func.index(vector, n),
                    table: cells,
                }
            };
        }
        let partial = |update: UpdatePolicy| update == UpdatePolicy::Partial;
        match self.spec {
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
                    _ => unreachable!("`new` admits 3 or 5 banks only"),
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
            S::AlwaysTaken => go!(Static { taken: true }),
            S::AlwaysNotTaken => go!(Static { taken: false }),
            _ => unreachable!("`new` admits table families only"),
        }
    }
}

/// [`BranchPredictor::predict`]: the prediction under the current
/// history.
struct Predict(u64);

impl Visit for Predict {
    type Output = bool;

    fn visit<T: Table>(self, table: &mut T, hist: &mut History) -> bool {
        table.look(self.0, *hist).predicted
    }
}

/// [`TablePredictor::votes`].
struct Votes(u64);

impl Visit for Votes {
    type Output = Vec<bool>;

    fn visit<T: Table>(self, table: &mut T, hist: &mut History) -> Vec<bool> {
        table.look(self.0, *hist).votes.as_ref().to_vec()
    }
}

/// [`BranchPredictor::update`]: look up, train, shift the outcome in.
struct Update(u64, bool);

impl Visit for Update {
    type Output = ();

    fn visit<T: Table>(self, table: &mut T, hist: &mut History) {
        let Update(pc, taken) = self;
        let look = table.look(pc, *hist);
        table.train(look, taken);
        hist.push(taken, hist.mask());
    }
}

impl BranchPredictor for TablePredictor {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(Outcome::from(self.visit(Predict(pc))))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.visit(Update(pc, outcome.is_taken()));
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(true, self.hist.mask());
    }

    fn name(&self) -> String {
        self.spec.name()
    }

    fn storage_bits(&self) -> u64 {
        self.spec.storage_bits()
    }

    fn reset(&mut self) {
        *self = TablePredictor::new(&self.spec)
            .expect("checked at construction")
            .expect("a table family");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    #[test]
    fn names_and_storage_bits_follow_the_spec() {
        // One spec per family shape, at the strings the per-family
        // predictors printed.
        for (spec, name, bits) in [
            ("bimodal:n=10", "bimodal 1024 2-bit", 2048),
            ("gshare:n=12,h=8", "gshare 4096 h=8 2-bit", 8192),
            ("gshare:n=10,h=4,ctr=1", "gshare 1024 h=4 1-bit", 1024),
            ("gselect:n=12,h=6", "gselect 4096 h=6 2-bit", 8192),
            ("gskew:n=12,h=8", "gskew 3x4096 h=8 2-bit partial", 24576),
            (
                "gskew:n=9,h=4,banks=5",
                "gskew 5x512 h=4 2-bit partial",
                5120,
            ),
            (
                "gskew:n=9,h=4,update=total",
                "gskew 3x512 h=4 2-bit total",
                3072,
            ),
            (
                "gskew:n=9,h=4,skew=off",
                "gskew 3x512 h=4 2-bit partial same-index",
                3072,
            ),
            ("gskew:n=9,h=4,ctr=3", "gskew 3x512 h=4 3-bit partial", 4608),
            ("egskew:n=10,h=11", "egskew 3x1024 h=11 2-bit partial", 6144),
            (
                "egskew:n=8,h=6,banks=5,update=total,ctr=1",
                "egskew 5x256 h=6 1-bit total",
                1280,
            ),
            (
                "mcfarling:n=9,h=6",
                "mcfarling[bimodal 512 2-bit | gshare 512 h=6 2-bit]",
                3072,
            ),
            ("2bcgskew:n=9,h=8", "2bcgskew 4x512 h=8", 4096),
            ("agree:n=10,h=6", "agree 1024 h=6 bias=1024 2-bit", 4096),
            (
                "agree:n=11,h=6,bias=8",
                "agree 2048 h=6 bias=256 2-bit",
                4608,
            ),
            (
                "bimode:n=9,h=6,choice=10,ctr=3",
                "bimode 2x512 h=6 choice=1024 3-bit",
                6144,
            ),
            ("pas:bht=8,l=6,n=10", "pas bht=256x6 table=1024 2-bit", 3584),
            (
                "spas:bht=6,l=9,n=7,ctr=1,update=total",
                "spas bht=64x9 3x128 1-bit total",
                960,
            ),
            ("shgskew:n=9,h=4", "shgskew 3x512+256hyst h=4 partial", 2304),
            (
                "shgskew:n=12,h=8,update=total",
                "shgskew 3x4096+2048hyst h=8 total",
                18432,
            ),
            ("always-taken", "always-taken", 0),
            ("always-nottaken", "always-not-taken", 0),
        ] {
            let p = parse_spec(spec).unwrap();
            assert_eq!(
                (p.name(), p.storage_bits()),
                (name.to_string(), bits),
                "{spec}"
            );
        }
    }

    #[test]
    fn every_family_learns_biased_and_history_correlated_branches() {
        let families = [
            "bimodal:n=8",
            "gshare:n=8,h=4",
            "gselect:n=8,h=4",
            "gskew:n=8,h=4",
            "egskew:n=8,h=4,banks=5,update=total",
            "mcfarling:n=8,h=4",
            "2bcgskew:n=8,h=4",
            "agree:n=8,h=4",
            "bimode:n=8,h=4",
            "pas:bht=6,l=4,n=8",
            "spas:bht=6,l=4,n=8",
            "shgskew:n=8,h=4",
        ];
        for spec in families {
            // Two branches biased in opposite directions.
            let mut p = parse_spec(spec).unwrap();
            for _ in 0..8 {
                p.update(0x1000, Outcome::Taken);
                p.update(0x1008, Outcome::NotTaken);
            }
            assert_eq!(p.predict(0x1000).outcome, Outcome::Taken, "{spec}");
            p.update(0x1000, Outcome::Taken);
            assert_eq!(p.predict(0x1008).outcome, Outcome::NotTaken, "{spec}");
        }
        // An alternating branch, learned from the history alone.
        for spec in ["gshare:n=8,h=4", "gskew:n=8,h=4", "pas:bht=6,l=4,n=8"] {
            let mut p = parse_spec(spec).unwrap();
            let outcome = |i: u32| Outcome::from(i.is_multiple_of(2));
            for i in 0..32 {
                p.update(0x1000, outcome(i));
            }
            for i in 32..40 {
                assert_eq!(p.predict(0x1000).outcome, outcome(i), "{spec}");
                p.update(0x1000, outcome(i));
            }
        }
    }

    #[test]
    fn reset_restores_the_boot_state() {
        for spec in ["gskew:n=6,h=4", "agree:n=6,h=4", "pas:bht=4,l=4,n=6"] {
            let fresh = TablePredictor::new(&PredictorSpec::parse(spec).unwrap())
                .unwrap()
                .unwrap();
            let mut p = fresh.clone();
            for i in 0..200u64 {
                p.update(0x1000 + 4 * (i % 7), Outcome::from(i % 3 == 0));
                p.record_unconditional(0x2000);
            }
            assert_ne!(p, fresh, "{spec}");
            p.reset();
            assert_eq!(p, fresh, "{spec}");
        }
    }

    #[test]
    fn history_reaches_only_the_global_families() {
        // An unconditional branch shifts a taken bit into the global
        // history; `pas` keeps a 0-bit register.
        let build = |spec: &str| {
            TablePredictor::new(&PredictorSpec::parse(spec).unwrap())
                .unwrap()
                .unwrap()
        };
        let mut g = build("gshare:n=8,h=4");
        g.record_unconditional(0);
        assert_eq!(g.hist.value(), 1);
        let mut p = build("pas:bht=4,l=4,n=6");
        p.record_unconditional(0);
        p.update(0x44, Outcome::Taken);
        assert_eq!(p.hist.value(), 0);
        assert_eq!(p.locals[1], 1);
    }

    #[test]
    fn statics_never_learn() {
        for (spec, outcome) in [
            ("always-taken", Outcome::Taken),
            ("always-nottaken", Outcome::NotTaken),
        ] {
            let mut p = parse_spec(spec).unwrap();
            for i in 0..10u64 {
                p.update(i * 4, outcome.flipped());
                p.record_unconditional(i * 4);
            }
            assert_eq!(p.predict(0), Prediction::of(outcome), "{spec}");
        }
    }

    #[test]
    fn other_families_have_no_table() {
        for spec in ["ideal:h=4", "falru:cap=64,h=4", "setassoc:n=6"] {
            let spec = PredictorSpec::parse(spec).unwrap();
            assert_eq!(TablePredictor::new(&spec), Ok(None));
            assert_eq!(TablePredictor::check(&spec), Ok(false));
        }
    }
}
