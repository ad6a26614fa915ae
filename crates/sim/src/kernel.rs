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
//! Kernel families (everything else runs on the `dyn` engine):
//!
//! | family | kernel | counters |
//! |---|---|---|
//! | `bimodal`, `gshare`, `gselect` | [`OneBankKernel`] | 1..=7 bits |
//! | `gskew`, `egskew` (3 or 5 banks, partial/total, `skew=off`) | [`GskewKernel`] | 1..=7 bits |
//! | `mcfarling` (bimodal + gshare + 2-bit meta) | [`McFarlingKernel`] | 1..=7 bits |
//! | `2bcgskew` (BIM + G0 + G1 + meta) | [`TwoBcGskewKernel`] | 2 bits |
//!
//! Every loop is generic over its counter automaton: the 2-bit counter
//! has its bounds as constants, every other width reads them from its
//! [`CounterKind`] (boot at `weakly_taken`, predict taken above
//! `neutral`, saturate at `max_value`). The gskew loop also takes its
//! bank count and indexing variant as const parameters, computes the
//! shared `H`/`H⁻¹` images of the two `n`-bit vector halves once per
//! record, reads each bank's counter once and writes every bank back
//! through a select.
//!
//! The contract is **bit identity**: for every supported spec,
//! [`PredictorKernel::run`] produces exactly the [`RunResult`] that
//! [`engine::run_with`] produces for the predictor built from the same
//! spec — same index functions ([`IndexFunction::index`], the skewing
//! functions of `bpred_core::skew`), same counter semantics, same
//! history updates, and the indices are computed *once* per conditional
//! record (legal because the dyn path's `update` recomputes them under
//! the unchanged prediction-time history). Kernel predictors never flag
//! a prediction *novel*, so the result is also independent of the
//! [`NovelPolicy`]. The equivalence is pinned by a proptest suite
//! (`tests/kernel_equiv.rs`) and by the campaign regression gates.
//!
//! [`run_specs`] is the batching entry point used by the experiment
//! sweeps: it parses each spec ([`PredictorSpec::parse`]), routes the
//! supported ones through kernels running in parallel over one shared
//! column view, and falls back to a single batched
//! [`engine::run_many`] pass for everything else.

use crate::engine::{self, NovelPolicy, RunResult};
use crate::runner::parallel_map;
use crate::timing;
use bpred_aliasing::batch::{self, DmCounts, FaCounts, ThreeCCell};
use bpred_aliasing::three_c::ThreeCCounts;
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
        // Dispatch once, outside the loop: each closure pins the variant,
        // so `IndexFunction::index` const-folds its match inside the
        // monomorphized copy of `drive`.
        with_counter!(self.kind, c => match self.func {
            IndexFunction::Bimodal => {
                self.drive(cols, c, |v, n| IndexFunction::Bimodal.index(v, n))
            }
            IndexFunction::Gshare => self.drive(cols, c, |v, n| IndexFunction::Gshare.index(v, n)),
            IndexFunction::Gselect => {
                self.drive(cols, c, |v, n| IndexFunction::Gselect.index(v, n))
            }
        })
    }

    #[inline(always)]
    fn drive<C: Counter>(
        &mut self,
        cols: &TraceColumns,
        c: C,
        index: impl Fn(&InfoVector, u32) -> u64,
    ) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let table = &mut self.table[..];
        let tmask = table.len() - 1;
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let v = InfoVector::new(pc, hist, hist_bits);
                // The extra mask is value-neutral (the index is already
                // `n` bits) but lets the compiler drop the bounds check.
                let idx = index(&v, n) as usize & tmask;
                let cell = table[idx];
                result.conditional += 1;
                result.mispredicted += u64::from(c.taken(cell) != taken);
                table[idx] = c.step(cell, taken);
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
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
        with_counter!(self.kind, c => match self.banks {
            3 => self.variant::<_, 3>(cols, c),
            5 => self.variant::<_, 5>(cols, c),
            _ => unreachable!("from_spec admits 3 or 5 banks only"),
        })
    }

    fn variant<C: Counter, const B: usize>(&mut self, cols: &TraceColumns, c: C) -> RunResult {
        match (self.enhanced, self.skewing) {
            (false, true) => self.drive::<C, B, false, true>(cols, c),
            (true, true) => self.drive::<C, B, true, true>(cols, c),
            (false, false) => self.drive::<C, B, false, false>(cols, c),
            (true, false) => self.drive::<C, B, true, false>(cols, c),
        }
    }

    #[inline(always)]
    fn drive<C: Counter, const B: usize, const ENHANCED: bool, const SKEW: bool>(
        &mut self,
        cols: &TraceColumns,
        c: C,
    ) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let bank_size = 1usize << n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let partial = self.partial;
        let tables = &mut self.tables[..];
        for (i, &pc) in cols.pcs().iter().enumerate() {
            if cols.is_conditional(i) {
                let taken = cols.taken(i);
                let addr = pc >> 2;
                // InfoVector::packed for a pre-masked history.
                let packed = if hist_bits >= 64 {
                    hist
                } else {
                    (addr << hist_bits) | hist
                };
                let raw = gskew_indices::<B, ENHANCED, SKEW>(addr, packed, n);
                let at: [usize; B] = std::array::from_fn(|b| b * bank_size + raw[b]);
                let cells: [u8; B] = std::array::from_fn(|b| tables[at[b]]);
                let votes = cells.iter().filter(|&&cell| c.taken(cell)).count();
                let overall = 2 * votes > B;
                result.conditional += 1;
                result.mispredicted += u64::from(overall != taken);
                // Partial update spares dissenting banks only when the
                // overall prediction was correct (section 4.1).
                let train_all = !partial || overall != taken;
                for b in 0..B {
                    let cell = cells[b];
                    let train = train_all || c.taken(cell) == taken;
                    tables[at[b]] = if train { c.step(cell, taken) } else { cell };
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
    /// - `2bcgskew` (`n` in 2..=30, `h` ≤ 64; always 2-bit).
    ///
    /// Every family with a `ctr` key accepts every counter width 1..=7.
    /// Anything else — other families, out-of-range values — returns
    /// `None` so the caller falls back to [`PredictorSpec::build`] and
    /// the `dyn` engine (where invalid values produce their usual
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
            _ => None,
        }
    }

    /// Whether `spec` has a kernel fast path.
    pub fn supports(spec: &PredictorSpec) -> bool {
        PredictorKernel::from_spec(spec).is_some()
    }

    /// Drive the kernel over a whole column view, accounting every
    /// conditional record.
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
        };
        timing::record_kernel(cols.len() as u64, start.elapsed());
        result
    }
}

/// Run every spec over one trace, kernels first: supported specs execute
/// as monomorphized loops split across up to `threads` workers sharing
/// `columns`, the rest ride a single batched [`engine::run_many`] pass
/// over the same columns. Results keep the order of `specs` and are
/// bit-identical to a pure `run_many` over the same list.
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
    let mut kernels: Vec<(usize, PredictorKernel)> = Vec::new();
    let mut dyn_rows: Vec<usize> = Vec::new();
    for (i, spec) in parsed.iter().enumerate() {
        match PredictorKernel::from_spec(spec) {
            Some(kernel) => kernels.push((i, kernel)),
            None => dyn_rows.push(i),
        }
    }
    // Build the fallback predictors up front so configuration errors
    // surface before any pass starts.
    let mut fallback = dyn_rows
        .iter()
        .map(|&i| parsed[i].build())
        .collect::<Result<Vec<_>, _>>()?;

    let mut results = vec![RunResult::default(); specs.len()];
    let kernel_results = parallel_map(kernels, threads, |(i, mut kernel)| (i, kernel.run(columns)));
    for (i, result) in kernel_results {
        results[i] = result;
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
        ] {
            equivalent(spec, IbsBenchmark::Groff, 6_000);
        }
    }

    #[test]
    fn unsupported_specs_have_no_kernel() {
        for spec in [
            "ideal:h=4",
            "agree:n=10,h=4",
            "shgskew:n=10,h=4",
            "gshare:n=0",  // out of range: dyn path reports the error
            "gshare:n=31", // out of range: dyn path reports the error
            "gskew:n=1,h=4",
            "mcfarling:n=0,h=4",
            "2bcgskew:n=1,h=8",
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
            "gshare:n=9,h=4", // kernel
            "agree:n=9,h=6",  // dyn fallback
            "gskew:n=8,h=4",  // kernel
            "ideal:h=4",      // dyn fallback
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
    fn novel_policy_is_irrelevant_on_the_fast_path() {
        let cols = cache::columns(IbsBenchmark::Gs, 4_000);
        let specs = vec!["gskew:n=8,h=6".to_string()];
        let count = run_specs(&specs, &cols, NovelPolicy::Count, 1).unwrap();
        let exclude = run_specs(&specs, &cols, NovelPolicy::Exclude, 1).unwrap();
        assert_eq!(count, exclude);
        assert_eq!(count[0].novel, 0);
    }
}
