//! Monomorphized batch kernels: the devirtualized simulation fast path.
//!
//! The general engine drives `Box<dyn BranchPredictor>` objects — two
//! virtual calls per record per predictor — over an array-of-structs
//! trace. For the tag-less table predictors that dominate every sweep in
//! the paper (bimodal, gshare, gselect and the gskew family) nothing
//! about the predict/update pair actually needs dynamic dispatch: the
//! whole transition is a table index computation, a counter compare and
//! a saturating step. This module compiles that transition into one
//! tight loop per predictor shape, walking the structure-of-arrays
//! [`TraceColumns`] view instead of `BranchRecord` structs.
//!
//! The contract is **bit identity**: for every supported spec,
//! [`PredictorKernel::run`] produces exactly the [`RunResult`] that
//! [`engine::run_with`] produces for the predictor built from the same
//! spec — same index functions ([`IndexFunction::index`],
//! [`skew_index`]), same counter semantics, same history updates, and
//! the index is computed *once* per conditional record (legal because
//! the dyn path's `update` recomputes it under the unchanged
//! prediction-time history). Kernel predictors never flag a prediction
//! *novel*, so the result is also independent of the
//! [`NovelPolicy`]. The equivalence is pinned by a proptest suite
//! (`tests/kernel_equiv.rs`) and by the campaign regression gate.
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
use bpred_core::skew::skew_index;
use bpred_core::spec::PredictorSpec;
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;
use std::time::Instant;

/// One 2-bit saturating counter step (the [`CounterKind::TwoBit`]
/// transition of `bpred_core::counter`).
#[inline(always)]
fn step2(cell: u8, taken: bool) -> u8 {
    if taken {
        if cell < 3 {
            cell + 1
        } else {
            cell
        }
    } else {
        cell.saturating_sub(1)
    }
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

/// A single-bank kernel: bimodal, gshare or gselect (2-bit counters).
#[derive(Debug, Clone)]
pub struct OneBankKernel {
    func: IndexFunction,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    table: Vec<u8>,
}

impl OneBankKernel {
    fn new(func: IndexFunction, n: u32, hist_bits: u32) -> OneBankKernel {
        OneBankKernel {
            func,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            table: vec![CounterKind::TwoBit.weakly_taken(); 1usize << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        // Dispatch once, outside the loop: each closure pins the variant,
        // so `IndexFunction::index` const-folds its match inside the
        // monomorphized copy of `drive`.
        match self.func {
            IndexFunction::Bimodal => self.drive(cols, |v, n| IndexFunction::Bimodal.index(v, n)),
            IndexFunction::Gshare => self.drive(cols, |v, n| IndexFunction::Gshare.index(v, n)),
            IndexFunction::Gselect => self.drive(cols, |v, n| IndexFunction::Gselect.index(v, n)),
        }
    }

    #[inline(always)]
    fn drive(&mut self, cols: &TraceColumns, index: impl Fn(&InfoVector, u32) -> u64) -> RunResult {
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
                result.mispredicted += u64::from((cell > 1) != taken);
                table[idx] = step2(cell, taken);
                hist = ((hist << 1) | u64::from(taken)) & hmask;
            } else {
                hist = ((hist << 1) | 1) & hmask;
            }
        }
        self.hist = hist;
        result
    }
}

/// A gskew-family kernel: 3 or 5 banks of 2-bit counters in one flat
/// array, partial or total update, plain / enhanced / identical-indexing
/// variants.
#[derive(Debug, Clone)]
pub struct GskewKernel {
    banks: usize,
    n: u32,
    hist_bits: u32,
    hist_mask: u64,
    hist: u64,
    partial: bool,
    enhanced: bool,
    identical: bool,
    tables: Vec<u8>,
}

impl GskewKernel {
    fn new(
        n: u32,
        hist_bits: u32,
        banks: usize,
        update: UpdatePolicy,
        enhanced: bool,
        skewing: bool,
    ) -> GskewKernel {
        GskewKernel {
            banks,
            n,
            hist_bits,
            hist_mask: hist_mask(hist_bits),
            hist: 0,
            partial: update == UpdatePolicy::Partial,
            enhanced,
            identical: !skewing,
            tables: vec![CounterKind::TwoBit.weakly_taken(); banks << n],
        }
    }

    fn run(&mut self, cols: &TraceColumns) -> RunResult {
        match self.banks {
            3 => self.drive::<3>(cols),
            5 => self.drive::<5>(cols),
            _ => unreachable!("from_spec admits 3 or 5 banks only"),
        }
    }

    #[inline(always)]
    fn drive<const B: usize>(&mut self, cols: &TraceColumns) -> RunResult {
        let mut result = RunResult::default();
        let n = self.n;
        let addr_mask = (1u64 << n) - 1;
        let bank_size = 1usize << n;
        let hist_bits = self.hist_bits;
        let hmask = self.hist_mask;
        let mut hist = self.hist;
        let partial = self.partial;
        let enhanced = self.enhanced;
        let identical = self.identical;
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
                let mut idx = [0usize; B];
                let mut vote = [false; B];
                let mut votes_taken = 0usize;
                for (b, (slot_idx, slot_vote)) in idx.iter_mut().zip(vote.iter_mut()).enumerate() {
                    let raw = if b == 0 && enhanced {
                        addr & addr_mask
                    } else if identical {
                        skew_index(0, packed, n)
                    } else {
                        skew_index(b, packed, n)
                    };
                    let at = b * bank_size + (raw as usize & (bank_size - 1));
                    let v = tables[at] > 1;
                    *slot_idx = at;
                    *slot_vote = v;
                    votes_taken += usize::from(v);
                }
                let overall = 2 * votes_taken > B;
                result.conditional += 1;
                result.mispredicted += u64::from(overall != taken);
                // Partial update spares dissenting banks only when the
                // overall prediction was correct (section 4.1).
                let train_all = !partial || overall != taken;
                for b in 0..B {
                    if train_all || vote[b] == taken {
                        tables[idx[b]] = step2(tables[idx[b]], taken);
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
}

impl PredictorKernel {
    /// The kernel for `spec`, when one exists.
    ///
    /// Supported: `bimodal`, `gshare`, `gselect` and `gskew`/`egskew`
    /// (3 or 5 banks, partial or total update, `skew=off` included) with
    /// 2-bit counters and in-range parameters. Anything else — other
    /// families, other counter widths, out-of-range values — returns
    /// `None` so the caller falls back to [`PredictorSpec::build`] and
    /// the `dyn` engine (where invalid values produce their usual
    /// errors).
    pub fn from_spec(spec: &PredictorSpec) -> Option<PredictorKernel> {
        match *spec {
            PredictorSpec::Bimodal {
                n,
                ctr: CounterKind::TwoBit,
            } if (1..=30).contains(&n) => Some(PredictorKernel::OneBank(OneBankKernel::new(
                IndexFunction::Bimodal,
                n,
                0,
            ))),
            PredictorSpec::Gshare {
                n,
                h,
                ctr: CounterKind::TwoBit,
            } if (1..=30).contains(&n) && h <= 64 => Some(PredictorKernel::OneBank(
                OneBankKernel::new(IndexFunction::Gshare, n, h),
            )),
            PredictorSpec::Gselect {
                n,
                h,
                ctr: CounterKind::TwoBit,
            } if (1..=30).contains(&n) && h <= 64 => Some(PredictorKernel::OneBank(
                OneBankKernel::new(IndexFunction::Gselect, n, h),
            )),
            PredictorSpec::Gskew {
                n,
                h,
                banks,
                ctr: CounterKind::TwoBit,
                update,
                enhanced,
                skewing,
            } if (2..=30).contains(&n) && h <= 64 && (banks == 3 || banks == 5) => Some(
                PredictorKernel::Gskew(GskewKernel::new(n, h, banks, update, enhanced, skewing)),
            ),
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
        ] {
            equivalent(spec, IbsBenchmark::Groff, 6_000);
        }
    }

    #[test]
    fn unsupported_specs_have_no_kernel() {
        for spec in [
            "mcfarling:n=10,h=8",
            "ideal:h=4",
            "gshare:n=10,h=4,ctr=1", // 1-bit counters: dyn only
            "gshare:n=10,h=4,ctr=3",
            "gshare:n=0",  // out of range: dyn path reports the error
            "gshare:n=31", // out of range: dyn path reports the error
            "gskew:n=1,h=4",
            "always-taken",
            "2bcgskew:n=8,h=8",
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
            "gshare:n=9,h=4",    // kernel
            "mcfarling:n=9,h=6", // dyn fallback
            "gskew:n=8,h=4",     // kernel
            "ideal:h=4",         // dyn fallback
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
