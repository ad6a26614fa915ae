//! The trace-driven simulation engine: drive any predictor over any record
//! stream and account mispredictions.

use crate::timing;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_trace::record::{BranchKind, BranchRecord};
use bpred_trace::soa::TraceColumns;
use std::time::Instant;

/// How predictions flagged *novel* (first encounter of a substream, only
/// produced by the ideal and tagged predictors) are accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NovelPolicy {
    /// Count the prediction like any other (figure 8's fully-associative
    /// table: its always-taken miss fallback is charged normally).
    #[default]
    Count,
    /// Exclude the reference from the misprediction accounting (Table 2's
    /// unaliased predictor: first encounters are not mispredictions).
    Exclude,
}

/// Misprediction accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunResult {
    /// Dynamic conditional branches predicted.
    pub conditional: u64,
    /// Mispredicted conditional branches (after the novel policy).
    pub mispredicted: u64,
    /// References whose prediction was flagged novel.
    pub novel: u64,
}

impl RunResult {
    /// Misprediction percentage over all conditional branches.
    pub fn mispredict_pct(&self) -> f64 {
        if self.conditional == 0 {
            0.0
        } else {
            100.0 * self.mispredicted as f64 / self.conditional as f64
        }
    }

    /// Misprediction ratio in `[0, 1]`.
    pub fn mispredict_ratio(&self) -> f64 {
        self.mispredict_pct() / 100.0
    }
}

/// Run `predictor` over `records` with the default accounting
/// ([`NovelPolicy::Count`]).
pub fn run(
    predictor: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
) -> RunResult {
    run_with(predictor, records, NovelPolicy::Count)
}

/// Run `predictor` over `records` with an explicit novel-reference policy.
///
/// For every conditional record the engine calls
/// [`BranchPredictor::predict`] then [`BranchPredictor::update`]; for
/// other kinds it calls [`BranchPredictor::record_unconditional`], so
/// unconditional branches shift global histories exactly as in the paper.
pub fn run_with(
    predictor: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
    novel_policy: NovelPolicy,
) -> RunResult {
    run_warm(predictor, records, novel_policy, 0)
}

/// As [`run_with`], excluding the first `warmup` conditional branches
/// from the accounting (the predictor still trains on them).
///
/// The paper measures whole traces with no warmup (cold-start effects are
/// part of its aliasing story), so the experiment harness passes 0; the
/// option exists for steady-state studies.
pub fn run_warm(
    predictor: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
    novel_policy: NovelPolicy,
    warmup: u64,
) -> RunResult {
    let start = Instant::now();
    let mut result = RunResult::default();
    let mut seen = 0u64;
    let mut applications = 0u64;
    for record in records {
        applications += 1;
        if record.kind == BranchKind::Conditional {
            seen += 1;
            let prediction = predictor.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            if seen > warmup {
                result.conditional += 1;
                if prediction.novel {
                    result.novel += 1;
                }
                let counted = !(prediction.novel && novel_policy == NovelPolicy::Exclude);
                if counted && prediction.outcome != outcome {
                    result.mispredicted += 1;
                }
            }
            predictor.update(record.pc, outcome);
        } else {
            predictor.record_unconditional(record.pc);
        }
    }
    timing::record_dyn(applications, start.elapsed());
    result
}

/// Drive every predictor in `predictors` over a single pass of one
/// trace, under one novel-reference policy.
///
/// Each record is applied to all predictors before the pass advances, so
/// the result for predictor `i` is bit-identical to running
/// [`run_with`]`(predictors[i], columns.records(), novel_policy)` on its
/// own — the predictors share the trace walk, not any state. With a
/// cached trace (`bpred_trace::cache`) this turns an N-row sweep from N
/// generate-and-simulate passes into one generation plus one pass, the
/// batched fallback used by the experiment sweeps.
pub fn run_many(
    predictors: &mut [Box<dyn BranchPredictor>],
    columns: &TraceColumns,
    novel_policy: NovelPolicy,
) -> Vec<RunResult> {
    let start = Instant::now();
    let mut results = vec![RunResult::default(); predictors.len()];
    for (i, &pc) in columns.pcs().iter().enumerate() {
        let (conditional, taken) = columns.cond_taken(i);
        if conditional {
            let outcome = Outcome::from(taken);
            for (predictor, result) in predictors.iter_mut().zip(results.iter_mut()) {
                let prediction = predictor.predict(pc);
                result.conditional += 1;
                if prediction.novel {
                    result.novel += 1;
                }
                let counted = !(prediction.novel && novel_policy == NovelPolicy::Exclude);
                if counted && prediction.outcome != outcome {
                    result.mispredicted += 1;
                }
                predictor.update(pc, outcome);
            }
        } else {
            for predictor in predictors.iter_mut() {
                predictor.record_unconditional(pc);
            }
        }
    }
    timing::record_dyn(
        columns.len() as u64 * predictors.len() as u64,
        start.elapsed(),
    );
    results
}

/// Simulate retirement-time training: every prediction is made with
/// tables and history that lag the youngest `delay` branches (they are
/// still in flight). Records are replayed through the predictor in order,
/// `delay` records behind the prediction point.
///
/// This is the pessimistic no-speculative-history design point: a real
/// wide machine would checkpoint and speculatively update the history
/// register at fetch. The gap this function exposes against
/// [`run_with`] (delay 0) is the motivation for that hardware — see the
/// `ext-delay` experiment.
pub fn run_delayed(
    predictor: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
    novel_policy: NovelPolicy,
    delay: usize,
) -> RunResult {
    use std::collections::VecDeque;
    let mut result = RunResult::default();
    let mut in_flight: VecDeque<BranchRecord> = VecDeque::with_capacity(delay + 1);
    for record in records {
        if record.kind == BranchKind::Conditional {
            result.conditional += 1;
            let prediction = predictor.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            if prediction.novel {
                result.novel += 1;
            }
            let counted = !(prediction.novel && novel_policy == NovelPolicy::Exclude);
            if counted && prediction.outcome != outcome {
                result.mispredicted += 1;
            }
        }
        in_flight.push_back(record);
        if in_flight.len() > delay {
            retire(predictor, in_flight.pop_front().expect("nonempty queue"));
        }
    }
    // Drain the pipeline (no more predictions to account).
    while let Some(record) = in_flight.pop_front() {
        retire(predictor, record);
    }
    result
}

/// Run `predictor` and return the misprediction percentage of each
/// consecutive window of `window` conditional branches — the phase-level
/// view of prediction quality (context switches, working-set shifts and
/// cold starts all show up as spikes).
///
/// The final partial window is included when it holds at least one
/// branch. Novel references follow `novel_policy` exactly as in
/// [`run_with`]: under [`NovelPolicy::Exclude`] they stay in the window's
/// denominator but are never charged as mispredictions, so the mean of
/// equal-sized windows still reproduces the total-run percentage.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn run_windowed(
    predictor: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
    window: u64,
    novel_policy: NovelPolicy,
) -> Vec<f64> {
    assert!(window > 0, "window must be nonzero");
    let mut windows = Vec::new();
    let mut in_window = 0u64;
    let mut wrong = 0u64;
    for record in records {
        if record.kind == BranchKind::Conditional {
            let prediction = predictor.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            let counted = !(prediction.novel && novel_policy == NovelPolicy::Exclude);
            wrong += u64::from(counted && prediction.outcome != outcome);
            in_window += 1;
            predictor.update(record.pc, outcome);
            if in_window == window {
                windows.push(100.0 * wrong as f64 / window as f64);
                in_window = 0;
                wrong = 0;
            }
        } else {
            predictor.record_unconditional(record.pc);
        }
    }
    if in_window > 0 {
        windows.push(100.0 * wrong as f64 / in_window as f64);
    }
    windows
}

fn retire(predictor: &mut dyn BranchPredictor, record: BranchRecord) {
    if record.kind == BranchKind::Conditional {
        predictor.update(record.pc, Outcome::from(record.taken));
    } else {
        predictor.record_unconditional(record.pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::prelude::*;
    use bpred_trace::prelude::*;

    #[test]
    fn always_taken_scores_the_taken_ratio() {
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, false),
            BranchRecord::conditional(0x108, false),
            BranchRecord::unconditional(0x10c),
        ];
        let mut p = AlwaysTaken::new();
        let r = run(&mut p, records.into_iter());
        assert_eq!(r.conditional, 3);
        assert_eq!(r.mispredicted, 2);
        assert!((r.mispredict_pct() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn novel_exclusion_matches_paper_accounting() {
        // One branch, h=0: the first reference is novel; with Exclude it
        // must not be charged.
        let records = [
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, true),
        ];
        let mut ideal = Ideal::new(0, CounterKind::TwoBit).unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Exclude);
        assert_eq!(r.novel, 1);
        assert_eq!(r.mispredicted, 0);

        let mut ideal = Ideal::new(0, CounterKind::TwoBit).unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Count);
        // Counted: the novel prediction (not-taken default) is wrong.
        assert_eq!(r.mispredicted, 1);
    }

    #[test]
    fn gshare_learns_the_workload_better_than_static() {
        let len = 40_000;
        let spec = IbsBenchmark::Nroff.spec();
        let mut gshare = Gshare::new(12, 4, CounterKind::TwoBit).unwrap();
        let g = run(&mut gshare, spec.build().take_conditionals(len));
        let mut taken = AlwaysTaken::new();
        let t = run(&mut taken, spec.build().take_conditionals(len));
        assert!(
            g.mispredict_pct() < t.mispredict_pct(),
            "gshare {} >= always-taken {}",
            g.mispredict_pct(),
            t.mispredict_pct()
        );
    }

    #[test]
    fn windowed_rates_average_to_the_total() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 40_000u64;
        let window = 4_000u64;
        let mut p = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let windows = run_windowed(
            &mut p,
            spec.build().take_conditionals(len),
            window,
            NovelPolicy::Count,
        );
        assert_eq!(windows.len(), (len / window) as usize);
        let mut q = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let total = run(&mut q, spec.build().take_conditionals(len));
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        assert!(
            (mean - total.mispredict_pct()).abs() < 1e-9,
            "windowed mean {mean} vs total {}",
            total.mispredict_pct()
        );
    }

    #[test]
    fn windowed_cold_start_is_visible() {
        let spec = IbsBenchmark::Gs.spec();
        let mut p = Gshare::new(12, 8, CounterKind::TwoBit).unwrap();
        let windows = run_windowed(
            &mut p,
            spec.build().take_conditionals(100_000),
            10_000,
            NovelPolicy::Count,
        );
        assert!(
            windows[0] > *windows.last().unwrap(),
            "first (cold) window {} should exceed the last {}",
            windows[0],
            windows.last().unwrap()
        );
    }

    #[test]
    fn windowed_matches_total_under_both_policies() {
        // The windowed view is the same accounting as `run_with`, sliced:
        // with equal-sized windows the mean window rate must reproduce the
        // total percentage under Count AND Exclude. The ideal predictor
        // flags first encounters novel, so Exclude actually diverges from
        // Count here and both paths are exercised.
        let len = 20_000u64;
        let window = 2_000u64;
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let mut windowed = Ideal::new(6, CounterKind::TwoBit).unwrap();
            let windows = run_windowed(
                &mut windowed,
                IbsBenchmark::Nroff.spec().build().take_conditionals(len),
                window,
                policy,
            );
            assert_eq!(windows.len(), (len / window) as usize);
            let mut total = Ideal::new(6, CounterKind::TwoBit).unwrap();
            let r = run_with(
                &mut total,
                IbsBenchmark::Nroff.spec().build().take_conditionals(len),
                policy,
            );
            let mean = windows.iter().sum::<f64>() / windows.len() as f64;
            assert!(
                (mean - r.mispredict_pct()).abs() < 1e-9,
                "{policy:?}: windowed mean {mean} vs total {}",
                r.mispredict_pct()
            );
        }
        // Sanity: the two policies disagree on this workload (novel
        // references exist), so the loop above covered distinct paths.
        let mut a = Ideal::new(6, CounterKind::TwoBit).unwrap();
        let count = run_with(
            &mut a,
            IbsBenchmark::Nroff.spec().build().take_conditionals(len),
            NovelPolicy::Count,
        );
        let mut b = Ideal::new(6, CounterKind::TwoBit).unwrap();
        let exclude = run_with(
            &mut b,
            IbsBenchmark::Nroff.spec().build().take_conditionals(len),
            NovelPolicy::Exclude,
        );
        assert!(exclude.mispredicted < count.mispredicted);
    }

    #[test]
    fn partial_final_window_counts() {
        let mut p = AlwaysTaken::new();
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, false),
            BranchRecord::conditional(0x108, false),
        ];
        let windows = run_windowed(&mut p, records.into_iter(), 2, NovelPolicy::Count);
        assert_eq!(windows.len(), 2);
        assert!((windows[0] - 50.0).abs() < 1e-12);
        assert!((windows[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_equals_plain_run() {
        let spec = IbsBenchmark::MpegPlay.spec();
        let mut a = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let plain = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let delayed = run_delayed(
            &mut b,
            spec.build().take_conditionals(20_000),
            NovelPolicy::Count,
            0,
        );
        assert_eq!(plain, delayed);
    }

    #[test]
    fn delay_hurts_history_predictors_more_than_bimodal() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 60_000;
        let measure = |spec_str: &str, delay: usize| {
            let mut p = bpred_core::spec::parse_spec(spec_str).unwrap();
            run_delayed(
                &mut p,
                spec.build().take_conditionals(len),
                NovelPolicy::Count,
                delay,
            )
            .mispredict_pct()
        };
        let gshare_penalty = measure("gshare:n=12,h=8", 16) - measure("gshare:n=12,h=8", 0);
        let bimodal_penalty = measure("bimodal:n=12", 16) - measure("bimodal:n=12", 0);
        assert!(gshare_penalty > 0.2, "gshare penalty {gshare_penalty}");
        assert!(
            bimodal_penalty < gshare_penalty,
            "bimodal {bimodal_penalty} should suffer less than gshare {gshare_penalty}"
        );
    }

    #[test]
    fn empty_stream_is_zero() {
        let mut p = AlwaysTaken::new();
        let r = run(&mut p, std::iter::empty());
        assert_eq!(r, RunResult::default());
        assert_eq!(r.mispredict_pct(), 0.0);
    }

    #[test]
    fn warmup_excludes_cold_start() {
        let spec = IbsBenchmark::Verilog.spec();
        let mut cold = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let full = run(&mut cold, spec.build().take_conditionals(30_000));
        let mut warm = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let warmed = run_warm(
            &mut warm,
            spec.build().take_conditionals(30_000),
            NovelPolicy::Count,
            10_000,
        );
        assert_eq!(warmed.conditional, 20_000);
        assert!(
            warmed.mispredict_pct() < full.mispredict_pct(),
            "steady state {warmed:?} should beat whole-trace {full:?}"
        );
    }

    #[test]
    fn warmup_longer_than_trace_counts_nothing() {
        let mut p = AlwaysTaken::new();
        let r = run_warm(
            &mut p,
            IbsBenchmark::Verilog.spec().build().take_conditionals(100),
            NovelPolicy::Count,
            1_000,
        );
        assert_eq!(r, RunResult::default());
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = IbsBenchmark::Groff.spec();
        let mut a = Gskew::standard(8, 4).unwrap();
        let ra = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = Gskew::standard(8, 4).unwrap();
        let rb = run(&mut b, spec.build().take_conditionals(20_000));
        assert_eq!(ra, rb);
    }
}
