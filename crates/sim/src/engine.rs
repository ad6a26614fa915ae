//! The per-record simulation engine: drive any `dyn BranchPredictor` over
//! any record stream and account mispredictions.
//!
//! No cell runs here: experiments, campaigns, every CLI command and
//! `bpsim bench` run on the kernels of [`crate::kernel`]. [`run`],
//! [`run_with`] and [`run_delayed`] are the reference the kernel tests
//! compare against (driving the naive models of `tests/reference`) and
//! the API the examples drive spec-built predictors through.
//! [`NovelPolicy`] and [`RunResult`] are the accounting both paths share.

use crate::timing;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_trace::record::{BranchKind, BranchRecord};
use std::time::Instant;

/// How predictions flagged *novel* (first encounter of a substream, only
/// produced by the ideal and tagged predictors) are accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
    let start = Instant::now();
    let mut result = RunResult::default();
    let mut applications = 0u64;
    for record in records {
        applications += 1;
        if record.kind == BranchKind::Conditional {
            let prediction = predictor.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            result.conditional += 1;
            if prediction.novel {
                result.novel += 1;
            }
            let counted = !(prediction.novel && novel_policy == NovelPolicy::Exclude);
            if counted && prediction.outcome != outcome {
                result.mispredicted += 1;
            }
            predictor.update(record.pc, outcome);
        } else {
            predictor.record_unconditional(record.pc);
        }
    }
    timing::record_dyn(applications, start.elapsed());
    result
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
/// `ext-delay` experiment, which runs it on
/// [`crate::kernel::PredictorKernel::run_delayed`]; this function is that
/// kernel's oracle.
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
        let mut p = parse_spec("always-taken").unwrap();
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
        let mut ideal = parse_spec("ideal:h=0").unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Exclude);
        assert_eq!(r.novel, 1);
        assert_eq!(r.mispredicted, 0);

        let mut ideal = parse_spec("ideal:h=0").unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Count);
        // Counted: the novel prediction (not-taken default) is wrong.
        assert_eq!(r.mispredicted, 1);
    }

    #[test]
    fn gshare_learns_the_workload_better_than_static() {
        let len = 40_000;
        let spec = IbsBenchmark::Nroff.spec();
        let mut gshare = parse_spec("gshare:n=12,h=4").unwrap();
        let g = run(&mut gshare, spec.build().take_conditionals(len));
        let mut taken = parse_spec("always-taken").unwrap();
        let t = run(&mut taken, spec.build().take_conditionals(len));
        assert!(
            g.mispredict_pct() < t.mispredict_pct(),
            "gshare {} >= always-taken {}",
            g.mispredict_pct(),
            t.mispredict_pct()
        );
    }

    #[test]
    fn zero_delay_equals_plain_run() {
        let spec = IbsBenchmark::MpegPlay.spec();
        let mut a = parse_spec("gshare:n=10,h=6").unwrap();
        let plain = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = parse_spec("gshare:n=10,h=6").unwrap();
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
        let mut p = parse_spec("always-taken").unwrap();
        let r = run(&mut p, std::iter::empty());
        assert_eq!(r, RunResult::default());
        assert_eq!(r.mispredict_pct(), 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = IbsBenchmark::Groff.spec();
        let mut a = parse_spec("gskew:n=8,h=4").unwrap();
        let ra = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = parse_spec("gskew:n=8,h=4").unwrap();
        let rb = run(&mut b, spec.build().take_conditionals(20_000));
        assert_eq!(ra, rb);
    }
}
