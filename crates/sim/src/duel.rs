//! Lockstep predictor duels with a paired significance test.
//!
//! Comparing two predictors by their overall misprediction percentages
//! hides the pairing: both saw the *same* branches. A McNemar-style
//! analysis of the per-branch discordant outcomes (A right / B wrong vs
//! A wrong / B right) gives the comparison statistical teeth — the
//! experiment harness uses it to state that the paper's orderings are
//! significant rather than noise.

use crate::engine::NovelPolicy;
use crate::kernel;
use bpred_core::error::ConfigError;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_core::spec::PredictorSpec;
use bpred_trace::record::{BranchKind, BranchRecord};
use bpred_trace::soa::TraceColumns;

/// The outcome of a lockstep duel between two predictors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DuelResult {
    /// Conditional branches both predictors predicted.
    pub branches: u64,
    /// Branches only predictor A mispredicted (B was right).
    pub only_a_wrong: u64,
    /// Branches only predictor B mispredicted (A was right).
    pub only_b_wrong: u64,
    /// Branches both mispredicted.
    pub both_wrong: u64,
}

impl DuelResult {
    /// Misprediction percentage of predictor A.
    pub fn a_pct(&self) -> f64 {
        percentage(self.only_a_wrong + self.both_wrong, self.branches)
    }

    /// Misprediction percentage of predictor B.
    pub fn b_pct(&self) -> f64 {
        percentage(self.only_b_wrong + self.both_wrong, self.branches)
    }

    /// The McNemar z statistic over the discordant pairs,
    /// `(b - c) / sqrt(b + c)`; positive means predictor A mispredicts
    /// more. |z| > 1.96 is significant at the 5 % level, > 2.58 at 1 %.
    ///
    /// Returns 0 when there are no discordant branches.
    pub fn mcnemar_z(&self) -> f64 {
        let b = self.only_a_wrong as f64;
        let c = self.only_b_wrong as f64;
        if b + c == 0.0 {
            return 0.0;
        }
        (b - c) / (b + c).sqrt()
    }

    /// `true` when B beats A significantly at the 1 % level.
    pub fn b_significantly_better(&self) -> bool {
        self.mcnemar_z() > 2.58
    }

    /// `true` when A beats B significantly at the 1 % level.
    pub fn a_significantly_better(&self) -> bool {
        self.mcnemar_z() < -2.58
    }
}

#[inline]
fn percentage(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Drive two predictors over the same record stream in lockstep and
/// tally the paired outcomes. Novel predictions are accounted per
/// `novel_policy` for both predictors symmetrically (an excluded branch
/// is excluded from the pairing entirely when *either* prediction is
/// novel, so the pairing stays balanced).
pub fn duel(
    a: &mut dyn BranchPredictor,
    b: &mut dyn BranchPredictor,
    records: impl Iterator<Item = BranchRecord>,
    novel_policy: NovelPolicy,
) -> DuelResult {
    let mut result = DuelResult::default();
    for record in records {
        if record.kind == BranchKind::Conditional {
            let pa = a.predict(record.pc);
            let pb = b.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            let excluded = novel_policy == NovelPolicy::Exclude && (pa.novel || pb.novel);
            if !excluded {
                result.branches += 1;
                let a_wrong = pa.outcome != outcome;
                let b_wrong = pb.outcome != outcome;
                match (a_wrong, b_wrong) {
                    (true, false) => result.only_a_wrong += 1,
                    (false, true) => result.only_b_wrong += 1,
                    (true, true) => result.both_wrong += 1,
                    (false, false) => {}
                }
            }
            a.update(record.pc, outcome);
            b.update(record.pc, outcome);
        } else {
            a.record_unconditional(record.pc);
            b.record_unconditional(record.pc);
        }
    }
    result
}

/// [`duel`] under [`NovelPolicy::Count`] on the simulation path of every
/// cell: each spec runs once over `cols` on its job
/// ([`kernel::run_spec_observed`]), keeping one "wrong" bit per
/// conditional record, and the two bitsets are tallied word by word.
/// Table kernels never flag a prediction novel, so for two table specs
/// the result also equals [`duel`]'s under [`NovelPolicy::Exclude`].
///
/// # Errors
///
/// Returns [`kernel::check`]'s [`ConfigError`] for an out-of-range spec.
pub fn kernel_duel(
    a: &PredictorSpec,
    b: &PredictorSpec,
    cols: &TraceColumns,
) -> Result<DuelResult, ConfigError> {
    let (a_wrong, branches) = wrong_bits(a, cols)?;
    let (b_wrong, _) = wrong_bits(b, cols)?;
    let mut result = DuelResult {
        branches,
        ..DuelResult::default()
    };
    for (&a, &b) in a_wrong.iter().zip(&b_wrong) {
        result.only_a_wrong += u64::from((a & !b).count_ones());
        result.only_b_wrong += u64::from((b & !a).count_ones());
        result.both_wrong += u64::from((a & b).count_ones());
    }
    Ok(result)
}

/// One bit per conditional record of `cols`, set where `spec`
/// mispredicts, and the number of conditional records.
fn wrong_bits(spec: &PredictorSpec, cols: &TraceColumns) -> Result<(Vec<u64>, u64), ConfigError> {
    let mut bits: Vec<u64> = Vec::with_capacity(cols.len() / 64 + 1);
    let mut word = 0u64;
    let mut at = 0u32;
    let run = kernel::run_spec_observed(spec, cols, |wrong| {
        word |= u64::from(wrong) << at;
        at += 1;
        if at == 64 {
            bits.push(word);
            (word, at) = (0, 0);
        }
    })?;
    bits.push(word);
    Ok((bits, run.conditional))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::spec::parse_spec;
    use bpred_trace::prelude::*;

    #[test]
    fn identical_predictors_never_discord() {
        let mut a = parse_spec("gshare:n=10,h=4").unwrap();
        let mut b = parse_spec("gshare:n=10,h=4").unwrap();
        let r = duel(
            &mut a,
            &mut b,
            IbsBenchmark::Verilog
                .spec()
                .build()
                .take_conditionals(20_000),
            NovelPolicy::Count,
        );
        assert_eq!(r.only_a_wrong, 0);
        assert_eq!(r.only_b_wrong, 0);
        assert!(r.both_wrong > 0);
        assert_eq!(r.mcnemar_z(), 0.0);
        assert!((r.a_pct() - r.b_pct()).abs() < 1e-12);
    }

    #[test]
    fn duel_percentages_match_solo_runs() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 30_000;
        let mut a = parse_spec("gshare:n=12,h=6").unwrap();
        let mut b = parse_spec("gskew:n=10,h=6").unwrap();
        let r = duel(
            &mut a,
            &mut b,
            spec.build().take_conditionals(len),
            NovelPolicy::Count,
        );
        let mut solo_a = parse_spec("gshare:n=12,h=6").unwrap();
        let solo = crate::engine::run(&mut solo_a, spec.build().take_conditionals(len));
        assert!((r.a_pct() - solo.mispredict_pct()).abs() < 1e-9);
    }

    #[test]
    fn big_table_beats_tiny_table_significantly() {
        let mut tiny = parse_spec("gshare:n=6,h=4").unwrap();
        let mut big = parse_spec("gshare:n=14,h=4").unwrap();
        let r = duel(
            &mut tiny,
            &mut big,
            IbsBenchmark::Gs.spec().build().take_conditionals(150_000),
            NovelPolicy::Count,
        );
        assert!(
            r.b_significantly_better(),
            "z = {:.2} should exceed 2.58",
            r.mcnemar_z()
        );
        assert!(!r.a_significantly_better());
    }

    #[test]
    fn statics_duel_deterministically() {
        let mut t = parse_spec("always-taken").unwrap();
        let mut n = parse_spec("always-nottaken").unwrap();
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, true),
            BranchRecord::conditional(0x108, false),
        ];
        let r = duel(&mut t, &mut n, records.into_iter(), NovelPolicy::Count);
        assert_eq!(r.branches, 3);
        assert_eq!(r.only_a_wrong, 1); // the not-taken branch
        assert_eq!(r.only_b_wrong, 2); // the two taken branches
        assert_eq!(r.both_wrong, 0);
        assert!(r.mcnemar_z() < 0.0, "A (always-taken) wins here");
    }

    #[test]
    fn kernel_duel_matches_the_dyn_duel() {
        let cols = bpred_trace::cache::columns(IbsBenchmark::Groff, 30_000);
        for (spec_a, spec_b) in [
            ("gshare:n=12,h=6", "gskew:n=10,h=6"),
            ("gskew:n=9,h=4,update=total", "egskew:n=9,h=8,banks=5,ctr=3"),
            ("bimodal:n=8", "bimodal:n=8"),
            ("falru:cap=64,h=4", "ideal:h=4"),
            ("setassoc:n=6,ways=2,h=4", "gshare:n=8,h=4"),
        ] {
            let parse = |s: &str| PredictorSpec::parse(s).unwrap();
            let fast = kernel_duel(&parse(spec_a), &parse(spec_b), &cols).unwrap();
            let mut a = parse_spec(spec_a).unwrap();
            let mut b = parse_spec(spec_b).unwrap();
            let slow = duel(&mut a, &mut b, cols.records(), NovelPolicy::Count);
            assert_eq!(fast, slow, "{spec_a} vs {spec_b}");
        }
        let out_of_range = PredictorSpec::parse("falru:cap=0,h=4").unwrap();
        let gshare = PredictorSpec::parse("gshare:n=8,h=4").unwrap();
        assert!(kernel_duel(&gshare, &out_of_range, &cols).is_err());
    }

    #[test]
    fn empty_duel_is_zero() {
        let mut a = parse_spec("always-taken").unwrap();
        let mut b = parse_spec("always-nottaken").unwrap();
        let r = duel(&mut a, &mut b, std::iter::empty(), NovelPolicy::Count);
        assert_eq!(r, DuelResult::default());
        assert_eq!(r.a_pct(), 0.0);
    }
}
