//! The figure 11 pipeline: extrapolate the gskew misprediction rate from
//! measured last-use distances and compare against simulation.
//!
//! The paper's procedure (section 5.2):
//!
//! 1. measure the bias `b` over the whole trace (density of static
//!    `(address, history)` pairs biased taken);
//! 2. re-walk the trace, measuring the last-use distance `D` of every
//!    dynamic reference, convert it to a per-bank aliasing probability
//!    with formula (1) (`p = 1` for first encounters), and average
//!    formula (3);
//! 3. add the unaliased misprediction rate of the 1-bit ideal predictor
//!    (Table 2) — compulsory encounters only contribute through the
//!    overhead term.
//!
//! The model assumes 1-bit automatons and *total* update, and is expected
//! to slightly **over**-estimate the simulated rate because constructive
//! aliasing is not modeled.

use bpred_aliasing::bias::BiasStats;
use bpred_aliasing::cursor::for_each_vector;
use bpred_core::lru::LastUseDistance;
use bpred_trace::soa::TraceColumns;

use crate::prob::aliasing_probability;
use crate::skew::p_sk;

/// The result of an extrapolation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrapolation {
    /// Measured bias `b` (static pairs biased taken).
    pub bias: f64,
    /// Unaliased 1-bit misprediction rate (compulsory excluded).
    pub unaliased_rate: f64,
    /// Average of formula (3) over all dynamic references.
    pub aliasing_overhead: f64,
    /// `unaliased_rate + aliasing_overhead` — the figure 11 estimate.
    pub extrapolated_rate: f64,
    /// Dynamic conditional branches processed.
    pub references: u64,
}

/// Configured extrapolator for one gskew geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extrapolator {
    /// Entries per bank of the modeled 3-bank skewed predictor.
    pub bank_entries: u64,
    /// Global history length in bits.
    pub history_bits: u32,
}

impl Extrapolator {
    /// Run the two-pass pipeline over a whole trace. A one-size call of
    /// [`extrapolate_sizes`].
    ///
    /// # Panics
    ///
    /// Panics if `bank_entries` is zero.
    pub fn run(&self, cols: &TraceColumns) -> Extrapolation {
        extrapolate_sizes(&[self.bank_entries], self.history_bits, cols)[0]
    }
}

/// Run the two-pass pipeline once for several bank sizes: one entry of
/// the result per entry of `bank_entries`, in order.
///
/// The bias, the last-use distances and the unaliased 1-bit base rate do
/// not depend on the bank size, so both passes walk the trace once; only
/// the overhead sum is kept per size. Each sum is accumulated over the
/// references in trace order, exactly as a one-size run accumulates it,
/// so every result is bit-identical to [`Extrapolator::run`] at that
/// size.
///
/// # Panics
///
/// Panics if any bank size is zero.
pub fn extrapolate_sizes(
    bank_entries: &[u64],
    history_bits: u32,
    cols: &TraceColumns,
) -> Vec<Extrapolation> {
    assert!(
        bank_entries.iter().all(|&entries| entries > 0),
        "bank size must be nonzero"
    );

    // Pass 1: bias over the entire trace.
    let bias = BiasStats::new(history_bits).run(cols);
    let b = bias.static_bias_taken();

    // Pass 2: last-use distances, overhead per size, and the unaliased
    // 1-bit base rate, in one walk. Each pair gets a dense id on first
    // use; a 1-bit automaton per pair predicts the pair's last outcome,
    // held at `last_outcome[id]`.
    let mut distances = LastUseDistance::<u32>::with_payload();
    let mut last_outcome: Vec<bool> = Vec::new();
    let width = bank_entries.len();
    let mut overhead_sums = vec![0.0f64; width];
    // Formula (3) depends on the distance alone, so each term is
    // computed once per distinct distance and size: row `d` of this flat
    // table holds `p_sk(aliasing_probability(d, N), b)` for every size
    // `N`, and NaN (never a term's value) until distance `d` first
    // occurs. Adding the cached terms in trace order keeps every sum
    // bit-identical to evaluating them in place.
    let mut terms: Vec<f64> = Vec::new();
    // First encounter: the paper applies formula (3) with p = 1.
    let first_use = p_sk(1.0, b);
    let mut unaliased_misses = 0u64;
    let references = cols.conditional_count();

    for_each_vector(cols, history_bits, |v, taken| {
        let fresh = last_outcome.len() as u32;
        let (distance, id) = distances.observe_with(v.pair(), || fresh);
        match distance {
            Some(d) => {
                let row = d as usize * width;
                if terms.len() < row + width {
                    terms.resize(row + width, f64::NAN);
                }
                let row = &mut terms[row..row + width];
                if width > 0 && row[0].is_nan() {
                    for (term, &entries) in row.iter_mut().zip(bank_entries) {
                        *term = p_sk(aliasing_probability(d, entries), b);
                    }
                }
                for (sum, term) in overhead_sums.iter_mut().zip(row.iter()) {
                    *sum += term;
                }
                let last = &mut last_outcome[id as usize];
                unaliased_misses += u64::from(*last != taken);
                *last = taken;
            }
            None => {
                for sum in &mut overhead_sums {
                    *sum += first_use;
                }
                // A first use is novel: not charged.
                last_outcome.push(taken);
            }
        }
    });

    let refs_f = references.max(1) as f64;
    let unaliased_rate = unaliased_misses as f64 / refs_f;
    overhead_sums
        .iter()
        .map(|&overhead_sum| {
            let aliasing_overhead = overhead_sum / refs_f;
            Extrapolation {
                bias: b,
                unaliased_rate,
                aliasing_overhead,
                extrapolated_rate: unaliased_rate + aliasing_overhead,
                references,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::vector::InfoVector;
    use bpred_trace::prelude::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn run(bank_entries: u64, len: u64) -> Extrapolation {
        Extrapolator {
            bank_entries,
            history_bits: 4,
        }
        .run(&IbsBenchmark::Verilog.spec().build().fill(len))
    }

    #[test]
    fn produces_sane_rates() {
        let e = run(1024, 50_000);
        assert_eq!(e.references, 50_000);
        assert!((0.0..=1.0).contains(&e.bias));
        assert!(e.bias > 0.3, "most pairs lean taken-or-not plausibly");
        assert!(e.unaliased_rate > 0.0 && e.unaliased_rate < 0.3);
        assert!(e.aliasing_overhead >= 0.0);
        assert!((e.extrapolated_rate - e.unaliased_rate - e.aliasing_overhead).abs() < 1e-12);
    }

    #[test]
    fn bigger_banks_shrink_overhead() {
        let small = run(256, 50_000);
        let large = run(8192, 50_000);
        assert!(
            large.aliasing_overhead < small.aliasing_overhead,
            "{} !< {}",
            large.aliasing_overhead,
            small.aliasing_overhead
        );
        // The unaliased base rate does not depend on the bank size.
        assert!((large.unaliased_rate - small.unaliased_rate).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(1024, 20_000), run(1024, 20_000));
    }

    #[test]
    fn batched_sizes_match_per_size_runs_bit_for_bit() {
        // Figure 11's nine bank sizes plus the degenerate one-entry bank.
        let sizes: Vec<u64> = (6..=14).map(|n| 1u64 << n).chain([1]).collect();
        let trace = IbsBenchmark::Groff.spec().build().fill(30_000);
        let batched = extrapolate_sizes(&sizes, 4, &trace);
        assert_eq!(batched.len(), sizes.len());
        for (&bank_entries, got) in sizes.iter().zip(&batched) {
            let want = Extrapolator {
                bank_entries,
                history_bits: 4,
            }
            .run(&trace);
            let bits = |e: &Extrapolation| {
                [
                    e.bias.to_bits(),
                    e.unaliased_rate.to_bits(),
                    e.aliasing_overhead.to_bits(),
                    e.extrapolated_rate.to_bits(),
                    e.references,
                ]
            };
            assert_eq!(bits(got), bits(&want), "bank_entries {bank_entries}");
        }
        // `aliasing_overhead` and `extrapolated_rate` bits of the
        // one-size-per-walk pipeline this batch replaced, at bank sizes
        // 1, 64, 1024 and 16384 (bias 0x3fe6222222222222, unaliased rate
        // 0x3fb5a3f9fe16aa1f at every size).
        let pinned: [(u64, u64, u64); 4] = [
            (1, 0x3fd62ed29c21f5fa, 0x3fdb97d11ba7a082),
            (64, 0x3fb70500930d0f5a, 0x3fc6547d4891dcbc),
            (1024, 0x3fa0f888e1aa88e9, 0x3fbe203e6eebee94),
            (16384, 0x3f96bed223eb72aa, 0x3fbb53ae871186ca),
        ];
        for (bank_entries, overhead, rate) in pinned {
            let at = sizes.iter().position(|&s| s == bank_entries).unwrap();
            let e = &batched[at];
            assert_eq!(e.bias.to_bits(), 0x3fe6222222222222);
            assert_eq!(e.unaliased_rate.to_bits(), 0x3fb5a3f9fe16aa1f);
            assert_eq!(e.aliasing_overhead.to_bits(), overhead, "{bank_entries}");
            assert_eq!(e.extrapolated_rate.to_bits(), rate, "{bank_entries}");
        }
    }

    /// Section 5.2's two passes written plainly over records, with a
    /// history register of the walk's own: the bias over every pair, then
    /// a last-use distance from an explicit LRU stack per reference.
    fn naive(records: &[BranchRecord], sizes: &[u64], h: u32) -> Vec<Extrapolation> {
        let mut refs = Vec::new();
        let mut history = 0u64;
        for r in records {
            if r.kind.is_conditional() {
                refs.push((InfoVector::new(r.pc, history, h).pair(), r.taken));
            }
            history = history << 1 | u64::from(!r.kind.is_conditional() || r.taken);
        }
        let mut tallies: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        for &(pair, taken) in &refs {
            let tally = tallies.entry(pair).or_default();
            *tally = (tally.0 + u64::from(taken), tally.1 + 1);
        }
        let biased = tallies.values().filter(|(taken, n)| 2 * taken >= *n);
        let b = biased.count() as f64 / tallies.len() as f64;
        let (mut stack, mut last) = (Vec::new(), HashMap::new());
        let (mut sums, mut misses) = (vec![0.0f64; sizes.len()], 0u64);
        for &(pair, taken) in &refs {
            let distance = stack.iter().rposition(|&p| p == pair).map(|at| {
                stack.remove(at);
                (stack.len() - at) as u64
            });
            stack.push(pair);
            for (sum, &entries) in sums.iter_mut().zip(sizes) {
                *sum += p_sk(
                    distance.map_or(1.0, |d| aliasing_probability(d, entries)),
                    b,
                );
            }
            misses += u64::from(last.insert(pair, taken).is_some_and(|was| was != taken));
        }
        let references = refs.len() as u64;
        let unaliased_rate = misses as f64 / references as f64;
        let extrapolation = |sum: f64| Extrapolation {
            bias: b,
            unaliased_rate,
            aliasing_overhead: sum / references as f64,
            extrapolated_rate: unaliased_rate + sum / references as f64,
            references,
        };
        sums.into_iter().map(extrapolation).collect()
    }

    proptest! {
        #[test]
        fn column_fed_extrapolation_matches_a_naive_walk(
            raw in proptest::collection::vec(
                (0u64..40, any::<bool>(), prop_oneof![0u64..3, 30u64..151]),
                1..300,
            ),
            h in 0u32..=64,
        ) {
            // Conditional pcs on both sides of 2^32, each followed by a
            // run of other records, some longer than 32 and 64 bits of
            // history.
            let mut records = Vec::new();
            for (slot, taken, run) in raw {
                records.push(BranchRecord::conditional(0xffff_ffb0 + 4 * slot, taken));
                records.extend((0..run).map(|i| BranchRecord::unconditional(0x500_0000 + 4 * i)));
            }
            let sizes = [1, 16, 64, 1024];
            // The sums run in the same order, so the rates are equal,
            // not just close.
            let cols = TraceColumns::from_records(&records);
            prop_assert_eq!(extrapolate_sizes(&sizes, h, &cols), naive(&records, &sizes, h));
        }
    }
}
