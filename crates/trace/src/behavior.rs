//! Stochastic behaviour models for synthetic branch sites.
//!
//! Each static conditional branch in a synthetic program is assigned one of
//! these behaviours. The mix is what shapes the workload's predictability
//! profile:
//!
//! * [`Behavior::Bias`] — independent Bernoulli outcomes. Weakly biased
//!   sites create the irreducible misprediction floor that even the ideal
//!   unaliased predictor of Table 2 cannot remove.
//! * [`Behavior::Loop`] — the classic loop backward branch: taken
//!   `trip - 1` times, then not-taken once. The loop exit is predictable
//!   from history when the trip count fits in the history register, which
//!   is one of the reasons longer histories help (Table 2, 4-bit vs
//!   12-bit).
//! * [`Behavior::Pattern`] — a deterministic periodic pattern.
//! * [`Behavior::HistoryParity`] — the outcome is a (possibly noisy)
//!   boolean function of recent *global* history bits, the canonical model
//!   of correlated branches (Pan, So & Rahmeh). Sites with correlation
//!   depth above the history length look random to the predictor; below
//!   it, they are fully predictable. Sweeping history length across the
//!   site population reproduces the history-length tradeoff of figures 7
//!   and 12.
//! * [`Behavior::Phased`] — bias that flips between two phases, modeling
//!   inputs or program phases changing branch behaviour over time.

use rand::rngs::SmallRng;
use rand::Rng;

/// The behaviour model of one static conditional branch site.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Taken with fixed probability, independently each execution.
    Bias {
        /// Probability the branch is taken.
        taken_prob: f64,
    },
    /// Loop backward branch: taken `trip - 1` consecutive times, then
    /// not-taken once (loop exit), repeating.
    Loop {
        /// Iterations per loop entry; must be at least 1.
        trip: u32,
    },
    /// Deterministic periodic pattern, LSB first.
    Pattern {
        /// The pattern bits (bit 0 executed first).
        bits: u64,
        /// Period length in bits (1..=64).
        len: u8,
    },
    /// Outcome is the parity of selected recent global-history bits,
    /// flipped with probability `flip_prob` (noise).
    HistoryParity {
        /// Mask over the walker's global history register; only bits
        /// within the lowest `depth` positions should be set.
        mask: u64,
        /// Correlation depth — the highest history position the mask uses,
        /// recorded so analyses can relate depth to history length.
        depth: u32,
        /// Probability the correlated outcome is inverted (noise).
        flip_prob: f64,
    },
    /// Bias that alternates between two values every `period` executions.
    Phased {
        /// Taken probability in each of the two phases.
        taken_prob: [f64; 2],
        /// Executions per phase; must be at least 1.
        period: u32,
    },
}

/// Mutable per-site execution state (loop position, phase counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteState {
    counter: u32,
}

impl Behavior {
    /// Compute the next outcome at this site.
    ///
    /// `global_history` is the walker's history register (bit 0 = most
    /// recent branch, conditional and unconditional alike), used by
    /// correlated behaviours.
    pub fn next_outcome(
        &self,
        state: &mut SiteState,
        global_history: u64,
        rng: &mut SmallRng,
    ) -> bool {
        match *self {
            Behavior::Bias { taken_prob } => rng.gen_bool(taken_prob),
            Behavior::Loop { trip } => {
                debug_assert!(trip >= 1);
                state.counter += 1;
                if state.counter >= trip {
                    state.counter = 0;
                    false // loop exit
                } else {
                    true
                }
            }
            Behavior::Pattern { bits, len } => {
                debug_assert!((1..=64).contains(&len));
                let bit = (bits >> (state.counter as u64 % u64::from(len))) & 1;
                state.counter = state.counter.wrapping_add(1);
                bit == 1
            }
            Behavior::HistoryParity {
                mask, flip_prob, ..
            } => {
                let parity = (global_history & mask).count_ones() % 2 == 1;
                if flip_prob > 0.0 && rng.gen_bool(flip_prob) {
                    !parity
                } else {
                    parity
                }
            }
            Behavior::Phased { taken_prob, period } => {
                debug_assert!(period >= 1);
                let phase = (state.counter / period) % 2;
                state.counter = state.counter.wrapping_add(1);
                rng.gen_bool(taken_prob[phase as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn loop_behavior_cycles() {
        let b = Behavior::Loop { trip: 4 };
        let mut s = SiteState::default();
        let mut r = rng();
        let outcomes: Vec<bool> = (0..8).map(|_| b.next_outcome(&mut s, 0, &mut r)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn loop_trip_one_never_taken() {
        let b = Behavior::Loop { trip: 1 };
        let mut s = SiteState::default();
        let mut r = rng();
        assert!((0..5).all(|_| !b.next_outcome(&mut s, 0, &mut r)));
    }

    #[test]
    fn pattern_repeats() {
        let b = Behavior::Pattern {
            bits: 0b0110,
            len: 4,
        };
        let mut s = SiteState::default();
        let mut r = rng();
        let outcomes: Vec<bool> = (0..8).map(|_| b.next_outcome(&mut s, 0, &mut r)).collect();
        assert_eq!(
            outcomes,
            vec![false, true, true, false, false, true, true, false]
        );
    }

    #[test]
    fn bias_respects_probability() {
        let b = Behavior::Bias { taken_prob: 0.9 };
        let mut s = SiteState::default();
        let mut r = rng();
        let taken = (0..10_000)
            .filter(|_| b.next_outcome(&mut s, 0, &mut r))
            .count();
        assert!((8_800..9_200).contains(&taken), "taken={taken}");
    }

    #[test]
    fn history_parity_is_deterministic_without_noise() {
        let b = Behavior::HistoryParity {
            mask: 0b101,
            depth: 3,
            flip_prob: 0.0,
        };
        let mut s = SiteState::default();
        let mut r = rng();
        assert!(!b.next_outcome(&mut s, 0b000, &mut r));
        assert!(b.next_outcome(&mut s, 0b001, &mut r));
        assert!(!b.next_outcome(&mut s, 0b101, &mut r));
        assert!(b.next_outcome(&mut s, 0b100, &mut r));
        // Bits outside the mask are ignored.
        assert!(b.next_outcome(&mut s, 0b1100, &mut r));
    }

    #[test]
    fn phased_switches_bias() {
        let b = Behavior::Phased {
            taken_prob: [1.0, 0.0],
            period: 3,
        };
        let mut s = SiteState::default();
        let mut r = rng();
        let outcomes: Vec<bool> = (0..9).map(|_| b.next_outcome(&mut s, 0, &mut r)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, false, false, true, true, true]
        );
    }
}
