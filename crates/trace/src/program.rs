//! Synthetic program model: a control-flow graph of basic blocks whose
//! random walk emits a branch trace.
//!
//! A [`Program`] is a set of [`Block`]s, each ending in a control transfer.
//! A [`Walker`] executes the program: it evaluates the terminating branch's
//! [`Behavior`], emits one [`BranchRecord`] per step and follows the chosen
//! edge. Because the walk revisits blocks along structured paths (loops,
//! calls, a dispatcher), the resulting `(address, history)` reference
//! stream has the statistical shape of a real instruction trace: a small
//! number of distinct history values per branch (the paper's *substream
//! ratio*), Zipf-distributed block frequencies, and history correlation.

use crate::behavior::{Behavior, SiteState};
use crate::record::{BranchKind, BranchRecord, Sink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Index of a block within its [`Program`].
pub type BlockId = usize;

/// Maximum call-stack depth tracked by a [`Walker`]; deeper calls behave
/// like tail calls (the return address is dropped).
pub const MAX_CALL_DEPTH: usize = 64;

/// How a basic block transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// A conditional branch: `taken`/`fallthrough` successors chosen by
    /// the site's behaviour.
    Branch {
        /// Outcome model of this branch site.
        behavior: Behavior,
        /// Successor when taken.
        taken: BlockId,
        /// Successor when not taken.
        fallthrough: BlockId,
    },
    /// An unconditional jump.
    Jump {
        /// Successor block.
        target: BlockId,
    },
    /// A subroutine call; the walker pushes `return_to` on its stack.
    Call {
        /// Entry block of the callee.
        callee: BlockId,
        /// Block to resume at when the callee returns.
        return_to: BlockId,
    },
    /// Return to the most recent call site (or the program entry when the
    /// stack is empty).
    Return,
}

/// A basic block: an address and a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Address of the terminating branch instruction.
    pub pc: u64,
    /// The control transfer ending the block.
    pub terminator: Terminator,
}

/// A malformed synthetic program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no blocks.
    Empty,
    /// The entry block id is out of range.
    BadEntry(BlockId),
    /// A terminator references a block id out of range.
    BadTarget {
        /// The block whose terminator is invalid.
        block: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => f.write_str("program has no blocks"),
            ProgramError::BadEntry(e) => write!(f, "entry block {e} out of range"),
            ProgramError::BadTarget { block, target } => {
                write!(f, "block {block} targets out-of-range block {target}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A synthetic program: blocks plus an entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    blocks: Vec<Block>,
    entry: BlockId,
}

impl Program {
    /// Assemble a program from blocks, validating all edges.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] when the block list is empty, the entry is
    /// out of range, or any terminator references a missing block.
    pub fn new(blocks: Vec<Block>, entry: BlockId) -> Result<Self, ProgramError> {
        if blocks.is_empty() {
            return Err(ProgramError::Empty);
        }
        if entry >= blocks.len() {
            return Err(ProgramError::BadEntry(entry));
        }
        for (id, block) in blocks.iter().enumerate() {
            let check = |target: BlockId| {
                if target >= blocks.len() {
                    Err(ProgramError::BadTarget { block: id, target })
                } else {
                    Ok(())
                }
            };
            match block.terminator {
                Terminator::Branch {
                    taken, fallthrough, ..
                } => {
                    check(taken)?;
                    check(fallthrough)?;
                }
                Terminator::Jump { target } => check(target)?,
                Terminator::Call { callee, return_to } => {
                    check(callee)?;
                    check(return_to)?;
                }
                Terminator::Return => {}
            }
        }
        Ok(Program { blocks, entry })
    }

    /// The program's blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of static conditional branch sites.
    pub fn static_conditionals(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.terminator, Terminator::Branch { .. }))
            .count()
    }
}

/// Executes a [`Program`], yielding one [`BranchRecord`] per step.
///
/// The walker maintains its own 64-bit history register (conditional *and*
/// unconditional branches shift in, matching the predictors' view) so that
/// [`Behavior::HistoryParity`] sites see the same history a global-history
/// predictor would.
///
/// The iterator never terminates; bound it with
/// [`take_conditionals`](crate::stream::TraceSourceExt::take_conditionals)
/// or [`Iterator::take`].
#[derive(Debug, Clone)]
pub struct Walker {
    program: Program,
    states: Vec<SiteState>,
    current: BlockId,
    stack: Vec<BlockId>,
    history: u64,
    rng: SmallRng,
    kernel: bool,
}

impl Walker {
    /// Start walking `program` from its entry with the given RNG seed.
    pub fn new(program: Program, seed: u64) -> Self {
        let states = vec![SiteState::default(); program.blocks.len()];
        let current = program.entry;
        Walker {
            program,
            states,
            current,
            stack: Vec::with_capacity(MAX_CALL_DEPTH),
            history: 0,
            rng: SmallRng::seed_from_u64(seed),
            kernel: false,
        }
    }

    /// Tag every emitted record as kernel-mode.
    pub fn in_kernel(mut self) -> Self {
        self.kernel = true;
        self
    }

    /// Take one step of the walk: resolve the current block's
    /// terminator, hand its record to `sink` and follow the chosen edge.
    /// Returns whether the record was a conditional branch. This is the
    /// one walk; the record iterator and [`crate::workload::Workload::fill`]
    /// both step it.
    #[inline(always)]
    pub(crate) fn step(&mut self, sink: &mut impl Sink) -> bool {
        // The program is borrowed immutably while the site-state, RNG,
        // stack and position fields change: they are disjoint fields, so
        // nothing is cloned on this hot path.
        let block = &self.program.blocks[self.current];
        let (pc, kernel) = (block.pc, self.kernel);
        let (kind, next) = match &block.terminator {
            Terminator::Branch {
                behavior,
                taken,
                fallthrough,
            } => {
                let outcome = behavior.next_outcome(
                    &mut self.states[self.current],
                    self.history,
                    &mut self.rng,
                );
                self.current = if outcome { *taken } else { *fallthrough };
                self.history = self.history << 1 | u64::from(outcome);
                sink.conditional(pc, outcome, kernel);
                return true;
            }
            Terminator::Jump { target } => (BranchKind::Unconditional, *target),
            Terminator::Call { callee, return_to } => {
                if self.stack.len() < MAX_CALL_DEPTH {
                    self.stack.push(*return_to);
                }
                (BranchKind::Call, *callee)
            }
            Terminator::Return => (
                BranchKind::Return,
                self.stack.pop().unwrap_or(self.program.entry),
            ),
        };
        self.current = next;
        self.history = self.history << 1 | 1;
        sink.other(pc, kind, kernel);
        false
    }
}

impl Iterator for Walker {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        let mut record = None;
        self.step(&mut record);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Privilege;

    fn branch(pc: u64, behavior: Behavior, taken: BlockId, fallthrough: BlockId) -> Block {
        Block {
            pc,
            terminator: Terminator::Branch {
                behavior,
                taken,
                fallthrough,
            },
        }
    }

    /// Two-block loop: block 0 loops on itself 3 times then falls to 1;
    /// block 1 jumps back to 0.
    fn tiny_loop() -> Program {
        Program::new(
            vec![
                branch(0x100, Behavior::Loop { trip: 4 }, 0, 1),
                Block {
                    pc: 0x104,
                    terminator: Terminator::Jump { target: 0 },
                },
            ],
            0,
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_bad_edges() {
        assert_eq!(Program::new(vec![], 0), Err(ProgramError::Empty));
        let blocks = vec![branch(0x100, Behavior::Bias { taken_prob: 0.5 }, 0, 7)];
        assert_eq!(
            Program::new(blocks, 0),
            Err(ProgramError::BadTarget {
                block: 0,
                target: 7
            })
        );
        let blocks = vec![Block {
            pc: 0x100,
            terminator: Terminator::Return,
        }];
        assert_eq!(
            Program::new(blocks, 3).unwrap_err(),
            ProgramError::BadEntry(3)
        );
    }

    #[test]
    fn walker_follows_loop_structure() {
        let mut w = Walker::new(tiny_loop(), 1);
        let records: Vec<BranchRecord> = (&mut w).take(8).collect();
        // T T T N J T T T ...
        assert!(records[0].taken);
        assert!(records[1].taken);
        assert!(records[2].taken);
        assert!(!records[3].taken);
        assert_eq!(records[4].kind, BranchKind::Unconditional);
        assert!(records[5].taken);
    }

    #[test]
    fn walker_is_deterministic_per_seed() {
        let p = tiny_loop();
        let a: Vec<_> = Walker::new(p.clone(), 7).take(100).collect();
        let b: Vec<_> = Walker::new(p, 7).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn calls_and_returns_balance() {
        // entry calls block 2 (which returns), resuming at block 1,
        // which jumps back to entry.
        let p = Program::new(
            vec![
                Block {
                    pc: 0x100,
                    terminator: Terminator::Call {
                        callee: 2,
                        return_to: 1,
                    },
                },
                Block {
                    pc: 0x104,
                    terminator: Terminator::Jump { target: 0 },
                },
                Block {
                    pc: 0x200,
                    terminator: Terminator::Return,
                },
            ],
            0,
        )
        .unwrap();
        let records: Vec<_> = Walker::new(p, 1).take(6).collect();
        assert_eq!(records[0].kind, BranchKind::Call);
        assert_eq!(records[1].kind, BranchKind::Return);
        assert_eq!(records[2].kind, BranchKind::Unconditional);
        assert_eq!(records[3].kind, BranchKind::Call);
    }

    #[test]
    fn return_with_empty_stack_goes_to_entry() {
        let p = Program::new(
            vec![Block {
                pc: 0x100,
                terminator: Terminator::Return,
            }],
            0,
        )
        .unwrap();
        let records: Vec<_> = Walker::new(p, 1).take(3).collect();
        assert!(records.iter().all(|r| r.kind == BranchKind::Return));
        assert!(records.iter().all(|r| r.pc == 0x100));
    }

    #[test]
    fn kernel_walker_tags_records() {
        let w = Walker::new(tiny_loop(), 1).in_kernel();
        let records: Vec<_> = w.take(4).collect();
        assert!(records.iter().all(|r| r.privilege == Privilege::Kernel));
    }

    #[test]
    fn history_parity_sees_walker_history() {
        // Block 0: alternating pattern; block 1: parity of the last bit —
        // i.e. copies block 0's outcome.
        let p = Program::new(
            vec![
                branch(0x100, Behavior::Pattern { bits: 0b01, len: 2 }, 1, 1),
                branch(
                    0x104,
                    Behavior::HistoryParity {
                        mask: 0b1,
                        depth: 1,
                        flip_prob: 0.0,
                    },
                    0,
                    0,
                ),
            ],
            0,
        )
        .unwrap();
        let records: Vec<_> = Walker::new(p, 1).take(8).collect();
        // records: b0=T, b1 copies T, b0=N, b1 copies N, ...
        assert!(records[0].taken);
        assert!(records[1].taken);
        assert!(!records[2].taken);
        assert!(!records[3].taken);
    }

    #[test]
    fn static_conditionals_counts_branch_blocks() {
        assert_eq!(tiny_loop().static_conditionals(), 1);
    }

    #[test]
    fn deep_recursion_is_bounded() {
        // A program that calls itself forever: the stack must stay capped.
        let p = Program::new(
            vec![Block {
                pc: 0x100,
                terminator: Terminator::Call {
                    callee: 0,
                    return_to: 0,
                },
            }],
            0,
        )
        .unwrap();
        let mut w = Walker::new(p, 1);
        for _ in 0..1000 {
            let _ = w.next();
        }
        assert!(w.stack.len() <= MAX_CALL_DEPTH);
    }
}
