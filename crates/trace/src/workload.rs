//! IBS-like synthetic workloads.
//!
//! The paper drives its simulations with the IBS-Ultrix traces: complete
//! user *and* operating-system branch activity captured on a MIPS
//! DECstation. Those traces are not redistributable, so this module
//! synthesizes workloads with the same *statistical shape* (see
//! `DESIGN.md`): per-benchmark static branch counts matched to Table 1,
//! Zipf-skewed branch frequencies, history-correlated and weakly biased
//! sites, multi-process interleaving and kernel bursts that multiplex a
//! second working set — the OS component responsible for the high aliasing
//! the IBS suite is known for.
//!
//! Dynamic trace lengths default to 1/8 of the paper's (Table 1) to keep
//! full sweeps laptop-fast; every harness accepts an explicit length.

use crate::gen::{BehaviorMix, ProgramParams};
use crate::program::Walker;
use crate::record::{BranchRecord, Sink};
use crate::soa::{ColumnBuilder, TraceColumns};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::RangeInclusive;

/// The default workload seed base: every benchmark's master seed is
/// `DEFAULT_SEED_BASE + benchmark index`, which is what the repo has
/// always generated — [`IbsBenchmark::spec`] pins this so default traces
/// stay byte-identical release over release.
pub const DEFAULT_SEED_BASE: u64 = 0x5EED_0000;

/// The six IBS benchmarks the paper reports (it omits `sdet` and
/// `video_play` as unremarkable; so do we).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IbsBenchmark {
    /// `groff` — GNU troff text formatter.
    Groff,
    /// `gs` — Ghostscript PostScript interpreter.
    Gs,
    /// `mpeg_play` — MPEG video decoder.
    MpegPlay,
    /// `nroff` — troff for character devices.
    Nroff,
    /// `real_gcc` — the GNU C compiler proper.
    RealGcc,
    /// `verilog` — Verilog-XL hardware simulation.
    Verilog,
}

impl IbsBenchmark {
    /// All six benchmarks, in the paper's table order.
    pub fn all() -> [IbsBenchmark; 6] {
        [
            IbsBenchmark::Groff,
            IbsBenchmark::Gs,
            IbsBenchmark::MpegPlay,
            IbsBenchmark::Nroff,
            IbsBenchmark::RealGcc,
            IbsBenchmark::Verilog,
        ]
    }

    /// The benchmark's name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            IbsBenchmark::Groff => "groff",
            IbsBenchmark::Gs => "gs",
            IbsBenchmark::MpegPlay => "mpeg_play",
            IbsBenchmark::Nroff => "nroff",
            IbsBenchmark::RealGcc => "real_gcc",
            IbsBenchmark::Verilog => "verilog",
        }
    }

    /// Look a benchmark up by its paper name.
    pub fn from_name(name: &str) -> Option<IbsBenchmark> {
        IbsBenchmark::all().into_iter().find(|b| b.name() == name)
    }

    /// Static conditional branch count from Table 1 of the paper (user +
    /// kernel), which the generator targets.
    pub fn paper_static_branches(self) -> usize {
        match self {
            IbsBenchmark::Groff => 5634,
            IbsBenchmark::Gs => 10935,
            IbsBenchmark::MpegPlay => 4752,
            IbsBenchmark::Nroff => 4480,
            IbsBenchmark::RealGcc => 16716,
            IbsBenchmark::Verilog => 3918,
        }
    }

    /// Dynamic conditional branch count from Table 1 of the paper.
    pub fn paper_dynamic_branches(self) -> u64 {
        match self {
            IbsBenchmark::Groff => 11_568_181,
            IbsBenchmark::Gs => 14_288_742,
            IbsBenchmark::MpegPlay => 8_109_029,
            IbsBenchmark::Nroff => 21_368_201,
            IbsBenchmark::RealGcc => 13_940_672,
            IbsBenchmark::Verilog => 5_692_823,
        }
    }

    /// Default simulated dynamic length: 1/8 of the paper's, keeping the
    /// inter-benchmark ratios.
    pub fn default_len(self) -> u64 {
        self.paper_dynamic_branches() / 8
    }

    /// The full synthetic workload specification for this benchmark,
    /// seeded from [`DEFAULT_SEED_BASE`].
    pub fn spec(self) -> WorkloadSpec {
        self.spec_seeded(DEFAULT_SEED_BASE)
    }

    /// As [`IbsBenchmark::spec`] with an explicit seed base: the master
    /// seed becomes `seed_base + benchmark index`, so distinct
    /// benchmarks stay decorrelated under any base. Used by the CLI's
    /// `--seed` and recorded in persisted result records.
    pub fn spec_seeded(self, seed_base: u64) -> WorkloadSpec {
        // Per-benchmark personality: behaviour mix and process structure.
        // These constants were calibrated against Table 2 of the paper
        // (substream ratio and unaliased misprediction, 4- and 12-bit
        // histories); see EXPERIMENTS.md for the resulting fidelity.
        let (mix, processes, routines, zipf) = match self {
            IbsBenchmark::Groff => (
                BehaviorMix {
                    loops: 0.30,
                    strong_bias: 0.47,
                    weak_bias: 0.015,
                    correlated: 0.13,
                    pattern: 0.035,
                    correlated_depth: 2..=10,
                    ..BehaviorMix::default()
                },
                1,
                56,
                1.0,
            ),
            IbsBenchmark::Gs => (
                BehaviorMix {
                    loops: 0.27,
                    strong_bias: 0.44,
                    weak_bias: 0.04,
                    correlated: 0.155,
                    pattern: 0.04,
                    correlated_depth: 2..=12,
                    ..BehaviorMix::default()
                },
                2,
                64,
                1.05,
            ),
            IbsBenchmark::MpegPlay => (
                BehaviorMix {
                    loops: 0.26,
                    strong_bias: 0.37,
                    weak_bias: 0.07,
                    correlated: 0.19,
                    pattern: 0.04,
                    correlated_depth: 5..=12,
                    weak_bias_band: 0.70..=0.88,
                    ..BehaviorMix::default()
                },
                1,
                44,
                1.1,
            ),
            IbsBenchmark::Nroff => (
                BehaviorMix {
                    loops: 0.32,
                    strong_bias: 0.52,
                    weak_bias: 0.015,
                    correlated: 0.09,
                    pattern: 0.03,
                    correlated_depth: 2..=8,
                    ..BehaviorMix::default()
                },
                1,
                48,
                1.1,
            ),
            IbsBenchmark::RealGcc => (
                BehaviorMix {
                    loops: 0.24,
                    strong_bias: 0.39,
                    weak_bias: 0.055,
                    correlated: 0.21,
                    pattern: 0.05,
                    correlated_depth: 3..=12,
                    ..BehaviorMix::default()
                },
                2,
                110,
                0.8,
            ),
            IbsBenchmark::Verilog => (
                BehaviorMix {
                    loops: 0.28,
                    strong_bias: 0.46,
                    weak_bias: 0.03,
                    correlated: 0.15,
                    pattern: 0.04,
                    correlated_depth: 2..=10,
                    ..BehaviorMix::default()
                },
                1,
                40,
                1.05,
            ),
        };

        const KERNEL_STATIC: usize = 1200;
        let user_static = (self.paper_static_branches().saturating_sub(KERNEL_STATIC)) / processes;
        let user_programs = (0..processes)
            .map(|p| ProgramParams {
                base_pc: 0x0040_0000 + 0x0100_0000 * p as u64,
                target_conditionals: user_static.max(routines),
                routines,
                mix: mix.clone(),
                zipf_exponent: zipf,
                calls_per_routine: 0.5,
                jump_fraction: 0.34,
            })
            .collect();

        WorkloadSpec {
            name: self.name().to_string(),
            seed: seed_base.wrapping_add(self as u64),
            user_programs,
            kernel_program: Some(ProgramParams {
                base_pc: 0x8000_0000,
                target_conditionals: KERNEL_STATIC,
                routines: 24,
                mix: BehaviorMix {
                    loops: 0.27,
                    strong_bias: 0.50,
                    weak_bias: 0.03,
                    correlated: 0.12,
                    pattern: 0.04,
                    correlated_depth: 2..=8,
                    ..BehaviorMix::default()
                },
                zipf_exponent: 1.0,
                calls_per_routine: 0.4,
                jump_fraction: 0.34,
            }),
            kernel_entry_prob: 0.0015,
            kernel_burst: 40..=200,
            time_slice: 30_000,
        }
    }
}

impl fmt::Display for IbsBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full description of a synthetic workload: user process programs, an
/// optional kernel program, and the interleaving schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (used in reports).
    pub name: String,
    /// Master RNG seed; everything below derives from it.
    pub seed: u64,
    /// One program per user process.
    pub user_programs: Vec<ProgramParams>,
    /// Kernel program interleaved in bursts, if any.
    pub kernel_program: Option<ProgramParams>,
    /// Per-user-branch probability of entering a kernel burst.
    pub kernel_entry_prob: f64,
    /// Burst length range (in branch records).
    pub kernel_burst: RangeInclusive<u32>,
    /// User branches per process time slice (round-robin).
    pub time_slice: u64,
}

impl WorkloadSpec {
    /// Instantiate the workload: generate all programs and build the
    /// interleaving iterator.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no user programs.
    pub fn build(&self) -> Workload {
        assert!(
            !self.user_programs.is_empty(),
            "workload needs at least one user program"
        );
        let users: Vec<Walker> = self
            .user_programs
            .iter()
            .enumerate()
            .map(|(i, params)| {
                Walker::new(
                    params.generate(self.seed ^ (0xA11CE + i as u64)),
                    self.seed + i as u64,
                )
            })
            .collect();
        let kernel = self.kernel_program.as_ref().map(|params| {
            Walker::new(params.generate(self.seed ^ 0xBEEF), self.seed ^ 0xF00D).in_kernel()
        });
        Workload {
            users,
            kernel,
            active: 0,
            slice_left: self.time_slice.max(1),
            burst_left: 0,
            kernel_entry_prob: self.kernel_entry_prob,
            kernel_burst: self.kernel_burst.clone(),
            time_slice: self.time_slice.max(1),
            rng: SmallRng::seed_from_u64(self.seed ^ 0x5C4ED),
        }
    }
}

/// A running workload: an infinite stream of interleaved user and kernel
/// branch records.
#[derive(Debug, Clone)]
pub struct Workload {
    users: Vec<Walker>,
    kernel: Option<Walker>,
    active: usize,
    slice_left: u64,
    burst_left: u32,
    kernel_entry_prob: f64,
    kernel_burst: RangeInclusive<u32>,
    time_slice: u64,
    rng: SmallRng,
}

impl Workload {
    /// The trace's next `conditionals` conditional branches, with every
    /// other record before the last of them, as columns: the next
    /// records [`TraceSourceExt::take_conditionals`] would yield, built
    /// with no record in between. The walk stops right after the last
    /// conditional record, so a later `fill` continues the same trace,
    /// and the random numbers drawn are the record iterator's.
    ///
    /// [`TraceSourceExt::take_conditionals`]: crate::stream::TraceSourceExt::take_conditionals
    pub fn fill(&mut self, conditionals: u64) -> TraceColumns {
        ColumnBuilder::walk(conditionals, |columns| self.step(columns))
    }

    /// Take one step: a record of the kernel burst in progress, or of a
    /// newly entered one, or else of the active user process. Returns
    /// whether it was a conditional branch.
    #[inline(always)]
    pub(crate) fn step(&mut self, sink: &mut impl Sink) -> bool {
        if let Some(kernel) = &mut self.kernel {
            if self.burst_left > 0 {
                self.burst_left -= 1;
                return kernel.step(sink);
            }
            if self.kernel_entry_prob > 0.0 && self.rng.gen_bool(self.kernel_entry_prob) {
                self.burst_left = self.rng.gen_range(self.kernel_burst.clone());
                return kernel.step(sink);
            }
        }
        let conditional = self.users[self.active].step(sink);
        self.slice_left -= 1;
        if self.slice_left == 0 {
            self.active = (self.active + 1) % self.users.len();
            self.slice_left = self.time_slice;
        }
        conditional
    }
}

impl Iterator for Workload {
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
    use crate::record::{BranchKind, Privilege};
    use crate::stream::TraceSourceExt;
    use std::collections::HashSet;

    #[test]
    fn six_benchmarks_with_paper_constants() {
        assert_eq!(IbsBenchmark::all().len(), 6);
        let total_static: usize = IbsBenchmark::all()
            .iter()
            .map(|b| b.paper_static_branches())
            .sum();
        assert_eq!(total_static, 5634 + 10935 + 4752 + 4480 + 16716 + 3918);
        assert_eq!(IbsBenchmark::Nroff.paper_dynamic_branches(), 21_368_201);
    }

    #[test]
    fn names_roundtrip() {
        for b in IbsBenchmark::all() {
            assert_eq!(IbsBenchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(IbsBenchmark::from_name("sdet"), None);
    }

    #[test]
    fn default_seed_is_pinned_and_byte_identical() {
        // `spec()` must keep producing the traces this repo has always
        // produced: the default base is 0x5EED_0000 and an explicit
        // `spec_seeded` at that base is the identical spec (hence
        // byte-identical traces).
        assert_eq!(DEFAULT_SEED_BASE, 0x5EED_0000);
        for (i, b) in IbsBenchmark::all().into_iter().enumerate() {
            assert_eq!(b.spec().seed, 0x5EED_0000 + i as u64);
            assert_eq!(b.spec(), b.spec_seeded(DEFAULT_SEED_BASE));
        }
        let default: Vec<_> = IbsBenchmark::Groff.spec().build().take(2_000).collect();
        let explicit: Vec<_> = IbsBenchmark::Groff
            .spec_seeded(DEFAULT_SEED_BASE)
            .build()
            .take(2_000)
            .collect();
        assert_eq!(default, explicit);
    }

    #[test]
    fn explicit_seed_changes_the_trace_but_stays_deterministic() {
        let a: Vec<_> = IbsBenchmark::Groff
            .spec_seeded(0xABCD)
            .build()
            .take(2_000)
            .collect();
        let b: Vec<_> = IbsBenchmark::Groff
            .spec_seeded(0xABCD)
            .build()
            .take(2_000)
            .collect();
        assert_eq!(a, b, "same seed, same trace");
        let c: Vec<_> = IbsBenchmark::Groff.spec().build().take(2_000).collect();
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn workload_is_deterministic() {
        let spec = IbsBenchmark::Groff.spec();
        let a: Vec<_> = spec.build().take(5_000).collect();
        let b: Vec<_> = spec.build().take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn workloads_differ_across_benchmarks() {
        let a: Vec<_> = IbsBenchmark::Groff.spec().build().take(1_000).collect();
        let b: Vec<_> = IbsBenchmark::Verilog.spec().build().take(1_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn kernel_bursts_present() {
        let spec = IbsBenchmark::Groff.spec();
        let records: Vec<_> = spec.build().take(200_000).collect();
        let kernel = records
            .iter()
            .filter(|r| r.privilege == Privilege::Kernel)
            .count();
        let frac = kernel as f64 / records.len() as f64;
        assert!(
            (0.05..0.5).contains(&frac),
            "kernel fraction {frac} out of the plausible band"
        );
    }

    #[test]
    fn multi_process_workload_switches_address_spaces() {
        let spec = IbsBenchmark::Gs.spec(); // 2 processes
        assert!(spec.user_programs.len() == 2);
        let records: Vec<_> = spec.build().take(200_000).collect();
        let mut spaces = HashSet::new();
        for r in &records {
            spaces.insert(r.pc >> 24);
        }
        assert!(
            spaces.len() >= 3,
            "expected >= 2 user spaces + kernel, got {spaces:?}"
        );
    }

    #[test]
    fn mostly_conditional_branches() {
        let records: Vec<_> = IbsBenchmark::Nroff.spec().build().take(100_000).collect();
        let cond = records
            .iter()
            .filter(|r| r.kind == BranchKind::Conditional)
            .count();
        let frac = cond as f64 / records.len() as f64;
        assert!(frac > 0.5, "conditional fraction {frac}");
    }

    #[test]
    fn take_conditionals_bounds_workloads() {
        let n = 10_000;
        let cond = IbsBenchmark::MpegPlay
            .spec()
            .build()
            .take_conditionals(n)
            .filter(|r| r.kind == BranchKind::Conditional)
            .count() as u64;
        assert_eq!(cond, n);
    }

    #[test]
    fn static_site_counts_track_table1() {
        // The *generated* program's static conditional count should land
        // within ±30% of the Table 1 target.
        for b in IbsBenchmark::all() {
            let spec = b.spec();
            let mut total = 0usize;
            for p in &spec.user_programs {
                total += p.generate(spec.seed).static_conditionals();
            }
            if let Some(k) = &spec.kernel_program {
                total += k.generate(spec.seed ^ 0xBEEF).static_conditionals();
            }
            let target = b.paper_static_branches();
            assert!(
                (target * 6 / 10..=target * 14 / 10).contains(&total),
                "{b}: target {target}, generated {total}"
            );
        }
    }
}
