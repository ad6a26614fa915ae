//! Calibration regression net: the synthetic workloads were tuned against
//! Table 1/2 of the paper (see DESIGN.md §2 and EXPERIMENTS.md). These
//! tests pin the tuned statistics inside generous bands so that future
//! edits to the generator or the presets cannot silently drift the
//! reproduction.
//!
//! Bands are intentionally wide (the goal is catching structural
//! regressions, not freezing noise); measured at 300k conditionals.

use bpred_trace::prelude::*;
use bpred_trace::record::Privilege;

const LEN: u64 = 300_000;

fn stats(bench: IbsBenchmark) -> TraceStats {
    TraceStats::collect([bench.spec().build().fill(LEN)])
}

#[test]
fn static_counts_track_table1_ordering() {
    let counts: Vec<(IbsBenchmark, u64)> = IbsBenchmark::all()
        .into_iter()
        .map(|b| (b, stats(b).static_conditional))
        .collect();
    // real_gcc must be the largest, verilog among the smallest — the
    // Table 1 ordering that drives the capacity-aliasing differences.
    let gcc = counts
        .iter()
        .find(|(b, _)| *b == IbsBenchmark::RealGcc)
        .unwrap()
        .1;
    for &(b, c) in &counts {
        if b != IbsBenchmark::RealGcc {
            assert!(gcc > c, "real_gcc {gcc} should exceed {b} {c}");
        }
    }
    let verilog = counts
        .iter()
        .find(|(b, _)| *b == IbsBenchmark::Verilog)
        .unwrap()
        .1;
    assert!(
        verilog < gcc / 2,
        "verilog {verilog} should be far below real_gcc {gcc}"
    );
}

#[test]
fn taken_ratio_in_integer_code_band() {
    for b in IbsBenchmark::all() {
        let ratio = stats(b).taken_ratio();
        assert!(
            (0.60..0.85).contains(&ratio),
            "{b}: taken ratio {ratio} outside the integer-code band"
        );
    }
}

#[test]
fn kernel_share_matches_ibs_character() {
    for b in IbsBenchmark::all() {
        let ratio = stats(b).kernel_ratio();
        assert!(
            (0.08..0.30).contains(&ratio),
            "{b}: kernel share {ratio} out of band"
        );
    }
}

#[test]
fn conditional_fraction_is_realistic() {
    for b in IbsBenchmark::all() {
        let s = stats(b);
        let frac =
            s.dynamic_conditional as f64 / (s.dynamic_conditional + s.dynamic_unconditional) as f64;
        assert!(
            (0.5..0.8).contains(&frac),
            "{b}: conditional fraction {frac} out of band \
             (real traces carry 25-40% unconditional transfers)"
        );
    }
}

#[test]
fn substream_ratios_within_calibrated_bands() {
    use bpred_aliasing_free::SubstreamProbe;
    for b in IbsBenchmark::all() {
        let probe = SubstreamProbe::measure(b, LEN);
        assert!(
            (2.0..4.5).contains(&probe.h4),
            "{b}: substream ratio h=4 {:.2} drifted (paper 1.8-2.4, calibrated ~2.6-3.6)",
            probe.h4
        );
        assert!(
            (6.0..20.0).contains(&probe.h12),
            "{b}: substream ratio h=12 {:.2} drifted (paper 5.7-12.9, calibrated ~8.5-15.3)",
            probe.h12
        );
        assert!(
            probe.h12 > 2.0 * probe.h4,
            "{b}: h=12 substreams should multiply h=4's ({:.2} vs {:.2})",
            probe.h12,
            probe.h4
        );
    }
}

/// A minimal substream-ratio probe local to this test (the full machinery
/// lives in `bpred-aliasing`, which depends on this crate — no cycles).
mod bpred_aliasing_free {
    use super::*;
    use std::collections::HashSet;

    pub struct SubstreamProbe {
        pub h4: f64,
        pub h12: f64,
    }

    impl SubstreamProbe {
        pub fn measure(bench: IbsBenchmark, len: u64) -> SubstreamProbe {
            let mut hist = 0u64;
            let mut pairs4: HashSet<(u64, u64)> = HashSet::new();
            let mut pairs12: HashSet<(u64, u64)> = HashSet::new();
            let mut addrs: HashSet<u64> = HashSet::new();
            for r in bench.spec().build().take_conditionals(len) {
                if r.kind == BranchKind::Conditional {
                    let a = r.pc >> 2;
                    addrs.insert(a);
                    pairs4.insert((a, hist & 0xF));
                    pairs12.insert((a, hist & 0xFFF));
                }
                hist = (hist << 1) | u64::from(r.taken);
            }
            let n = addrs.len().max(1) as f64;
            SubstreamProbe {
                h4: pairs4.len() as f64 / n,
                h12: pairs12.len() as f64 / n,
            }
        }
    }
}

#[test]
fn kernel_records_form_bursts() {
    // Kernel activity must arrive in multi-record bursts, not as isolated
    // records (it models interrupt/syscall handling).
    let records: Vec<_> = IbsBenchmark::Nroff.spec().build().take(200_000).collect();
    let mut bursts = 0u64;
    let mut kernel_records = 0u64;
    let mut prev_kernel = false;
    for r in &records {
        let is_kernel = r.privilege == Privilege::Kernel;
        if is_kernel {
            kernel_records += 1;
            if !prev_kernel {
                bursts += 1;
            }
        }
        prev_kernel = is_kernel;
    }
    assert!(bursts > 0, "no kernel bursts seen");
    let mean_burst = kernel_records as f64 / bursts as f64;
    assert!(
        mean_burst > 10.0,
        "kernel records should clump into bursts (mean length {mean_burst:.1})"
    );
}

#[test]
fn workloads_differ_pairwise() {
    // Every pair of workloads must produce genuinely different streams —
    // a copy-paste error in the presets would be caught here.
    let firsts: Vec<Vec<BranchRecord>> = IbsBenchmark::all()
        .into_iter()
        .map(|b| b.spec().build().take(2_000).collect())
        .collect();
    for i in 0..firsts.len() {
        for j in (i + 1)..firsts.len() {
            assert_ne!(firsts[i], firsts[j], "workloads {i} and {j} identical");
        }
    }
}
