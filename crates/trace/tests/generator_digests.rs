//! The generator is pinned by digests of what it produced before
//! `Workload::fill` existed, not by a comparison of its two paths with
//! each other: a change to the walk that both paths share would pass
//! such a comparison unseen. Each digest is FNV-1a over every record's
//! pc (8 bytes, little-endian), kind code, taken bit and kernel bit, for
//! the trace bounded to 120,000 conditional branches.
//!
//! `fill` in arbitrary chunk sizes must continue one trace, chunk after
//! chunk, exactly as the whole trace.

use bpred_trace::record::{BranchKind, BranchRecord, Privilege};
use bpred_trace::soa::TraceColumns;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::{IbsBenchmark, Workload, DEFAULT_SEED_BASE};
use proptest::prelude::*;
use std::sync::OnceLock;

const LEN: u64 = 120_000;

/// A seed base no committed table uses.
const OTHER_SEED: u64 = 0x5EED_1997;

/// `(seed base, benchmark, records, digest)`.
const PINNED: [(u64, IbsBenchmark, usize, u64); 12] = [
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::Groff,
        169_713,
        0xe560_bb36_90f7_a735,
    ),
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::Gs,
        168_911,
        0xb68d_7e74_9fbc_4413,
    ),
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::MpegPlay,
        179_796,
        0x0b1e_5272_a91c_19fe,
    ),
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::Nroff,
        171_059,
        0xf10c_807b_31f7_8c9d,
    ),
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::RealGcc,
        174_351,
        0x0a3d_5f60_4930_d11d,
    ),
    (
        DEFAULT_SEED_BASE,
        IbsBenchmark::Verilog,
        172_901,
        0x4339_8170_29eb_4dca,
    ),
    (
        OTHER_SEED,
        IbsBenchmark::Groff,
        171_460,
        0x372f_3c35_4f14_44b8,
    ),
    (OTHER_SEED, IbsBenchmark::Gs, 177_009, 0x8f2d_7901_f8ca_e7ce),
    (
        OTHER_SEED,
        IbsBenchmark::MpegPlay,
        174_247,
        0x52e6_d2fd_59db_318f,
    ),
    (
        OTHER_SEED,
        IbsBenchmark::Nroff,
        164_894,
        0x996a_4c1a_6cf3_d1c7,
    ),
    (
        OTHER_SEED,
        IbsBenchmark::RealGcc,
        172_778,
        0x9125_77f2_2246_5328,
    ),
    (
        OTHER_SEED,
        IbsBenchmark::Verilog,
        172_353,
        0xb950_a2ab_a523_4bea,
    ),
];

/// The record count and FNV-1a digest of `records`.
fn digest(records: impl Iterator<Item = BranchRecord>) -> (usize, u64) {
    let (mut n, mut hash) = (0, 0xcbf2_9ce4_8422_2325u64);
    for r in records {
        let kind = match r.kind {
            BranchKind::Conditional => 0,
            BranchKind::Unconditional => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
        };
        let flags = [
            kind,
            u8::from(r.taken),
            u8::from(r.privilege == Privilege::Kernel),
        ];
        for byte in r.pc.to_le_bytes().into_iter().chain(flags) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    (n, hash)
}

#[test]
fn the_record_iterator_reproduces_the_pinned_traces() {
    for (seed, bench, records, hash) in PINNED {
        let stream = bench.spec_seeded(seed).build().take_conditionals(LEN);
        assert_eq!(digest(stream), (records, hash), "{bench} at {seed:#x}");
    }
}

#[test]
fn fill_reproduces_the_pinned_traces() {
    for (seed, bench, records, hash) in PINNED {
        let cols = bench.spec_seeded(seed).build().fill(LEN);
        assert_eq!(cols.conditional_count(), LEN);
        assert_eq!(
            digest(cols.records()),
            (records, hash),
            "{bench} at {seed:#x}"
        );
    }
}

#[test]
fn fill_of_nothing_is_empty_and_draws_nothing() {
    let mut workload = IbsBenchmark::Gs.spec().build();
    assert!(workload.fill(0).is_empty());
    let whole = IbsBenchmark::Gs.spec().build().fill(3_000);
    assert_eq!(workload.fill(3_000), whole);
}

/// Conditionals in the traces the chunk tests cut up.
const TOTAL: u64 = 5_000;

/// Each benchmark's fresh workload and its whole trace of [`TOTAL`]
/// conditionals, built once: the chunk tests clone the workload.
fn fresh(bench: IbsBenchmark) -> &'static (Workload, TraceColumns) {
    static FRESH: OnceLock<Vec<(Workload, TraceColumns)>> = OnceLock::new();
    let all = FRESH.get_or_init(|| {
        IbsBenchmark::all()
            .into_iter()
            .map(|b| {
                let workload = b.spec().build();
                let whole = workload.clone().fill(TOTAL);
                (workload, whole)
            })
            .collect()
    });
    &all[bench as usize]
}

/// Fill `chunks` in turn from one workload, then the rest of [`TOTAL`]
/// conditionals, and check the concatenation against the whole trace,
/// record by record and in its conditional walk's history.
fn check_chunks(bench: IbsBenchmark, chunks: &[u64]) {
    let (workload, whole) = fresh(bench);
    let mut workload = workload.clone();
    let (mut records, mut walked, mut history) = (Vec::new(), Vec::new(), 0);
    let rest = TOTAL - chunks.iter().sum::<u64>();
    for &n in chunks.iter().chain([&rest]) {
        let chunk = workload.fill(n);
        assert_eq!(chunk.conditional_count(), n);
        records.extend(chunk.records());
        let mut walk = chunk.conditionals(history);
        walk.for_each_record(|pc, taken, h| walked.push((pc, taken, h)));
        history = walk.finish();
    }
    assert!(
        records.into_iter().eq(whole.records()),
        "{bench} {chunks:?}"
    );
    let mut expected = Vec::new();
    let mut walk = whole.conditionals(0);
    walk.for_each_record(|pc, taken, h| expected.push((pc, taken, h)));
    assert_eq!(walked, expected, "{bench} {chunks:?}");
    assert_eq!(history, walk.finish());
}

#[test]
fn fill_in_chunks_around_word_boundaries_continues_one_trace() {
    for bench in IbsBenchmark::all() {
        check_chunks(bench, &[0, 1, 63, 64, 65, 0, 127, 128, 129]);
    }
}

proptest! {
    #[test]
    fn fill_in_random_chunks_continues_one_trace(
        bench in 0usize..6,
        chunks in collection::vec(
            prop_oneof![Just(0u64), Just(1u64), Just(63u64), Just(64u64), Just(65u64), 0u64..400],
            0..12,
        ),
    ) {
        check_chunks(IbsBenchmark::all()[bench], &chunks);
    }
}
