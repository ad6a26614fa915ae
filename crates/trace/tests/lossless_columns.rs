//! `TraceColumns` is the only in-memory trace layout, so it must be
//! lossless: building columns from any record sequence and iterating them
//! back returns exactly that sequence — every kind, taken bit and
//! privilege level, across the 64-bit word boundaries of the bitsets,
//! through runs of non-conditional records longer than a meta byte counts
//! and across the high-word segments of the 32-bit pc columns — and every
//! cached benchmark trace replays exactly the stream its generator
//! produces. `TraceStats` over columns must count what a walk of the
//! records counts. The conditional walk the kernels use, a segment at a
//! time, must hand out the history a naive per-record walk keeps, also
//! across a trace built in chunks.

use bpred_trace::cache;
use bpred_trace::record::{BranchKind, BranchRecord, Privilege};
use bpred_trace::soa::TraceColumns;
use bpred_trace::stats::TraceStats;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use proptest::prelude::*;
use std::collections::HashSet;

const KINDS: [BranchKind; 4] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
];

/// Lengths on either side of the bitsets' word boundaries.
const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (any::<u64>(), 0usize..4, any::<bool>(), any::<bool>()).prop_map(|(pc, kind, taken, kernel)| {
        BranchRecord {
            pc,
            kind: KINDS[kind],
            taken,
            privilege: if kernel {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        }
    })
}

proptest! {
    #[test]
    fn columns_roundtrip_any_record_sequence(
        pool in proptest::collection::vec(arb_record(), 129..130),
        length in 0usize..LENGTHS.len(),
    ) {
        let records = &pool[..LENGTHS[length]];
        let built = TraceColumns::from_records(records);
        let collected: TraceColumns = records.iter().copied().collect();
        prop_assert_eq!(&built, &collected);
        prop_assert_eq!(built.len(), records.len());
        prop_assert_eq!(built.records().collect::<Vec<_>>(), records.to_vec());
        let conditionals = records.iter().filter(|r| r.kind.is_conditional()).count();
        prop_assert_eq!(built.conditional_count(), conditionals as u64);
        let kernel = records.iter().filter(|r| r.privilege == Privilege::Kernel).count();
        prop_assert_eq!(built.kernel_count(), kernel as u64);
    }

    #[test]
    fn columns_roundtrip_long_non_conditional_runs(records in arb_stream()) {
        let built = TraceColumns::from_records(&records);
        prop_assert_eq!(built.records().collect::<Vec<_>>(), records.clone());
        // Every conditional record with its index among all records,
        // across runs of other records longer than a meta byte counts.
        let positioned: Vec<_> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind.is_conditional())
            .map(|(i, r)| (i, r.pc, r.taken))
            .collect();
        prop_assert_eq!(built.positioned().collect::<Vec<_>>(), positioned);
        let max_pc = records.iter().filter(|r| r.kind.is_conditional()).map(|r| r.pc).max();
        prop_assert_eq!(built.max_conditional_pc(), max_pc.unwrap_or(0));
        // `TraceStats` over the columns, whole and folded in chunks that
        // split the runs, counts what a naive walk of the records counts.
        let conditional: Vec<_> = records.iter().filter(|r| r.kind.is_conditional()).collect();
        let want = TraceStats {
            dynamic_conditional: conditional.len() as u64,
            static_conditional: conditional.iter().map(|r| r.pc).collect::<HashSet<_>>().len() as u64,
            dynamic_unconditional: (records.len() - conditional.len()) as u64,
            taken_conditional: conditional.iter().filter(|r| r.taken).count() as u64,
            kernel_records: records.iter().filter(|r| r.privilege == Privilege::Kernel).count() as u64,
            total_records: records.len() as u64,
        };
        prop_assert_eq!(TraceStats::collect([&built]), want);
        let chunks = records.chunks(records.len() / 3 + 1).map(TraceColumns::from_records);
        prop_assert_eq!(TraceStats::collect(chunks), want);
    }

    #[test]
    fn cursor_matches_a_naive_history_walk(
        records in arb_stream(),
        start in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        check_walks(&records, start, &cuts)?;
    }

    #[test]
    fn segments_of_a_few_high_words_roundtrip_and_walk(
        records in arb_mix(),
        highs in proptest::collection::vec(any::<u32>(), 1..4),
        switches in proptest::collection::vec((any::<u64>(), 0usize..3), 0..6),
        start in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        // Each record keeps its low word and takes the high word in force
        // at its position: `highs[0]` from the start, then whichever one
        // the last switch at or before it picked.
        let mut switches: Vec<(usize, u32)> = switches
            .into_iter()
            .map(|(at, pick)| {
                let at = (at % (records.len() as u64 + 1)) as usize;
                (at, highs[pick % highs.len()])
            })
            .collect();
        switches.sort_unstable_by_key(|&(at, _)| at);
        let records: Vec<BranchRecord> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let high = switches
                    .iter()
                    .take_while(|&&(at, _)| at <= i)
                    .last()
                    .map_or(highs[0], |&(_, high)| high);
                with_high(*r, high)
            })
            .collect();
        let built = TraceColumns::from_records(&records);
        let collected: TraceColumns = records.iter().copied().collect();
        prop_assert_eq!(&built, &collected);
        prop_assert_eq!(built.records().collect::<Vec<_>>(), records.clone());
        prop_assert_eq!(collected.heap_bytes(), packed_bytes(&records));
        check_walks(&records, start, &cuts)?;
    }
}

/// `r` with its pc's high 32 bits replaced by `high`.
fn with_high(r: BranchRecord, high: u32) -> BranchRecord {
    BranchRecord {
        pc: u64::from(high) << 32 | r.pc & 0xFFFF_FFFF,
        ..r
    }
}

/// The heap bytes of collected (slack-free) columns over `records`: 5 a
/// record, two bitsets, and 16 for each change of the high word within
/// either pc column (from 0 before the first pc).
fn packed_bytes(records: &[BranchRecord]) -> usize {
    let changes = |conditional: bool| {
        let highs = records
            .iter()
            .filter(|r| r.kind.is_conditional() == conditional)
            .map(|r| r.pc >> 32);
        highs
            .scan(0, |last, high| Some(std::mem::replace(last, high) != high))
            .filter(|&changed| changed)
            .count()
    };
    let words = records.len().div_ceil(64);
    records.len() * 5 + 2 * 8 * words + 16 * (changes(true) + changes(false))
}

/// The conditional walk over `records`, from history `start`, against
/// [`naive_walk`]: over the whole trace, and over it built in chunks cut
/// at `cuts` (taken modulo the length) with the history carried across;
/// each walk's `finish` must be the naive end history, whether or not
/// the records were walked first.
fn check_walks(records: &[BranchRecord], start: u64, cuts: &[u64]) -> Result<(), TestCaseError> {
    let (expected, end) = naive_walk(records, start);
    let whole = TraceColumns::from_records(records);
    prop_assert_eq!(segment_walk(&whole, start), (expected.clone(), end));
    prop_assert_eq!(whole.conditionals(start).finish(), end);

    // The same stream built in chunks, the history carried across.
    let mut cuts: Vec<usize> = cuts
        .iter()
        .map(|c| (c % (records.len() as u64 + 1)) as usize)
        .collect();
    cuts.push(records.len());
    cuts.sort_unstable();
    let mut chunked = Vec::new();
    let (mut history, mut from) = (start, 0);
    for to in cuts {
        let chunk = TraceColumns::from_records(&records[from..to]);
        let (walked, after) = segment_walk(&chunk, history);
        chunked.extend(walked);
        prop_assert_eq!(chunk.conditionals(history).finish(), after);
        history = after;
        from = to;
    }
    prop_assert_eq!(&chunked, &expected);
    prop_assert_eq!(history, end);
    Ok(())
}

/// The conditional records of `cols` as the kernels walk them, with
/// `for_each_record`, and the history after the last record. A second
/// `for_each_record` on the finished walk must hand out nothing.
fn segment_walk(cols: &TraceColumns, history: u64) -> (Vec<(u64, bool, u64)>, u64) {
    let mut walk = cols.conditionals(history);
    let mut walked = Vec::new();
    walk.for_each_record(|pc, taken, history| walked.push((pc, taken, history)));
    walk.for_each_record(|pc, _, _| panic!("pc {pc:#x} walked twice"));
    (walked, walk.finish())
}

fn arb_other() -> impl Strategy<Value = BranchRecord> {
    (arb_record(), 1usize..4).prop_map(|(record, kind)| BranchRecord {
        kind: KINDS[kind],
        ..record
    })
}

/// Records with runs of non-conditional records between them: short
/// ones, and ones on either side of 64 and 128.
fn arb_stream() -> impl Strategy<Value = Vec<BranchRecord>> {
    let run = prop_oneof![0usize..3, 62usize..67, 126usize..131, 0usize..200];
    let segment = (arb_record(), run, arb_other());
    proptest::collection::vec(segment, 0..8).prop_map(|segments| {
        let mut records = Vec::new();
        for (record, run, other) in segments {
            records.push(record);
            records.extend((0..run as u64).map(|i| BranchRecord {
                pc: other.pc.wrapping_add(4 * i),
                ..other
            }));
        }
        records
    })
}

/// Either [`arb_stream`]'s sparse conditionals, or up to 300 records of
/// any kinds.
fn arb_mix() -> impl Strategy<Value = Vec<BranchRecord>> {
    prop_oneof![
        arb_stream(),
        proptest::collection::vec(arb_record(), 0..300)
    ]
}

/// `(pc, taken, history)` of every conditional record, with the global
/// history each one sees when every other record shifts in a taken bit,
/// and the history after the last record.
fn naive_walk(records: &[BranchRecord], mut history: u64) -> (Vec<(u64, bool, u64)>, u64) {
    let mut walked = Vec::new();
    for r in records {
        if r.kind.is_conditional() {
            walked.push((r.pc, r.taken, history));
            history = history << 1 | u64::from(r.taken);
        } else {
            history = history << 1 | 1;
        }
    }
    (walked, history)
}

#[test]
fn cached_traces_replay_their_generator_streams() {
    // The quick experiment length, at the default and the held-out seed.
    for seed in [DEFAULT_SEED_BASE, 0x5EED_1997] {
        for bench in IbsBenchmark::all() {
            let len = bench.default_len().min(120_000);
            let cached = cache::columns_seeded(bench, len, seed);
            let fresh = bench.spec_seeded(seed).build().take_conditionals(len);
            assert!(
                cached.records().eq(fresh),
                "{bench:?} at seed {seed:#x} differs from its generator"
            );
            assert_eq!(cached.conditional_count(), len);
        }
    }
}

#[test]
fn pcs_on_both_sides_of_two_to_the_32_roundtrip_in_both_columns() {
    let pcs = [
        0x8006_07dc,
        0xFFFF_FFFC,
        0x1_0000_0000,
        0x1_0000_0004,
        0x40,
        u64::MAX,
        0xFFFF_FFFF_0000_0000,
        0x2_0000_0008,
        0x2_0000_000c,
        0xFFFF_FFFF,
    ];
    let mut records = Vec::new();
    for (i, &pc) in pcs.iter().enumerate() {
        records.push(BranchRecord::conditional(pc, i % 3 == 0));
        records.push(BranchRecord {
            pc: pcs[pcs.len() - 1 - i],
            kind: KINDS[1 + i % 3],
            taken: i % 2 == 0,
            privilege: if i % 4 == 0 {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        });
    }
    let cols: TraceColumns = records.iter().copied().collect();
    assert_eq!(cols.records().collect::<Vec<_>>(), records);
    assert_eq!(cols.max_conditional_pc(), u64::MAX);
    // Each column's high word changes at 5 of its 10 pcs.
    assert_eq!(cols.heap_bytes(), packed_bytes(&records));
    assert_eq!(packed_bytes(&records), 20 * 5 + 2 * 8 + 16 * 10);
    check_walks(&records, 0x5A5A, &[7, 8]).unwrap();
}

#[test]
fn a_change_at_index_zero_and_consecutive_changes_walk_exactly() {
    // High words 1, 2, 3 on the first three conditional pcs, then back
    // to 0: four change points, the first at index 0 and each of the
    // next three one record after the last.
    let records = vec![
        BranchRecord::conditional(1 << 32 | 0x40, true),
        BranchRecord::conditional(2 << 32 | 0x40, false),
        BranchRecord::unconditional(0x100),
        BranchRecord::conditional(3 << 32 | 0x44, true),
        BranchRecord::conditional(0x48, true),
        BranchRecord::conditional(0x4c, false),
    ];
    let cols: TraceColumns = records.iter().copied().collect();
    assert_eq!(cols.heap_bytes(), 6 * 5 + 2 * 8 + 16 * 4);
    assert_eq!(cols.records().collect::<Vec<_>>(), records);
    assert_eq!(
        segment_walk(&cols, 0),
        (
            vec![
                (1 << 32 | 0x40, true, 0),
                (2 << 32 | 0x40, false, 0b1),
                (3 << 32 | 0x44, true, 0b101),
                (0x48, true, 0b1011),
                (0x4c, false, 0b10111),
            ],
            0b101110
        )
    );
    for cut in 0..=records.len() as u64 {
        check_walks(&records, u64::MAX, &[cut]).unwrap();
    }
}

#[test]
fn changes_at_chunk_cuts_carry_the_history() {
    // Every chunk starts a new high word, so each chunk's columns open
    // with a change point at index 0 and the history crosses each cut.
    let chunk = |high: u64, n: u64| {
        (0..n).flat_map(move |i| {
            [
                BranchRecord::conditional(high << 32 | (0x400 + 4 * i), i % 3 != 0),
                BranchRecord::unconditional(high << 32 | (0x800 + 4 * i)),
            ]
        })
    };
    let records: Vec<BranchRecord> = chunk(7, 40)
        .chain(chunk(0, 25))
        .chain(chunk(0xFFFF_FFFF, 50))
        .collect();
    check_walks(&records, 0, &[80, 130]).unwrap();
    check_walks(&records, 0xDEAD_BEEF, &[80, 130, 131, 79]).unwrap();
}
