//! `TraceColumns` is the only in-memory trace layout, so it must be
//! lossless: building columns from any record sequence and iterating them
//! back returns exactly that sequence — every kind, taken bit and
//! privilege level, across the 64-bit word boundaries of the bitsets and
//! through runs of non-conditional records longer than a meta byte counts
//! — and every cached benchmark trace replays exactly the stream its
//! generator produces. The conditional cursor the kernels walk must hand
//! out the history a naive per-record walk keeps, also across a trace
//! built in chunks.

use bpred_trace::cache;
use bpred_trace::record::{BranchKind, BranchRecord, Privilege};
use bpred_trace::soa::TraceColumns;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use proptest::prelude::*;
use std::sync::Arc;

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
        let owned: Vec<_> = Arc::new(built).into_records().collect();
        prop_assert_eq!(owned, records.to_vec());
    }

    #[test]
    fn columns_roundtrip_long_non_conditional_runs(records in arb_stream()) {
        let built = TraceColumns::from_records(&records);
        prop_assert_eq!(built.records().collect::<Vec<_>>(), records.clone());
        let max_pc = records.iter().filter(|r| r.kind.is_conditional()).map(|r| r.pc).max();
        prop_assert_eq!(built.max_conditional_pc(), max_pc.unwrap_or(0));
    }

    #[test]
    fn cursor_matches_a_naive_history_walk(
        records in arb_stream(),
        start in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        let (expected, end) = naive_walk(&records, start);
        let whole = TraceColumns::from_records(&records);
        let mut walk = whole.conditionals(start);
        prop_assert_eq!(walk.by_ref().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(walk.finish(), end);
        prop_assert_eq!(whole.conditionals(start).finish(), end);

        // The same stream built in chunks, the history carried across.
        let mut cuts: Vec<usize> = cuts
            .into_iter()
            .map(|c| (c % (records.len() as u64 + 1)) as usize)
            .collect();
        cuts.push(records.len());
        cuts.sort_unstable();
        let (mut chunked, mut history, mut from) = (Vec::new(), start, 0);
        for to in cuts {
            let chunk = TraceColumns::from_records(&records[from..to]);
            let mut walk = chunk.conditionals(history);
            chunked.extend(walk.by_ref());
            history = walk.finish();
            from = to;
        }
        prop_assert_eq!(chunked, expected);
        prop_assert_eq!(history, end);
    }
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
