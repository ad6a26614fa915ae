//! `TraceColumns` is the only in-memory trace layout, so it must be
//! lossless: building columns from any record sequence and iterating them
//! back returns exactly that sequence — every kind, taken bit and
//! privilege level, across the 64-bit word boundaries of the bitsets —
//! and every cached benchmark trace replays exactly the stream its
//! generator produces.

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
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(built.record(i), *r, "record {}", i);
        }
        let conditionals = records.iter().filter(|r| r.kind.is_conditional()).count();
        prop_assert_eq!(built.conditional_count(), conditionals as u64);
        let owned: Vec<_> = Arc::new(built).into_records().collect();
        prop_assert_eq!(owned, records.to_vec());
    }
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
