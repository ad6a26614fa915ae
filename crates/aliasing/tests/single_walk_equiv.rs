//! Differential tests for the single-walk instruments: the multi-size
//! [`AliasingNature`] walk must count exactly what one plain walk per
//! size counts, and the shared-distance [`batch::fa_pass`] at capacity
//! 4096 must miss exactly where a 4096-entry
//! [`TaggedFullyAssociative`] table does.

use bpred_aliasing::batch;
use bpred_aliasing::cursor::PairCursor;
use bpred_aliasing::fully_assoc::TaggedFullyAssociative;
use bpred_aliasing::nature::{AliasingNature, NatureCounts};
use bpred_core::counter::{CounterKind, CounterTable, SatCounter};
use bpred_core::index::IndexFunction;
use bpred_core::predictor::Outcome;
use bpred_trace::record::{BranchKind, BranchRecord};
use bpred_trace::soa::TraceColumns;
use proptest::prelude::*;
use std::collections::HashMap;

/// The one-size classifier written plainly: the last owning pair of each
/// entry as an `Option`, and the shadow keyed by the pair itself.
fn one_size(
    n: u32,
    history_bits: u32,
    func: IndexFunction,
    kind: CounterKind,
    records: &[BranchRecord],
) -> NatureCounts {
    let mut cursor = PairCursor::new(history_bits);
    let mut table = CounterTable::new(n, kind);
    let mut owners: Vec<Option<(u64, u64)>> = vec![None; 1 << n];
    let mut shadow: HashMap<(u64, u64), SatCounter> = HashMap::new();
    let mut counts = NatureCounts::default();
    for r in records {
        if r.kind == BranchKind::Conditional {
            let v = cursor.vector(r.pc);
            let pair = v.pair();
            let idx = func.index(&v, n);
            let outcome = Outcome::from(r.taken);
            let aliased = owners[idx as usize].is_some_and(|owner| owner != pair);
            let aliased_right = table.predict(idx) == outcome;
            match shadow.get_mut(&pair) {
                None => {
                    counts.compulsory += 1;
                    shadow.insert(pair, SatCounter::seeded(kind, outcome));
                }
                Some(counter) => {
                    let shadow_right = counter.predict() == outcome;
                    match (aliased, aliased_right, shadow_right) {
                        (false, _, _) => counts.unaliased += 1,
                        (true, false, true) => counts.destructive += 1,
                        (true, true, false) => counts.constructive += 1,
                        (true, _, _) => counts.harmless += 1,
                    }
                    counter.train(outcome);
                }
            }
            table.train(idx, outcome);
            owners[idx as usize] = Some(pair);
        }
        cursor.advance(r);
    }
    counts
}

/// Branches from a pool of `pool` pcs on both sides of 2^32, one in
/// eight unconditional (they shift history in as taken but are never
/// classified): one in sixteen a lone one, one in sixteen a run of
/// 65-150, longer than a meta byte's gap and than a 64-bit history.
fn records(pool: u64, raw: &[(u64, bool, u8)]) -> Vec<BranchRecord> {
    let mut records = Vec::new();
    for &(slot, taken, kind) in raw {
        let pc = 0xffff_ff00 + (slot % pool) * 4;
        let run = match (kind, taken) {
            (0, false) => 1,
            (0, true) => 65 + slot % 86,
            _ => {
                records.push(BranchRecord::conditional(pc, taken));
                continue;
            }
        };
        records.extend((0..run).map(|i| BranchRecord::unconditional(pc + 4 * i)));
    }
    records
}

fn func_from(i: u8) -> IndexFunction {
    [
        IndexFunction::Gshare,
        IndexFunction::Gselect,
        IndexFunction::Bimodal,
    ][usize::from(i % 3)]
}

proptest! {
    #[test]
    fn multi_size_nature_matches_one_walk_per_size(
        sizes in proptest::collection::vec(1u32..=12, 0..7),
        history_bits in 0u32..=64,
        func_i in any::<u8>(),
        ctr in 1u8..=4,
        pool in 1u64..=300,
        raw in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u8..8), 0..1_500),
    ) {
        let records = records(pool, &raw);
        let func = func_from(func_i);
        let kind = CounterKind::from_bits(ctr).expect("1..=4 bit counters exist");
        let walked = AliasingNature::new(&sizes, history_bits, func, kind)
            .run(&TraceColumns::from_records(&records));
        prop_assert_eq!(walked.len(), sizes.len());
        for (&n, got) in sizes.iter().zip(&walked) {
            let want = one_size(n, history_bits, func, kind, &records);
            prop_assert_eq!(*got, want, "size {} of {:?}", n, &sizes);
        }
    }

    #[test]
    fn fa_pass_at_4096_matches_the_tagged_fa_table(
        pool in 3_000u64..=6_000,
        history_bits in 0u32..=2,
        raw in proptest::collection::vec((any::<u64>(), any::<bool>(), 0u8..8), 0..9_000),
    ) {
        // Pools of 3K-6K pcs under up to 2 history bits hold more pairs
        // than 4096 ways, so long streams evict.
        let records = records(pool, &raw);
        let mut table = TaggedFullyAssociative::new(4096);
        let mut cursor = PairCursor::new(history_bits);
        for r in &records {
            if r.kind == BranchKind::Conditional {
                table.access(cursor.vector(r.pc).pair());
            }
            cursor.advance(r);
        }
        let fa = batch::fa_pass(&TraceColumns::from_records(&records), history_bits, &[4096]);
        prop_assert_eq!(fa.references, table.accesses());
        prop_assert_eq!(fa.misses[0], table.misses());
        prop_assert_eq!(fa.cold_misses, table.cold_misses());
    }
}
