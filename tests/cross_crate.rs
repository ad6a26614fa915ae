//! Cross-crate integration: trace files feed the engine, spec-built
//! predictors behave like directly constructed ones, and the aliasing
//! instruments agree with the predictors they model.

use gskew::core::prelude::*;
use gskew::core::spec::parse_spec;
use gskew::sim::engine::{self, NovelPolicy};
use gskew::trace::io::{write_compact, CompactReader};
use gskew::trace::prelude::*;

#[test]
fn spec_predictor_equals_direct_construction() {
    let len = 30_000;
    let bench = IbsBenchmark::MpegPlay;
    let mut from_spec = parse_spec("gskew:n=10,h=6").unwrap();
    let spec = PredictorSpec::Gskew {
        n: 10,
        h: 6,
        banks: 3,
        ctr: CounterKind::TwoBit,
        update: UpdatePolicy::Partial,
        enhanced: false,
        skewing: true,
    };
    let mut direct = TablePredictor::new(&spec).unwrap().unwrap();
    let a = engine::run(&mut from_spec, bench.spec().build().take_conditionals(len));
    let b = engine::run(&mut direct, bench.spec().build().take_conditionals(len));
    assert_eq!(a, b);
}

#[test]
fn replayed_trace_file_gives_identical_results() {
    let len = 20_000;
    let bench = IbsBenchmark::Nroff;
    let records: Vec<BranchRecord> = bench.spec().build().take_conditionals(len).collect();

    let mut buf = Vec::new();
    write_compact(&mut buf, records.iter().copied()).unwrap();
    let replayed: Vec<BranchRecord> = CompactReader::new(buf.as_slice())
        .unwrap()
        .collect::<std::io::Result<_>>()
        .unwrap();
    assert_eq!(records, replayed);

    let mut live = parse_spec("gshare:n=12,h=8").unwrap();
    let live_result = engine::run(&mut live, records.into_iter());
    let mut from_file = parse_spec("gshare:n=12,h=8").unwrap();
    let file_result = engine::run(&mut from_file, replayed.into_iter());
    assert_eq!(live_result, file_result);
}

#[test]
fn fa_lru_predictor_matches_tagged_fa_miss_count() {
    // The identity-only linked-list FA table in bpred-aliasing and the
    // counter-bearing FA predictor in bpred-core (hit iff the last-use
    // distance is below the capacity) must agree on WHICH references miss.
    use gskew::aliasing::cursor::PairCursor;
    use gskew::aliasing::fully_assoc::TaggedFullyAssociative;

    let len = 20_000;
    let bench = IbsBenchmark::Groff;
    let capacity = 512;

    let mut tagged = TaggedFullyAssociative::new(capacity);
    let mut cursor = PairCursor::new(4);
    for r in bench.spec().build().take_conditionals(len) {
        if r.kind == BranchKind::Conditional {
            tagged.access(cursor.pair(r.pc));
        }
        cursor.advance(&r);
    }

    let mut predictor = parse_spec(&format!("falru:cap={capacity},h=4")).unwrap();
    let result = engine::run_with(
        &mut predictor,
        bench.spec().build().take_conditionals(len),
        NovelPolicy::Count,
    );
    assert_eq!(
        result.novel,
        tagged.misses(),
        "the predictor's novel count must equal the tagged table's misses"
    );
}

#[test]
fn ideal_predictor_distinct_pairs_match_substream_stats() {
    use gskew::aliasing::substream::SubstreamStats;

    let len = 20_000;
    let bench = IbsBenchmark::Gs;
    let spec = PredictorSpec::parse("ideal:h=6").unwrap();
    let mut ideal = LruPredictor::new(&spec).unwrap().unwrap();
    let mut stats = SubstreamStats::new(6);
    for r in bench.spec().build().take_conditionals(len) {
        if r.kind == BranchKind::Conditional {
            ideal.predict(r.pc);
            ideal.update(r.pc, Outcome::from(r.taken));
        } else {
            ideal.record_unconditional(r.pc);
        }
        stats.observe(&r);
    }
    assert_eq!(ideal.distinct_pairs(), stats.distinct_pairs());
}

#[test]
fn every_spec_family_survives_a_real_workload() {
    let len = 5_000;
    for spec in [
        "bimodal:n=8",
        "gshare:n=8,h=4",
        "gselect:n=8,h=4",
        "gskew:n=8,h=4",
        "gskew:n=8,h=4,banks=5,update=total",
        "egskew:n=8,h=8",
        "ideal:h=4",
        "falru:cap=256,h=4",
        "setassoc:n=6,ways=4,h=4",
        "mcfarling:n=8,h=6",
        "2bcgskew:n=8,h=8",
        "always-taken",
        "always-nottaken",
    ] {
        let mut p = parse_spec(spec).unwrap();
        let r = engine::run(
            &mut p,
            IbsBenchmark::Verilog.spec().build().take_conditionals(len),
        );
        assert_eq!(r.conditional, len, "{spec}");
        assert!(r.mispredict_pct() <= 100.0, "{spec}");
        // Reset really resets: a second run from reset state matches a
        // fresh run.
        p.reset();
        let r2 = engine::run(
            &mut p,
            IbsBenchmark::Verilog.spec().build().take_conditionals(len),
        );
        assert_eq!(r, r2, "{spec}: reset() must restore initial state");
    }
}

#[test]
fn fa_lru_misses_equal_stack_distance_prediction() {
    // Two independent implementations of the same mathematical object:
    // an N-entry LRU table hits exactly when the last-use distance is
    // below N. The FA simulator and the Fenwick stack-distance tracker
    // must therefore agree miss-for-miss.
    use gskew::aliasing::cursor::PairCursor;
    use gskew::aliasing::fully_assoc::TaggedFullyAssociative;
    use gskew::core::lru::LastUseDistance;

    let len = 40_000;
    for capacity in [64usize, 512, 4096] {
        let mut fa = TaggedFullyAssociative::new(capacity);
        let mut distances = LastUseDistance::new();
        let mut cursor = PairCursor::new(4);
        let mut predicted_misses = 0u64;
        for r in IbsBenchmark::Gs.spec().build().take_conditionals(len) {
            if r.kind == BranchKind::Conditional {
                let pair = cursor.pair(r.pc);
                let fa_miss = fa.access(pair);
                let sd_miss = match distances.observe(pair) {
                    None => true, // first use
                    Some(d) => d >= capacity as u64,
                };
                assert_eq!(fa_miss, sd_miss, "divergence at capacity {capacity}");
                predicted_misses += u64::from(sd_miss);
            }
            cursor.advance(&r);
        }
        assert_eq!(fa.misses(), predicted_misses);
    }
}

#[test]
fn predictors_and_substrates_are_send_and_sync() {
    // The parallel experiment runner moves predictors and workloads across
    // threads; regressions here would break every sweep.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TablePredictor>();
    assert_send_sync::<LruPredictor>();
    assert_send_sync::<SetAssociative>();
    assert_send_sync::<gskew::trace::workload::Workload>();
    assert_send_sync::<gskew::trace::mix::MultiProgram>();
    assert_send_sync::<gskew::core::lru::LastUseDistance>();
    assert_send_sync::<gskew::core::error::ConfigError>();
}

#[test]
fn storage_accounting_is_consistent_across_families() {
    // At the same (n, ctr) point, 3-bank gskew costs exactly 3x a
    // one-bank table; e-gskew costs the same as gskew; 2bc-gskew 4x.
    let one = parse_spec("gshare:n=12,h=8").unwrap().storage_bits();
    let three = parse_spec("gskew:n=12,h=8").unwrap().storage_bits();
    let enhanced = parse_spec("egskew:n=12,h=8").unwrap().storage_bits();
    let four = parse_spec("2bcgskew:n=12,h=8").unwrap().storage_bits();
    assert_eq!(three, 3 * one);
    assert_eq!(enhanced, three);
    assert_eq!(four, 4 * one);
}
