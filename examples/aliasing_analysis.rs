//! Three-Cs aliasing analysis of one workload: classify aliasing into
//! compulsory / capacity / conflict across table sizes, and report the
//! substream and bias statistics that drive the paper's analytical model.
//!
//! ```text
//! cargo run --release --example aliasing_analysis [workload] [branches]
//! ```

use gskew::aliasing::bias::BiasStats;
use gskew::aliasing::cursor::for_each_vector;
use gskew::aliasing::distance::DistanceHistogram;
use gskew::aliasing::substream::SubstreamStats;
use gskew::aliasing::three_c::ThreeCClassifier;
use gskew::core::index::IndexFunction;
use gskew::core::lru::LastUseDistance;
use gskew::trace::prelude::*;

fn main() {
    let bench = std::env::args()
        .nth(1)
        .and_then(|s| IbsBenchmark::from_name(&s))
        .unwrap_or(IbsBenchmark::Gs);
    let len: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    let history = 4;

    println!("workload {bench}, {len} conditional branches, {history}-bit history\n");

    // --- three-Cs breakdown across table sizes -------------------------
    println!(
        "{:>8} {:>9} {:>11} {:>10} {:>10}",
        "entries", "total %", "compulsory %", "capacity %", "conflict %"
    );
    for n in [8u32, 10, 12, 14, 16] {
        let breakdown = ThreeCClassifier::new(n, history, IndexFunction::Gshare)
            .run(bench.spec().build().take_conditionals(len));
        println!(
            "{:>8} {:>9.3} {:>11.3} {:>10.3} {:>10.3}",
            1u64 << n,
            100.0 * breakdown.total,
            100.0 * breakdown.compulsory,
            100.0 * breakdown.capacity,
            100.0 * breakdown.conflict
        );
    }

    // --- substream and bias statistics ----------------------------------
    let substreams = SubstreamStats::new(history).run(bench.spec().build().take_conditionals(len));
    let trace = bench.spec().build().fill(len);
    let bias = BiasStats::new(history).run(&trace);
    println!(
        "\ndistinct addresses:        {}",
        substreams.distinct_addresses()
    );
    println!("distinct (addr, history):  {}", substreams.distinct_pairs());
    println!(
        "substream ratio:           {:.2}",
        substreams.substream_ratio()
    );
    println!(
        "compulsory aliasing:       {:.3}%",
        100.0 * substreams.compulsory_ratio()
    );
    println!("bias b (static taken):     {:.3}", bias.static_bias_taken());
    println!(
        "majority-agreement bound:  {:.2}%",
        100.0 * bias.majority_agreement()
    );

    // --- top interfering branch pairs ------------------------------------
    let offenders =
        gskew::aliasing::offenders::OffenderAnalysis::new(12, history, IndexFunction::Gshare)
            .run(bench.spec().build().take_conditionals(len));
    println!(
        "\nworst interfering branch pairs in a 4K gshare table \
         ({} aliasing events, {:.1}% self-aliasing):",
        offenders.total_aliasing(),
        100.0 * offenders.self_aliasing() as f64 / offenders.total_aliasing().max(1) as f64
    );
    for pair in offenders.top(8) {
        println!(
            "  {:#010x} <-> {:#010x}: {:>6} collisions",
            pair.branches.0, pair.branches.1, pair.occurrences
        );
    }
    println!(
        "  (top 20 pairs carry {:.1}% of all inter-branch aliasing)",
        100.0 * offenders.concentration(20)
    );

    // --- last-use distance profile --------------------------------------
    let mut distances = LastUseDistance::new();
    let mut histogram = DistanceHistogram::new();
    for_each_vector(&trace, history, |v, _| {
        histogram.record(distances.observe(v.pair()));
    });
    println!("\nlast-use distance profile (hit ratio of an N-entry FA-LRU table):");
    for n in [256u64, 1024, 4096, 16384, 65536] {
        println!(
            "  N = {:>6}: {:>6.2}%",
            n,
            100.0 * histogram.hit_ratio_at(n)
        );
    }
}
