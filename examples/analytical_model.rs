//! The paper's analytical model in action: the figure 9/10 curves, the
//! `D ≈ N/10` crossover, and a figure 11-style extrapolation-vs-simulation
//! comparison on a synthetic workload.
//!
//! ```text
//! cargo run --release --example analytical_model
//! ```

use gskew::model::curves::destructive_aliasing_curve;
use gskew::model::extrapolate::Extrapolator;
use gskew::model::skew::crossover_distance;
use gskew::sim::engine;
use gskew::trace::prelude::*;

fn main() {
    // --- figures 9/10: polynomial vs linear growth ----------------------
    println!("destructive-aliasing probability (b = 0.5):");
    println!("{:>6} {:>10} {:>10}", "p", "P_dm", "P_sk");
    for point in destructive_aliasing_curve(1.0, 11) {
        println!(
            "{:>6.2} {:>10.5} {:>10.5}",
            point.p, point.direct_mapped, point.skewed
        );
    }

    // --- the D ~ N/10 crossover -----------------------------------------
    println!("\ncrossover last-use distance (3x(N/3) skewed vs N-entry DM):");
    for n in [12_288u64, 49_152, 196_608] {
        let d = crossover_distance(n);
        println!(
            "  N = {n:>7}: D* = {d:>6}  (D*/N = {:.3})",
            d as f64 / n as f64
        );
    }

    // --- figure 11: extrapolation vs simulation --------------------------
    let bench = IbsBenchmark::Verilog;
    let len = 300_000;
    println!("\nextrapolated vs measured gskew misprediction ({bench}, {len} branches):");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>12}",
        "bank", "bias b", "unaliased %", "model %", "measured %"
    );
    let trace = bench.spec().build().fill(len);
    for bank_log2 in [8u32, 10, 12] {
        let model = Extrapolator {
            bank_entries: 1 << bank_log2,
            history_bits: 4,
        }
        .run(&trace);
        let mut sim =
            gskew::core::spec::parse_spec(&format!("gskew:n={bank_log2},h=4,ctr=1,update=total"))
                .expect("valid spec");
        let measured = engine::run(&mut sim, bench.spec().build().take_conditionals(len));
        println!(
            "{:>10} {:>8.3} {:>11.2}% {:>11.2}% {:>11.2}%",
            format!("3x{}", 1u64 << bank_log2),
            model.bias,
            100.0 * model.unaliased_rate,
            100.0 * model.extrapolated_rate,
            measured.mispredict_pct()
        );
    }
    println!("\n(the model slightly over-estimates: constructive aliasing is unmodeled)");
}
