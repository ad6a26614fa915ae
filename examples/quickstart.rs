//! Quickstart: build a skewed branch predictor, drive it with a synthetic
//! workload, and compare it against gshare at equal storage.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gskew::core::prelude::*;
use gskew::sim::engine;
use gskew::trace::prelude::*;

fn main() -> Result<(), ConfigError> {
    let workload = IbsBenchmark::Groff;
    let branches = 500_000;

    // The paper's centerpiece: 3 banks of 4K 2-bit counters, indexed by
    // the skewing functions f0..f2, majority-voted, partial update.
    let spec = PredictorSpec::parse("gskew:n=12,h=8,banks=3,ctr=2,update=partial")?;
    let mut gskew = TablePredictor::new(&spec)?.expect("a table family"); // 12K entries, 24 Kbit

    // A gshare with MORE storage (16K entries, 32 Kbit) to compare with.
    let mut gshare = parse_spec("gshare:n=14,h=8")?;

    println!("workload: {workload} ({branches} conditional branches)\n");
    for (name, predictor) in [
        (gskew.name(), &mut gskew as &mut dyn BranchPredictor),
        (gshare.name(), &mut gshare as &mut dyn BranchPredictor),
    ] {
        let trace = workload.spec().build().take_conditionals(branches);
        let result = engine::run(predictor, trace);
        println!(
            "{name:<34} storage {:>6} bits   mispredict {:>5.2}%",
            predictor.storage_bits(),
            result.mispredict_pct()
        );
    }

    println!("\nPer-bank votes for one lookup:");
    let pc = 0x0040_2000;
    for (bank, &vote) in gskew.votes(pc).iter().enumerate() {
        println!("  bank {bank}: {}", Outcome::from(vote));
    }
    println!("  majority: {}", gskew.predict(pc));
    Ok(())
}
