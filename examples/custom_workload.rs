//! Build a branch workload by hand with the program-model API — a tiny
//! interpreter-style loop with a correlated guard — and show how history
//! length changes what a predictor can learn.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use gskew::core::prelude::*;
use gskew::sim::engine;
use gskew::trace::prelude::*;

/// A hand-written CFG:
///
/// ```text
/// b0: loop branch (8 iterations)      -> b1 each iteration, b4 on exit
/// b1: 75%-taken data branch           -> b2 / b2
/// b2: parity of the previous branch   -> b3 / b3   (fully correlated)
/// b3: jump back to the loop head
/// b4: return to b0 (restart)
/// ```
fn build_program() -> Program {
    let branch = |pc, behavior, taken, fallthrough| Block {
        pc,
        terminator: Terminator::Branch {
            behavior,
            taken,
            fallthrough,
        },
    };
    Program::new(
        vec![
            branch(0x100, Behavior::Loop { trip: 8 }, 1, 4),
            branch(0x104, Behavior::Bias { taken_prob: 0.75 }, 2, 2),
            branch(
                0x108,
                Behavior::HistoryParity {
                    mask: 0b1,
                    depth: 1,
                    flip_prob: 0.0,
                },
                3,
                3,
            ),
            Block {
                pc: 0x10c,
                terminator: Terminator::Jump { target: 0 },
            },
            Block {
                pc: 0x110,
                terminator: Terminator::Jump { target: 0 },
            },
        ],
        0,
    )
    .expect("well-formed CFG")
}

fn main() -> Result<(), ConfigError> {
    let program = build_program();
    println!(
        "custom program: {} blocks, {} conditional sites\n",
        program.blocks().len(),
        program.static_conditionals()
    );

    println!("{:<26} {:>11}", "predictor", "mispredict");
    for h in [0u32, 1, 2, 4, 8] {
        let mut p = parse_spec(&format!("gshare:n=10,h={h}"))?;
        let walker = Walker::new(program.clone(), 42);
        let result = engine::run(&mut p, walker.take_conditionals(200_000));
        println!("{:<26} {:>10.2}%", p.name(), result.mispredict_pct());
    }

    // The parity branch (b2) copies the previous outcome, so a single
    // history bit predicts it perfectly — hence the big drop from h=0 to
    // h=1. The loop exit would need the history register to span a whole
    // iteration count (4 records per iteration x 8 trips = 32 bits), so
    // it stays mispredicted, and the 75% data branch is irreducible
    // (~25% of its executions): exactly the history-length tradeoff the
    // paper's section 6 discusses.

    let mut gskew = parse_spec("gskew:n=10,h=8")?;
    let walker = Walker::new(program, 42);
    let result = engine::run(&mut gskew, walker.take_conditionals(200_000));
    println!("{:<26} {:>10.2}%", gskew.name(), result.mispredict_pct());
    Ok(())
}
