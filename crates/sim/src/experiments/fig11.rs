//! Figure 11: extrapolated (analytical) vs measured misprediction of the
//! skewed predictor — 1-bit automatons, total update, 4-bit history —
//! across bank sizes.
//!
//! The model is expected to slightly *over*-estimate the measured rate
//! (constructive aliasing is not modeled).

use super::helpers::{columns, sim_pct};
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, Table};
use crate::runner::parallel_map;
use bpred_model::extrapolate::Extrapolator;
use bpred_trace::workload::IbsBenchmark;

const BANK_LOG2: std::ops::RangeInclusive<u32> = 6..=14;
const HISTORY: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct Cell {
    extrapolated: f64,
    measured: f64,
}

fn measure(bench: IbsBenchmark, bank_log2: u32, len: u64) -> Cell {
    let trace = columns(bench, len);
    let extrapolation = Extrapolator {
        bank_entries: 1 << bank_log2,
        history_bits: HISTORY,
    }
    .run(trace.records(), trace.records());
    let measured = sim_pct(
        &format!("gskew:n={bank_log2},h={HISTORY},ctr=1,update=total"),
        bench,
        len,
    );
    Cell {
        extrapolated: 100.0 * extrapolation.extrapolated_rate,
        measured,
    }
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let banks: Vec<u32> = BANK_LOG2.collect();
    let tasks: Vec<(u32, IbsBenchmark)> = banks
        .iter()
        .flat_map(|&n| IbsBenchmark::all().into_iter().map(move |b| (n, b)))
        .collect();
    let cells = parallel_map(tasks, opts.threads, |(n, bench)| {
        measure(bench, n, opts.len_for(bench))
    });

    let mut columns = vec!["bank entries".to_string()];
    columns.extend(IbsBenchmark::all().iter().map(|b| b.name().to_string()));
    let mut extrapolated = Table::new(
        "Extrapolated mispredict % (model: 1-bit, total update, h=4)",
        columns.clone(),
    );
    let mut measured = Table::new(
        "Measured mispredict % (simulated 3-bank gskew: 1-bit, total update, h=4)",
        columns,
    );
    let per_row = IbsBenchmark::all().len();
    for (i, &n) in banks.iter().enumerate() {
        let row = &cells[i * per_row..(i + 1) * per_row];
        let label = format!("3x{}", 1u64 << n);
        extrapolated.push_row(
            std::iter::once(label.clone())
                .chain(row.iter().map(|c| pct(c.extrapolated)))
                .collect(),
        );
        measured.push_row(
            std::iter::once(label)
                .chain(row.iter().map(|c| pct(c.measured)))
                .collect(),
        );
    }
    ExperimentOutput {
        id: "fig11",
        title: "Figure 11 — extrapolated vs measured gskew misprediction".into(),
        tables: vec![extrapolated, measured],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation() {
        let c = measure(IbsBenchmark::Verilog, 10, 60_000);
        // Same ballpark...
        assert!(
            (c.extrapolated - c.measured).abs() < c.measured.max(2.0),
            "extrapolated {} vs measured {}",
            c.extrapolated,
            c.measured
        );
        // ...and the paper notes the model overestimates slightly; allow
        // a little slack for workload noise.
        assert!(
            c.extrapolated > c.measured - 1.0,
            "extrapolated {} unexpectedly far below measured {}",
            c.extrapolated,
            c.measured
        );
    }

    #[test]
    fn output_shape() {
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(15_000);
        let out = run(&opts);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 9);
    }
}
