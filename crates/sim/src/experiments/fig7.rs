//! Figure 7: 3x4K-entry gskew vs 16K-entry gshare while varying the
//! history length — gskew uses 25% less storage yet should win on most
//! benchmarks.

use super::helpers::{history_labels, spec_sweep_table};
use super::{ExperimentOpts, ExperimentOutput};

const MAX_HISTORY: u32 = 16;

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let labels = history_labels(0, MAX_HISTORY);
    let gskew = spec_sweep_table(
        "3x4K gskew mispredict % vs history length",
        "history bits",
        &labels,
        opts,
        |row| format!("gskew:n=12,h={row}"),
    );
    let gshare = spec_sweep_table(
        "16K gshare mispredict % vs history length",
        "history bits",
        &labels,
        opts,
        |row| format!("gshare:n=14,h={row}"),
    );
    ExperimentOutput {
        id: "fig7",
        title: "Figure 7 — 3x4K gskew vs 16K gshare across history lengths".into(),
        tables: vec![gskew, gshare],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape() {
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(15_000);
        let out = run(&opts);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 17);
        assert_eq!(out.tables[0].rows()[0][0], "0");
        assert_eq!(out.tables[0].rows()[16][0], "16");
    }
}
