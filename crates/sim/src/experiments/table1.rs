//! Table 1: conditional branch counts of the six workloads.
//!
//! The paper reports the dynamic and static conditional branch counts of
//! the IBS traces; we report the same counts for the synthetic workloads
//! (at the configured trace length) next to the paper's values.

use super::helpers::columns;
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, Table};
use crate::runner::parallel_map;
use bpred_trace::stats::TraceStats;
use bpred_trace::workload::IbsBenchmark;

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let mut table = Table::with_columns(
        "Conditional branch counts (synthetic vs paper)",
        &[
            "benchmark",
            "dynamic",
            "static",
            "paper dynamic",
            "paper static",
            "kernel %",
            "taken %",
        ],
    );
    let stats = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        (
            bench,
            TraceStats::collect([columns(bench, opts.len_for(bench))]),
        )
    });
    for (bench, s) in stats {
        table.push_row(vec![
            bench.name().to_string(),
            s.dynamic_conditional.to_string(),
            s.static_conditional.to_string(),
            bench.paper_dynamic_branches().to_string(),
            bench.paper_static_branches().to_string(),
            pct(100.0 * s.kernel_ratio()),
            pct(100.0 * s.taken_ratio()),
        ]);
    }
    ExperimentOutput {
        id: "table1",
        title: "Table 1 — conditional branch counts".into(),
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_with_counts() {
        let out = run(&ExperimentOpts::quick());
        let t = &out.tables[0];
        assert_eq!(t.rows().len(), 6);
        for row in t.rows() {
            let dynamic: u64 = row[1].parse().unwrap();
            let static_: u64 = row[2].parse().unwrap();
            assert!(dynamic > 0);
            assert!(static_ > 0);
            assert!(static_ < dynamic);
        }
    }
}
