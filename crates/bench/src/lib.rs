//! Shared helpers for the criterion benchmarks, plus [`kernel_bench`],
//! the tracked dyn-vs-kernel throughput measurement behind `bpsim bench`.

pub mod kernel_bench;

use bpred_trace::workload::IbsBenchmark;

/// The workload used by the throughput benches.
pub fn default_bench() -> IbsBenchmark {
    IbsBenchmark::Groff
}
