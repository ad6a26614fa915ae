//! Resident-bytes pin for the trace cache: with columns as the only
//! trace layout, the six quick-length traces cost at most 10 bytes a
//! record. This file holds a single test so no other test shares the
//! process-wide cache while it measures.

use bpred_sim::experiments::ExperimentOpts;
use bpred_trace::cache;
use bpred_trace::workload::IbsBenchmark;

#[test]
fn quick_traces_stay_under_ten_bytes_a_record() {
    let opts = ExperimentOpts::quick();
    let records: usize = IbsBenchmark::all()
        .into_iter()
        .map(|bench| cache::columns(bench, opts.len_for(bench)).len())
        .sum();
    let stats = cache::stats();
    assert_eq!(stats.entries, 6);
    assert!(
        stats.resident_bytes <= 10 * records,
        "{} resident bytes for {records} records ({:.2} B/record)",
        stats.resident_bytes,
        stats.resident_bytes as f64 / records as f64
    );
}
