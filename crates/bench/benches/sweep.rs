//! Benchmarks the trace-cache + batched-engine sweep path against the
//! per-cell baseline it replaced: generating a fresh trace for every
//! (predictor, benchmark) cell and running each predictor alone.
//!
//! The batched path builds the benchmark's trace once (as cached
//! columns) and drives the whole predictor column over it in a single
//! `run_many` pass, so it should win by well over the 1.5x acceptance bar.

use bpred_core::predictor::BranchPredictor;
use bpred_core::spec::parse_spec;
use bpred_sim::engine::{self, NovelPolicy};
use bpred_trace::cache;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use criterion::{criterion_group, criterion_main, Criterion};

const BENCH: IbsBenchmark = IbsBenchmark::Groff;
const LEN: u64 = 60_000;

fn specs() -> Vec<String> {
    (6..=11u32).map(|n| format!("gshare:n={n},h=4")).collect()
}

fn per_cell_fresh(specs: &[String]) -> Vec<f64> {
    specs
        .iter()
        .map(|spec| {
            let mut predictor = parse_spec(spec).expect("spec parses");
            let trace = BENCH.spec().build().take_conditionals(LEN);
            engine::run(&mut predictor, trace).mispredict_pct()
        })
        .collect()
}

fn cached_batched(specs: &[String]) -> Vec<f64> {
    let trace = cache::columns(BENCH, LEN);
    let mut predictors: Vec<Box<dyn BranchPredictor>> = specs
        .iter()
        .map(|spec| parse_spec(spec).expect("spec parses"))
        .collect();
    engine::run_many(&mut predictors, &trace, NovelPolicy::Count)
        .into_iter()
        .map(|r| r.mispredict_pct())
        .collect()
}

fn sweep_benches(c: &mut Criterion) {
    let specs = specs();
    // Sanity check outside the timing loop: both paths must agree cell
    // for cell, otherwise the comparison is meaningless.
    assert_eq!(per_cell_fresh(&specs), cached_batched(&specs));

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("per_cell_fresh", |b| b.iter(|| per_cell_fresh(&specs)));
    group.bench_function("cached_batched", |b| b.iter(|| cached_batched(&specs)));
    group.finish();
}

criterion_group!(benches, sweep_benches);
criterion_main!(benches);
