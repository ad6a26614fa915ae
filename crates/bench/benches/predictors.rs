//! Prediction throughput of every predictor family: how many dynamic
//! branches per second each structure can simulate.

use bpred_bench::default_bench;
use bpred_core::spec::parse_spec;
use bpred_sim::engine;
use bpred_trace::cache;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TRACE_LEN: u64 = 50_000;

fn predictor_throughput(c: &mut Criterion) {
    let trace = cache::columns(default_bench(), TRACE_LEN);
    let mut group = c.benchmark_group("predict+update");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for spec in [
        "bimodal:n=12",
        "gshare:n=12,h=8",
        "gselect:n=12,h=8",
        "gskew:n=12,h=8",
        "gskew:n=12,h=8,banks=5",
        "gskew:n=12,h=8,update=total",
        "egskew:n=12,h=8",
        "mcfarling:n=12,h=8",
        "2bcgskew:n=12,h=8",
        "shgskew:n=12,h=8",
        "agree:n=12,h=8",
        "bimode:n=12,h=8",
        "pas:bht=10,l=8,n=12",
        "spas:bht=10,l=8,n=10",
        "falru:cap=4096,h=8",
        "setassoc:n=10,ways=4,h=8",
        "ideal:h=8",
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(spec), spec, |b, spec| {
            b.iter(|| {
                let mut predictor = parse_spec(spec).expect("valid spec");
                engine::run(&mut predictor, trace.records())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, predictor_throughput);
criterion_main!(benches);
