//! Throughput of the substrates: workload generation, trace file I/O, and
//! the aliasing instruments (tagged tables, FA-LRU, stack distance).

use bpred_aliasing::cursor::PairCursor;
use bpred_aliasing::distance::LastUseDistance;
use bpred_aliasing::fully_assoc::TaggedFullyAssociative;
use bpred_aliasing::tagged::TaggedDirectMapped;
use bpred_bench::default_bench;
use bpred_core::index::IndexFunction;
use bpred_trace::cache;
use bpred_trace::io::{read_binary, write_binary};
use bpred_trace::record::BranchKind;
use bpred_trace::stream::TraceSourceExt;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const TRACE_LEN: u64 = 50_000;

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload-generation");
    group.throughput(Throughput::Elements(TRACE_LEN));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("ibs-groff", |b| {
        b.iter(|| {
            default_bench()
                .spec()
                .build()
                .take_conditionals(TRACE_LEN)
                .count()
        });
    });
    group.finish();
}

fn trace_io(c: &mut Criterion) {
    let trace = cache::columns(default_bench(), TRACE_LEN);
    let mut serialized = Vec::new();
    write_binary(&mut serialized, trace.records()).expect("in-memory write");
    let mut group = c.benchmark_group("trace-io");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("write-binary", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(serialized.len());
            write_binary(&mut buf, trace.records()).expect("in-memory write");
            buf
        });
    });
    group.bench_function("read-binary", |b| {
        b.iter(|| read_binary(serialized.as_slice()).expect("valid trace"));
    });
    group.finish();
}

fn aliasing_instruments(c: &mut Criterion) {
    let trace = cache::columns(default_bench(), TRACE_LEN);
    let mut group = c.benchmark_group("aliasing");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("tagged-direct-mapped", |b| {
        b.iter(|| {
            let mut cursor = PairCursor::new(8);
            let mut table = TaggedDirectMapped::new(12, IndexFunction::Gshare);
            for r in trace.records() {
                if r.kind == BranchKind::Conditional {
                    table.access(&cursor.vector(r.pc));
                }
                cursor.advance(&r);
            }
            table.misses()
        });
    });
    group.bench_function("tagged-fully-associative", |b| {
        b.iter(|| {
            let mut cursor = PairCursor::new(8);
            let mut table = TaggedFullyAssociative::new(4096);
            for r in trace.records() {
                if r.kind == BranchKind::Conditional {
                    table.access(cursor.pair(r.pc));
                }
                cursor.advance(&r);
            }
            table.misses()
        });
    });
    group.bench_function("stack-distance", |b| {
        b.iter(|| {
            let mut cursor = PairCursor::new(8);
            let mut distance = LastUseDistance::new();
            let mut sum = 0u64;
            for r in trace.records() {
                if r.kind == BranchKind::Conditional {
                    sum += distance.observe(cursor.pair(r.pc)).unwrap_or(0);
                }
                cursor.advance(&r);
            }
            sum
        });
    });
    group.finish();
}

fn duel_and_offenders(c: &mut Criterion) {
    use bpred_aliasing::offenders::OffenderAnalysis;
    use bpred_core::spec::parse_spec;
    use bpred_sim::duel::duel;
    use bpred_sim::engine::NovelPolicy;
    use bpred_trace::io2::{read_compact, write_compact};

    let trace = cache::columns(default_bench(), TRACE_LEN);
    let mut group = c.benchmark_group("analysis");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("duel-gshare-vs-gskew", |b| {
        b.iter(|| {
            let mut p1 = parse_spec("gshare:n=12,h=8").expect("valid spec");
            let mut p2 = parse_spec("gskew:n=12,h=8").expect("valid spec");
            duel(&mut p1, &mut p2, trace.records(), NovelPolicy::Count)
        });
    });
    group.bench_function("offender-analysis", |b| {
        b.iter(|| {
            OffenderAnalysis::new(12, 8, IndexFunction::Gshare)
                .run(trace.records())
                .total_aliasing()
        });
    });
    group.bench_function("write-compact", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            write_compact(&mut buf, trace.records()).expect("in-memory write");
            buf
        });
    });
    let mut compact = Vec::new();
    write_compact(&mut compact, trace.records()).expect("in-memory write");
    group.bench_function("read-compact", |b| {
        b.iter(|| read_compact(compact.as_slice()).expect("valid trace"));
    });
    group.finish();
}

criterion_group!(
    benches,
    workload_generation,
    trace_io,
    aliasing_instruments,
    duel_and_offenders
);
criterion_main!(benches);
