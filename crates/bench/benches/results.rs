//! Results-store benchmarks: fingerprinting, JSON round-trips, and the
//! put/get path the resume layer rides on every cell. These bound the
//! bookkeeping overhead a `--resume` run adds on top of simulation.

use bpred_results::campaign::CampaignArtifact;
use bpred_results::fingerprint::fnv1a_fields;
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use criterion::{criterion_group, criterion_main, Criterion};

fn record(i: u64) -> ResultRecord {
    let key = CellKey {
        bench: "groff".to_string(),
        spec: format!("gskew:n={},h=8", 8 + (i % 8)),
        len: 1_000_000,
        seed: 0x5EED_0000 + i,
        policy: "count".to_string(),
    };
    let fingerprint = key.fingerprint("workload-params", "1");
    ResultRecord {
        experiment: "bench".to_string(),
        key,
        fingerprint,
        engine_version: "1".to_string(),
        conditional: 1_000_000,
        mispredicted: 48_123 + i,
        novel: 291,
        elapsed_ms: 104.2,
    }
}

fn fingerprinting(c: &mut Criterion) {
    let mut group = c.benchmark_group("results-fingerprint");
    group.bench_function("cell-key", |b| {
        let key = record(0).key;
        b.iter(|| key.fingerprint("workload-params-of-representative-length", "1"));
    });
    group.bench_function("fnv1a-fields", |b| {
        b.iter(|| fnv1a_fields(&["cell/v1", "groff", "gskew:n=12,h=8", "1000000", "5eed0000"]));
    });
    group.finish();
}

fn json_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("results-json");
    let rec = record(0);
    let text = rec.to_json().to_string_compact();
    group.bench_function("record-serialize", |b| {
        b.iter(|| rec.to_json().to_string_compact())
    });
    group.bench_function("record-parse", |b| {
        b.iter(|| {
            let json = bpred_results::json::Json::parse(&text).unwrap();
            ResultRecord::from_json(&json).unwrap()
        })
    });
    let artifact = CampaignArtifact {
        name: "bench".to_string(),
        engine_version: "1".to_string(),
        seed: 0x5EED_0000,
        experiments: Vec::new(),
    };
    group.bench_function("artifact-serialize", |b| {
        b.iter(|| artifact.to_pretty_string())
    });
    group.finish();
}

fn store_put_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("results-store");
    group.sample_size(20);
    let root = std::env::temp_dir().join(format!("bpred-bench-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = ResultsStore::open(&root).unwrap();
    // `put` includes the append to the handle's segment — the real
    // per-simulated-cell cost of --save-results.
    let mut i = 0u64;
    group.bench_function("put", |b| {
        b.iter(|| {
            i += 1;
            store.put(&record(i)).unwrap()
        })
    });
    let warm = record(1);
    group.bench_function("get-hit", |b| {
        b.iter(|| store.get(warm.fingerprint).expect("stored above"))
    });
    group.bench_function("get-miss", |b| b.iter(|| store.get(0xDEAD_BEEF)));
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, fingerprinting, json_roundtrip, store_put_get);
criterion_main!(benches);
