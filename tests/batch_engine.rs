//! The batched engine contract: `kernel::run_specs`, the production
//! path that runs every spec of a call over a cached trace's columns,
//! must be bit-identical to running each spec's predictor alone with
//! `engine::run_with` over a freshly generated stream — for every
//! predictor family and both novel-branch accounting policies — and the
//! trace cache must hand out the same allocation for repeated lookups of
//! the same key.

use gskew::core::spec::parse_spec;
use gskew::sim::engine::{self, NovelPolicy};
use gskew::sim::kernel;
use gskew::trace::cache;
use gskew::trace::prelude::*;

/// One spec per predictor family the spec language exposes.
const FAMILY_SPECS: &[&str] = &[
    "gshare:n=8,h=4",
    "gselect:n=8,h=4",
    "bimodal:n=8",
    "gskew:n=8,h=4",
    "egskew:n=8,h=8",
    "mcfarling:n=8,h=6",
    "agree:n=13,h=8,bias=12",
    "bimode:n=12,h=8,choice=12",
];

fn assert_batch_matches_sequential(specs: &[&str], policy: NovelPolicy) {
    let bench = IbsBenchmark::Verilog;
    let len = 25_000;
    let trace = cache::columns(bench, len);

    let owned: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
    let batched = kernel::run_specs(&owned, &trace, policy, 2).unwrap();

    for (spec, got) in specs.iter().zip(batched) {
        let mut alone = parse_spec(spec).unwrap();
        let fresh = bench.spec().build().take_conditionals(len);
        let want = engine::run_with(&mut alone, fresh, policy);
        assert_eq!(got, want, "run_specs diverged from run_with for {spec}");
    }
}

#[test]
fn run_specs_matches_run_with_for_every_family() {
    assert_batch_matches_sequential(FAMILY_SPECS, NovelPolicy::Count);
}

#[test]
fn run_specs_matches_run_with_under_exclude_policy() {
    // `ideal` and `falru` report novel branches, so Exclude actually
    // changes their accounting; the aliased families must agree too.
    let specs = ["ideal:h=6", "falru:cap=256,h=4", "gskew:n=8,h=4"];
    assert_batch_matches_sequential(&specs, NovelPolicy::Exclude);
}

#[test]
fn cache_returns_the_same_allocation_per_key() {
    let bench = IbsBenchmark::Groff;
    let len = 12_000;
    let a = cache::columns(bench, len);
    let b = cache::columns(bench, len);
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "two lookups of one (benchmark, len) key must share storage"
    );
    // Different keys must not share.
    let c = cache::columns(bench, len + 1);
    assert!(!std::sync::Arc::ptr_eq(&a, &c));
}
