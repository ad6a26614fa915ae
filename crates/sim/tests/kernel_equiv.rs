//! Property tests: the monomorphized kernels over cached trace columns
//! are bit-identical to the `dyn` engine over a freshly generated stream
//! on random specs and seeded workloads, and `run_specs` falls back to
//! the `dyn` path for specs without a kernel.

use bpred_core::spec::{parse_spec, PredictorSpec};
use bpred_sim::engine::{self, NovelPolicy};
use bpred_sim::kernel::{run_specs, PredictorKernel};
use bpred_trace::cache;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use proptest::{prop_assert, prop_assert_eq};

/// A random kernel-eligible spec string built from raw draws.
fn spec_from(family: u8, n: u32, h: u32, wide: bool, total: bool, skew_off: bool) -> String {
    match family % 4 {
        0 => format!("bimodal:n={n}"),
        1 => format!("gshare:n={n},h={h}"),
        2 => format!("gselect:n={n},h={h}"),
        _ => {
            let name = if wide { "egskew" } else { "gskew" };
            let banks = if wide { 5 } else { 3 };
            let update = if total { "total" } else { "partial" };
            let skew = if skew_off { "off" } else { "on" };
            // n >= 2 for the skewing functions.
            format!(
                "{name}:n={},h={h},banks={banks},update={update},skew={skew}",
                n.max(2)
            )
        }
    }
}

fn bench_from(i: u8) -> IbsBenchmark {
    let all = IbsBenchmark::all();
    all[i as usize % all.len()]
}

proptest::proptest! {
    #[test]
    fn kernel_matches_run_with_on_random_specs(
        family in proptest::any::<u8>(),
        n in 1u32..=13,
        h in 0u32..=18,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        skew_off in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec = spec_from(family, n, h, wide, total, skew_off);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);

        let structured = PredictorSpec::parse(&spec).expect("generated specs parse");
        let mut kernel =
            PredictorKernel::from_spec(&structured).expect("generated specs are kernel-eligible");
        let fast = kernel.run(&cols);

        let mut predictor = parse_spec(&spec).expect("generated specs build");
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let fresh = bench.spec_seeded(seed).build().take_conditionals(len);
            let slow = engine::run_with(&mut predictor, fresh, policy);
            prop_assert_eq!(
                fast, slow,
                "{} diverges from the dyn path under {:?} on {:?} len {} seed {:#x}",
                &spec, policy, bench, len, seed
            );
            // Fresh predictor for the second policy pass.
            predictor = parse_spec(&spec).expect("generated specs build");
        }
        // Kernels never flag predictions novel, which is what makes the
        // two policies interchangeable above.
        prop_assert_eq!(fast.novel, 0);
    }

    #[test]
    fn run_specs_matches_run_many_with_dyn_fallback_rows(
        n in 2u32..=10,
        h in 0u32..=10,
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_000,
        seed in proptest::any::<u64>(),
    ) {
        // One kernel row, one dyn-only row (mcfarling has no kernel), in
        // both orders: routing must preserve order and bit-identity.
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let specs = vec![
            format!("gskew:n={},h={h}", n.max(2)),
            format!("mcfarling:n={n},h={h}"),
            format!("gshare:n={n},h={h}"),
        ];
        for spec in &specs[1..2] {
            let structured = PredictorSpec::parse(spec).unwrap();
            prop_assert!(
                PredictorKernel::from_spec(&structured).is_none(),
                "{} unexpectedly grew a kernel; pick another fallback family",
                spec
            );
        }
        let routed = run_specs(&specs, &cols, NovelPolicy::Count, 2).unwrap();
        let mut predictors: Vec<_> = specs
            .iter()
            .map(|s| parse_spec(s).unwrap())
            .collect();
        let reference = engine::run_many(&mut predictors, &cols, NovelPolicy::Count);
        prop_assert_eq!(routed, reference);
    }
}
