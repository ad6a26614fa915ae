//! Property tests: the monomorphized kernels and the shared FA-LRU walk
//! over cached trace columns are bit-identical to the `dyn` engine over a
//! freshly generated stream on random specs and seeded workloads, and
//! `run_specs` falls back to the `dyn` path for specs without a fast
//! path. The delayed and observed kernel runs match their dyn oracles:
//! `engine::run_delayed`, `duel::duel` and `Gskew::is_unanimous`.

use bpred_core::gskew::Gskew;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_core::spec::{parse_spec, PredictorSpec};
use bpred_sim::duel;
use bpred_sim::engine::{self, NovelPolicy};
use bpred_sim::kernel::{self, run_specs, Job, PredictorKernel, Unit};
use bpred_trace::cache;
use bpred_trace::record::BranchKind;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use proptest::{prop_assert, prop_assert_eq};

/// A random kernel-eligible spec string built from raw draws. `ctr` is
/// the counter width (1..=7) of every family that has one; `2bcgskew`
/// is 2-bit only.
fn spec_from(
    family: u8,
    n: u32,
    h: u32,
    ctr: u8,
    wide: bool,
    total: bool,
    skew_off: bool,
) -> String {
    match family % 6 {
        0 => format!("bimodal:n={n},ctr={ctr}"),
        1 => format!("gshare:n={n},h={h},ctr={ctr}"),
        2 => format!("gselect:n={n},h={h},ctr={ctr}"),
        3 => {
            let name = if wide { "egskew" } else { "gskew" };
            let banks = if wide { 5 } else { 3 };
            let update = if total { "total" } else { "partial" };
            let skew = if skew_off { "off" } else { "on" };
            // n >= 2 for the skewing functions.
            format!(
                "{name}:n={},h={h},banks={banks},update={update},skew={skew},ctr={ctr}",
                n.max(2)
            )
        }
        4 => format!("mcfarling:n={n},h={h},ctr={ctr}"),
        // n >= 2 for the skewing functions.
        _ => format!("2bcgskew:n={},h={h}", n.max(2)),
    }
}

/// A random spec of the de-aliasing families built from raw draws:
/// `aux` is `agree`'s `bias` or `bimode`'s `choice` table log2 (1..=14),
/// `bht`/`l` the per-address first level, `total` the update policy.
#[allow(clippy::too_many_arguments)]
fn antialias_spec_from(
    family: u8,
    n: u32,
    h: u32,
    ctr: u8,
    aux: u32,
    bht: u32,
    l: u32,
    total: bool,
) -> String {
    let update = if total { "total" } else { "partial" };
    match family % 5 {
        0 => format!("agree:n={n},h={h},bias={aux},ctr={ctr}"),
        1 => format!("bimode:n={n},h={h},choice={aux},ctr={ctr}"),
        2 => format!("pas:bht={bht},l={l},n={n},ctr={ctr}"),
        // n >= 2 for the skewing functions.
        3 => format!(
            "spas:bht={bht},l={l},n={},ctr={ctr},update={update}",
            n.max(2)
        ),
        _ => format!("shgskew:n={},h={h},update={update}", n.max(2)),
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
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        skew_off in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec = spec_from(family, n, h, ctr, wide, total, skew_off);
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
        // One kernel row, one dyn-only row (setassoc has no fast path),
        // in both orders: routing must preserve order and bit-identity.
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let specs = vec![
            format!("gskew:n={},h={h}", n.max(2)),
            format!("setassoc:n={n},ways=2,h={h}"),
            format!("gshare:n={n},h={h}"),
        ];
        for spec in &specs[1..2] {
            let jobs = kernel::plan(&[Unit::Spec(spec.clone())]).unwrap();
            prop_assert!(
                matches!(&jobs[..], [(rows, Job::Dyn(_))] if rows == &[0]),
                "{} unexpectedly grew a fast path; pick another fallback family",
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

    #[test]
    fn antialias_kernels_match_run_with(
        family in proptest::any::<u8>(),
        n in 1u32..=13,
        h in 0u32..=18,
        ctr in 1u8..=7,
        aux in 1u32..=14,
        bht in 1u32..=12,
        l in 1u32..=16,
        total in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec = antialias_spec_from(family, n, h, ctr, aux, bht, l, total);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let structured = PredictorSpec::parse(&spec).expect("generated specs parse");
        let mut kernel =
            PredictorKernel::from_spec(&structured).expect("generated specs are kernel-eligible");
        let fast = kernel.run(&cols);
        let mut predictor = parse_spec(&spec).expect("generated specs build");
        let fresh = bench.spec_seeded(seed).build().take_conditionals(len);
        let slow = engine::run_with(&mut predictor, fresh, NovelPolicy::Count);
        prop_assert_eq!(
            fast, slow,
            "{} diverges from the dyn path on {:?} len {} seed {:#x}",
            &spec, bench, len, seed
        );
    }

    #[test]
    fn lru_walk_matches_run_many_on_random_capacity_lists(
        // (log2 capacity or 15 for ideal, extra entries, ctr, miss taken)
        rows in proptest::collection::vec(
            (0u32..=15, 0u64..4, 1u8..=7, proptest::any::<bool>()),
            1..8,
        ),
        h in 0u32..=12,
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        // Capacities run from 1 to far above any quick trace's pair
        // count, with duplicates whenever two draws coincide; 15 draws an
        // `ideal` row.
        let specs: Vec<String> = rows
            .iter()
            .map(|&(log2, extra, ctr, miss_taken)| {
                if log2 == 15 {
                    format!("ideal:h={h},ctr={ctr}")
                } else {
                    let miss = if miss_taken { "taken" } else { "nottaken" };
                    let cap = (1u64 << log2) + extra;
                    format!("falru:cap={cap},h={h},ctr={ctr},miss={miss}")
                }
            })
            .collect();
        let units: Vec<_> = specs.iter().cloned().map(Unit::Spec).collect();
        let jobs = kernel::plan(&units).unwrap();
        prop_assert!(
            matches!(&jobs[..], [(_, Job::Walk(_))]),
            "one walk for {:?}",
            &specs
        );
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 2).unwrap();
            let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
            let reference = engine::run_many(&mut predictors, &cols, policy);
            prop_assert_eq!(
                routed, reference,
                "{:?} diverges under {:?} on {:?} len {} seed {:#x}",
                &specs, policy, bench, len, seed
            );
        }
    }
}

/// A random spec of any of the nine table families, all of which have
/// delayed and observed kernel runs: [`spec_from`]'s six (`skew=on`)
/// and [`antialias_spec_from`]'s five, with `n` doubling as the `bias`,
/// `choice` and `bht` table log2 and `h` as the local history length.
fn hooked_spec_from(family: u8, n: u32, h: u32, ctr: u8, wide: bool, total: bool) -> String {
    match family % 11 {
        f @ 0..=5 => spec_from(f, n, h, ctr, wide, total, false),
        f => antialias_spec_from(f - 6, n, h, ctr, n, n, h.max(1), total),
    }
}

proptest::proptest! {
    #[test]
    fn delayed_kernels_match_run_delayed(
        family in proptest::any::<u8>(),
        n in 1u32..=12,
        h in 0u32..=16,
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        delay in 0usize..=40,
        bench_i in proptest::any::<u8>(),
        len in 0u64..1_200,
        seed in proptest::any::<u64>(),
    ) {
        let spec = hooked_spec_from(family, n, h, ctr, wide, total);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let mut kernel = PredictorKernel::from_spec(&PredictorSpec::parse(&spec).unwrap())
            .expect("generated specs are kernel-eligible");
        let fast = kernel.run_delayed(&cols, delay);
        let mut predictor = parse_spec(&spec).unwrap();
        let slow = engine::run_delayed(&mut predictor, cols.records(), NovelPolicy::Count, delay);
        prop_assert_eq!(
            fast, slow,
            "{} at delay {} diverges on {:?} len {} seed {:#x}",
            &spec, delay, bench, len, seed
        );
    }

    #[test]
    fn delay_zero_is_the_plain_run(
        n in 1u32..=12,
        h in 0u32..=16,
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 0u64..1_200,
        seed in proptest::any::<u64>(),
    ) {
        // `ext-delay` serves its delay-0 rows as plain cells, so the two
        // runs must agree for every family.
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        for family in 0..11 {
            let spec = hooked_spec_from(family, n, h, ctr, wide, total);
            let kernel = || {
                PredictorKernel::from_spec(&PredictorSpec::parse(&spec).unwrap())
                    .expect("generated specs are kernel-eligible")
            };
            prop_assert_eq!(
                kernel().run_delayed(&cols, 0),
                kernel().run(&cols),
                "{} at delay 0 differs from the plain run on {:?} len {} seed {:#x}",
                &spec, bench, len, seed
            );
        }
    }

    #[test]
    fn kernel_duel_matches_the_dyn_duel(
        family_a in proptest::any::<u8>(),
        family_b in proptest::any::<u8>(),
        n in 1u32..=12,
        h_a in 0u32..=16,
        h_b in 0u32..=16,
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 0u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec_a = hooked_spec_from(family_a, n, h_a, ctr, wide, total);
        let spec_b = hooked_spec_from(family_b, n, h_b, 2, !wide, !total);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let fast = duel::kernel_duel(
            &PredictorSpec::parse(&spec_a).unwrap(),
            &PredictorSpec::parse(&spec_b).unwrap(),
            &cols,
        )
        .expect("both specs have kernels");
        let mut a = parse_spec(&spec_a).unwrap();
        let mut b = parse_spec(&spec_b).unwrap();
        let slow = duel::duel(&mut a, &mut b, cols.records(), NovelPolicy::Count);
        prop_assert_eq!(
            fast, slow,
            "{} vs {} diverges on {:?} len {} seed {:#x}",
            &spec_a, &spec_b, bench, len, seed
        );
    }

    #[test]
    fn observed_votes_match_is_unanimous(
        n in 2u32..=12,
        h in 0u32..=16,
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 0u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec = spec_from(3, n, h, ctr, wide, total, false);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        // (unanimous, unanimous and wrong, split, split and wrong)
        let mut fast = [0u64; 4];
        PredictorKernel::from_spec(&PredictorSpec::parse(&spec).unwrap())
            .expect("a gskew kernel")
            .run_observed(&cols, |votes, predicted, taken| {
                let split = usize::from(!votes.iter().all(|&v| v == votes[0]));
                fast[2 * split] += 1;
                fast[2 * split + 1] += u64::from(predicted != taken);
            });
        let mut slow = [0u64; 4];
        let mut gskew = gskew_from(&spec);
        for r in cols.records() {
            if r.kind == BranchKind::Conditional {
                let split = usize::from(!gskew.is_unanimous(r.pc));
                let wrong = gskew.predict(r.pc).outcome != Outcome::from(r.taken);
                slow[2 * split] += 1;
                slow[2 * split + 1] += u64::from(wrong);
                gskew.update(r.pc, Outcome::from(r.taken));
            } else {
                gskew.record_unconditional(r.pc);
            }
        }
        prop_assert_eq!(fast, slow, "{} on {:?} len {} seed {:#x}", &spec, bench, len, seed);
    }
}

/// The concrete [`Gskew`] a gskew-family spec describes.
fn gskew_from(spec: &str) -> Gskew {
    let PredictorSpec::Gskew {
        n,
        h,
        banks,
        ctr,
        update,
        enhanced,
        skewing,
    } = PredictorSpec::parse(spec).unwrap()
    else {
        panic!("{spec} is not a gskew spec");
    };
    Gskew::builder()
        .bank_entries_log2(n)
        .history_bits(h)
        .banks(banks)
        .counter(ctr)
        .update_policy(update)
        .enhanced(enhanced)
        .identical_indexing(!skewing)
        .build()
        .unwrap()
}
