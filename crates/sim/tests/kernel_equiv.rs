//! Property tests: the monomorphized table kernels over cached trace
//! columns are bit-identical to the naive per-record reference models of
//! `reference` driven by the `dyn` engine over a freshly generated
//! stream, on random specs and seeded workloads; the shared LRU walk
//! matches the naive LRU and unbounded models on mixed `falru`/`ideal`
//! rows and on all-`ideal` rows (its first-use form), and so does the
//! `falru`/`ideal` predictor `PredictorSpec::build` returns, driven
//! record by record; the set walk
//! matches the naive set-associative model inside mixed `run_specs`
//! calls. The delayed and
//! observed kernel runs match the reference models under
//! `engine::run_delayed`, `duel::duel` and the reference gskew's
//! `is_unanimous`, and the per-record "wrong" bits of every family's run
//! are the reference model's misses.

mod reference;

use bpred_aliasing::batch;
use bpred_core::index::IndexFunction;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_core::spec::PredictorSpec;
use bpred_sim::duel;
use bpred_sim::engine::{self, NovelPolicy, RunResult};
use bpred_sim::kernel::{self, run_specs, Job, PredictorKernel, Unit};
use bpred_trace::cache;
use bpred_trace::record::BranchKind;
use bpred_trace::soa::TraceColumns;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;
use proptest::{prop_assert, prop_assert_eq};

/// Each spec's reference model, run alone over `cols` under `policy`.
fn modelled(specs: &[String], cols: &TraceColumns, policy: NovelPolicy) -> Vec<RunResult> {
    let run = |spec| engine::run_with(&mut reference::oracle(spec), cols.records(), policy);
    specs.iter().map(|spec| run(spec)).collect()
}

/// A random kernel-eligible spec string built from raw draws. `ctr` is
/// the counter width (1..=7) of every family that has one; `2bcgskew`
/// is 2-bit only, and the static families take no parameter.
fn spec_from(
    family: u8,
    n: u32,
    h: u32,
    ctr: u8,
    wide: bool,
    total: bool,
    skew_off: bool,
) -> String {
    match family % 8 {
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
        5 => format!("2bcgskew:n={},h={h}", n.max(2)),
        6 => "always-taken".to_string(),
        _ => "always-nottaken".to_string(),
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

        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let mut model = reference::oracle(&spec);
            let fresh = bench.spec_seeded(seed).build().take_conditionals(len);
            let slow = engine::run_with(&mut model, fresh, policy);
            prop_assert_eq!(
                fast, slow,
                "{} diverges from its reference model under {:?} on {:?} len {} seed {:#x}",
                &spec, policy, bench, len, seed
            );
        }
        // Kernels never flag predictions novel, which is what makes the
        // two policies interchangeable above.
        prop_assert_eq!(fast.novel, 0);
    }

    #[test]
    fn set_walks_match_the_reference_model_among_other_jobs(
        // (n, ways, h, ctr, miss taken)
        sets in proptest::collection::vec(
            (1u32..=10, 1usize..=8, 0u32..=12, 1u8..=7, proptest::any::<bool>()),
            1..5,
        ),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_200,
        seed in proptest::any::<u64>(),
    ) {
        // Every set row draws its own geometry; a kernel row and a walk
        // row share the call, so routing must keep order and identity.
        let mut specs: Vec<String> = sets
            .iter()
            .map(|&(n, ways, h, ctr, miss_taken)| {
                let miss = if miss_taken { "taken" } else { "nottaken" };
                format!("setassoc:n={n},ways={ways},h={h},ctr={ctr},miss={miss}")
            })
            .collect();
        let (n, h) = (sets[0].0, sets[0].2);
        specs.insert(1, format!("gskew:n={},h={h}", n.max(2)));
        specs.push(format!("falru:cap={},h={h}", 1 << n));
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 2).unwrap();
            let reference = modelled(&specs, &cols, policy);
            prop_assert_eq!(
                routed, reference,
                "{:?} diverges under {:?} on {:?} len {} seed {:#x}",
                &specs, policy, bench, len, seed
            );
        }
    }

    #[test]
    fn one_way_set_misses_are_direct_mapped_misses(
        n in 1u32..=12,
        h in 0u32..=12,
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        // A one-way table of gshare-indexed sets is the direct-mapped
        // tagged table of the three-C instruments.
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let spec = format!("setassoc:n={n},ways=1,h={h}");
        let set = run_specs(&[spec], &cols, NovelPolicy::Count, 1).unwrap()[0];
        let dm = batch::dm_pass(&cols, n, h, IndexFunction::Gshare);
        prop_assert_eq!(set.conditional, dm.references);
        prop_assert_eq!(set.novel, dm.misses);
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
        let mut model = reference::oracle(&spec);
        let fresh = bench.spec_seeded(seed).build().take_conditionals(len);
        let slow = engine::run_with(&mut model, fresh, NovelPolicy::Count);
        prop_assert_eq!(
            fast, slow,
            "{} diverges from its reference model on {:?} len {} seed {:#x}",
            &spec, bench, len, seed
        );
    }

    #[test]
    fn lru_walk_matches_the_models_on_random_capacity_lists(
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
            let reference = modelled(&specs, &cols, policy);
            prop_assert_eq!(
                routed, reference,
                "{:?} diverges under {:?} on {:?} len {} seed {:#x}",
                &specs, policy, bench, len, seed
            );
        }
    }

    #[test]
    fn all_ideal_walks_match_the_unbounded_model(
        ctrs in proptest::collection::vec(1u8..=7, 1..5),
        h in 0u32..=12,
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        // Every row unbounded: the walk tracks first uses alone.
        let specs: Vec<String> = ctrs.iter().map(|ctr| format!("ideal:h={h},ctr={ctr}")).collect();
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &cols, policy, 1).unwrap();
            let reference = modelled(&specs, &cols, policy);
            prop_assert_eq!(
                routed, reference,
                "{:?} diverges under {:?} on {:?} len {} seed {:#x}",
                &specs, policy, bench, len, seed
            );
        }
    }
    #[test]
    fn lru_predictors_match_the_naive_models_record_by_record(
        // log2 capacity, or 15 for an `ideal` spec
        log2 in 0u32..=15,
        extra in 0u64..4,
        h in 0u32..=12,
        ctr in 1u8..=7,
        miss_taken in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        // The `falru`/`ideal` predictor `build` returns, driven one record
        // at a time by the engine, against the naive most-recently-used
        // list; capacities run from 1 to 2^14+3.
        let spec = if log2 == 15 {
            format!("ideal:h={h},ctr={ctr}")
        } else {
            let miss = if miss_taken { "taken" } else { "nottaken" };
            let cap = (1u64 << log2) + extra;
            format!("falru:cap={cap},h={h},ctr={ctr},miss={miss}")
        };
        let bench = bench_from(bench_i);
        let built = PredictorSpec::parse(&spec).unwrap();
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let fresh = || bench.spec_seeded(seed).build().take_conditionals(len);
            let fast = engine::run_with(&mut built.build().unwrap(), fresh(), policy);
            let slow = engine::run_with(&mut reference::oracle(&spec), fresh(), policy);
            prop_assert_eq!(
                fast, slow,
                "{} diverges under {:?} on {:?} len {} seed {:#x}",
                &spec, policy, bench, len, seed
            );
        }
    }
}

/// A random spec of any of the table families, all of which have
/// delayed and observed kernel runs: [`spec_from`]'s eight (`skew=on`)
/// and [`antialias_spec_from`]'s five, with `n` doubling as the `bias`,
/// `choice` and `bht` table log2 and `h` as the local history length.
fn hooked_spec_from(family: u8, n: u32, h: u32, ctr: u8, wide: bool, total: bool) -> String {
    match family % 13 {
        f @ 0..=7 => spec_from(f, n, h, ctr, wide, total, false),
        f => antialias_spec_from(f - 8, n, h, ctr, n, n, h.max(1), total),
    }
}

/// A random spec of any family: [`hooked_spec_from`]'s thirteen table
/// families, `falru`, `ideal` and `setassoc`, with `wide` drawing the
/// tagged tables' miss prediction.
fn any_spec_from(family: u8, n: u32, h: u32, ctr: u8, wide: bool, total: bool) -> String {
    let miss = if wide { "taken" } else { "nottaken" };
    match family % 16 {
        13 => format!("falru:cap={},h={h},ctr={ctr},miss={miss}", 1 << n),
        14 => format!("ideal:h={h},ctr={ctr}"),
        15 => format!(
            "setassoc:n={},ways={},h={h},ctr={ctr},miss={miss}",
            n.min(8),
            n % 4 + 1
        ),
        f => hooked_spec_from(f, n, h, ctr, wide, total),
    }
}

proptest::proptest! {
    #[test]
    fn observed_bits_are_the_reference_models_per_record_misses(
        family in proptest::any::<u8>(),
        n in 1u32..=12,
        h in 0u32..=16,
        ctr in 1u8..=7,
        wide in proptest::any::<bool>(),
        total in proptest::any::<bool>(),
        bench_i in proptest::any::<u8>(),
        len in 0u64..1_500,
        seed in proptest::any::<u64>(),
    ) {
        let spec = any_spec_from(family, n, h, ctr, wide, total);
        let bench = bench_from(bench_i);
        let cols = cache::columns_seeded(bench, len, seed);
        let mut fast = Vec::new();
        let parsed = PredictorSpec::parse(&spec).unwrap();
        let run = kernel::run_spec_observed(&parsed, &cols, |wrong| fast.push(wrong))
            .expect("generated specs are in range");
        // Novel predictions are charged, as under `NovelPolicy::Count`.
        let mut model = reference::oracle(&spec);
        let mut slow = Vec::new();
        for r in cols.records() {
            if r.kind == BranchKind::Conditional {
                let outcome = Outcome::from(r.taken);
                slow.push(model.predict(r.pc).outcome != outcome);
                model.update(r.pc, outcome);
            } else {
                model.record_unconditional(r.pc);
            }
        }
        // The length, and the first record whose bits differ.
        let first = fast.iter().zip(&slow).position(|(fast, slow)| fast != slow);
        prop_assert_eq!(
            (fast.len(), first), (slow.len(), None),
            "{} diverges on {:?} len {} seed {:#x}", &spec, bench, len, seed
        );
        prop_assert_eq!(fast.iter().filter(|&&wrong| wrong).count() as u64, run.mispredicted);
        prop_assert_eq!(fast.len() as u64, run.conditional);
    }

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
        let mut model = reference::oracle(&spec);
        let slow = engine::run_delayed(&mut model, cols.records(), NovelPolicy::Count, delay);
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
        for family in 0..13 {
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
        .expect("generated specs are in range");
        let mut a = reference::oracle(&spec_a);
        let mut b = reference::oracle(&spec_b);
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
        let mut gskew = reference::gskew(&spec);
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
