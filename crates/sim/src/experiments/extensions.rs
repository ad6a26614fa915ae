//! Extension experiments beyond the paper's printed evaluation:
//!
//! * **ablation-skew** — gskew with the inter-bank dispersion disabled
//!   (all banks share `f0`): isolates where the benefit comes from.
//! * **ext-antialias** — the 1997 anti-aliasing design space at equal
//!   storage: gskew vs agree vs bi-mode vs plain gshare.
//! * **ext-pas** — section 7's per-address future work: PAs vs skewed
//!   PAs vs global gshare.
//! * **ext-multiprogram** — multiprogrammed stress (three workloads
//!   round-robined): how much each design degrades when the working sets
//!   are stacked.
//! * **ext-nature** — destructive / harmless / constructive decomposition
//!   of gshare aliasing (the Young–Gloy–Smith taxonomy of section 1),
//!   explaining figure 11's overestimation.
//! * **ext-encoding** — section 7's "distributed predictor encodings"
//!   question, answered with the EV8-style shared-hysteresis split.
//! * **ext-confidence** — the majority vote as a free confidence signal.
//! * **ext-delay** — retirement-time training: the cost of stale tables
//!   and history.
//! * **ext-assoc** — how much tagged associativity would buy (the
//!   quantified version of section 3.3's dismissal).
//! * **ext-seeds** — the headline comparison re-run across regenerated
//!   workloads (seed robustness).

use super::helpers::{
    bench_sweep_table, columns, history_labels, size_labels, spec_sweep_table, stream_kernels,
};
use super::{ExperimentOpts, ExperimentOutput};
use crate::engine::NovelPolicy;
use crate::kernel::{self, PredictorKernel};
use crate::report::{pct, Table};
use crate::resume::{self, Unit};
use crate::runner::parallel_map;
use bpred_aliasing::nature::{AliasingNature, NatureCounts};
use bpred_core::counter::CounterKind;
use bpred_core::index::IndexFunction;
use bpred_core::spec::{parse_spec, PredictorSpec};
use bpred_trace::mix::MultiProgram;
use bpred_trace::workload::IbsBenchmark;

pub(super) fn skew_ablation(opts: &ExperimentOpts) -> ExperimentOutput {
    const SIZES: std::ops::RangeInclusive<u32> = 6..=14;
    let ns: Vec<u32> = SIZES.collect();
    let labels = size_labels(*SIZES.start(), *SIZES.end());
    let make = |template: &'static str| {
        let ns = ns.clone();
        spec_sweep_table(
            format!("{template} mispredict % (h=4)"),
            "bank entries",
            &labels,
            opts,
            move |row| template.replace("{n}", &ns[row].to_string()),
        )
    };
    ExperimentOutput {
        id: "ablation-skew",
        title: "Ablation — inter-bank dispersion on/off: 3 banks with distinct f0..f2 \
                vs 3 banks sharing f0 (degenerates to one bank) vs a true single bank"
            .into(),
        tables: vec![
            make("gskew:n={n},h=4"),
            make("gskew:n={n},h=4,skew=off"),
            make("gshare:n={n},h=4"),
        ],
    }
}

pub(super) fn antialias(opts: &ExperimentOpts) -> ExperimentOutput {
    // Roughly equal storage (~24-32 Kbit of counters) per design.
    let labels = history_labels(2, 14);
    let specs: [(&str, &str); 4] = [
        ("3x4K gskew (24.6 Kbit)", "gskew:n=12,h={h}"),
        (
            "8K agree + 4K bias bits (24.6 Kbit)",
            "agree:n=13,h={h},bias=12",
        ),
        (
            "2x4K bimode + 4K choice (24.6 Kbit)",
            "bimode:n=12,h={h},choice=12",
        ),
        ("16K gshare (32.8 Kbit)", "gshare:n=14,h={h}"),
    ];
    let tables = specs
        .iter()
        .map(|(title, template)| {
            spec_sweep_table(
                format!("{title} mispredict % vs history length"),
                "history bits",
                &labels,
                opts,
                |row| template.replace("{h}", &(row + 2).to_string()),
            )
        })
        .collect();
    ExperimentOutput {
        id: "ext-antialias",
        title: "Extension — the 1997 anti-aliasing design space at comparable storage".into(),
        tables,
    }
}

pub(super) fn pas(opts: &ExperimentOpts) -> ExperimentOutput {
    const SIZES: std::ops::RangeInclusive<u32> = 8..=14;
    let ns: Vec<u32> = SIZES.collect();
    let labels = size_labels(*SIZES.start(), *SIZES.end());
    let make = |title: &str, template: &'static str| {
        let ns = ns.clone();
        spec_sweep_table(
            title.to_string(),
            "pattern entries",
            &labels,
            opts,
            move |row| template.replace("{n}", &ns[row].to_string()),
        )
    };
    ExperimentOutput {
        id: "ext-pas",
        title: "Extension — per-address history schemes (section 7 future work): \
                PAs vs skewed PAs vs global gshare. Finding: skewing LOSES here — \
                PAs' concatenated index shares pattern entries constructively \
                (same local pattern => same outcome), and dispersion forfeits that"
            .into(),
        tables: vec![
            make(
                "PAs (1K x 8-bit local histories) mispredict %",
                "pas:bht=10,l=8,n={n}",
            ),
            make(
                "Skewed PAs (3 banks of the same total, partial) mispredict %",
                "spas:bht=10,l=8,n={n}",
            ),
            make("gshare (h=8) mispredict %", "gshare:n={n},h=8"),
        ],
    }
}

pub(super) fn multiprogram(opts: &ExperimentOpts) -> ExperimentOutput {
    const MIX: [IbsBenchmark; 3] = [IbsBenchmark::Groff, IbsBenchmark::Gs, IbsBenchmark::Verilog];
    let specs = [
        "gshare:n=14,h=8",
        "gskew:n=12,h=8",
        "egskew:n=12,h=10",
        "agree:n=13,h=8,bias=12",
        "bimode:n=12,h=8,choice=12",
        "2bcgskew:n=12,h=10",
    ];
    let len = opts.len_for(IbsBenchmark::Groff);
    // OS-scale time slices, shrunk proportionally for quick runs so the
    // mix actually switches several times.
    let slice = (len / 12).clamp(500, 40_000);

    // The three components' solo rows are one batch of the cell
    // pipeline.
    let units: Vec<Unit> = specs.iter().map(|s| Unit::Spec(s.to_string())).collect();
    let solo = resume::run_cells(
        &MIX.map(|bench| (bench, len)),
        NovelPolicy::Count,
        &units,
        opts.threads,
    );
    // The mixed run sees the same total number of branches.
    let mut mix = MultiProgram::new(MIX.iter().map(|b| b.spec()).collect(), slice);
    let mixed = stream_kernels(&specs, len, |n| mix.fill(n));
    let rows = specs
        .iter()
        .zip(mixed)
        .enumerate()
        .map(|(row, (spec, mixed))| {
            // Solo mean across the three mixed components.
            let solo = solo.iter().map(|col| col[row][0].mispredict_pct());
            let solo_mean = solo.sum::<f64>() / MIX.len() as f64;
            (spec, solo_mean, mixed.mispredict_pct())
        });

    let mut table = Table::with_columns(
        format!(
            "Misprediction % solo vs multiprogrammed \
             (groff + gs + verilog, {slice}-record slices)"
        ),
        &["predictor", "solo mean %", "mixed %", "degradation"],
    );
    for (spec, solo, mixed) in rows {
        table.push_row(vec![
            parse_spec(spec).expect("valid spec").name(),
            pct(solo),
            pct(mixed),
            format!("{:+.2}", mixed - solo),
        ]);
    }
    ExperimentOutput {
        id: "ext-multiprogram",
        title: "Extension — multiprogrammed aliasing stress (the introduction's \
                motivating scenario)"
            .into(),
        tables: vec![table],
    }
}

pub(super) fn encoding(opts: &ExperimentOpts) -> ExperimentOutput {
    const SIZES: std::ops::RangeInclusive<u32> = 8..=14;
    let ns: Vec<u32> = SIZES.collect();
    let labels = size_labels(*SIZES.start(), *SIZES.end());
    let make = |title: &'static str, template: &'static str| {
        let ns = ns.clone();
        spec_sweep_table(
            title.to_string(),
            "bank entries",
            &labels,
            opts,
            // `{n}` is the sweep size, `{m}` one size smaller (the
            // 2/3-storage reference point).
            move |row| {
                template
                    .replace("{n}", &ns[row].to_string())
                    .replace("{m}", &(ns[row] - 1).to_string())
            },
        )
    };
    ExperimentOutput {
        id: "ext-encoding",
        title: "Extension — distributed predictor encodings (section 7 question 2): \
                shared-hysteresis gskew (4 bits/entry-group) vs full 2-bit gskew \
                (6 bits) vs a 2/3-size full gskew"
            .into(),
        tables: vec![
            make(
                "Full 2-bit gskew, 3 banks (6*2^n bits) mispredict % (h=6)",
                "gskew:n={n},h=6",
            ),
            make(
                "Shared-hysteresis gskew, 3 dir banks + 1 hyst (4*2^n bits) mispredict % (h=6)",
                "shgskew:n={n},h=6",
            ),
            make(
                "Full 2-bit gskew with 2/3 the storage (3 banks of 2^(n-1)) mispredict % (h=6)",
                "gskew:n={m},h=6",
            ),
        ],
    }
}

pub(super) fn duel_verdicts(opts: &ExperimentOpts) -> ExperimentOutput {
    use crate::duel::kernel_duel;

    // The paper's key pairings, as paired McNemar tests.
    let pairings: [(&str, &str, &str); 3] = [
        (
            "gskew vs 2/3-storage gshare (h=6)",
            "gshare:n=13,h=6",
            "gskew:n=12,h=6",
        ),
        (
            "gskew partial vs total (3x4K, h=4)",
            "gskew:n=12,h=4,update=total",
            "gskew:n=12,h=4",
        ),
        (
            "e-gskew vs gskew (3x4K, h=12)",
            "gskew:n=12,h=12",
            "egskew:n=12,h=12",
        ),
    ];
    let tables = pairings
        .map(|(title, spec_a, spec_b)| {
            let mut table = Table::with_columns(
                format!("{title}: A = {spec_a}, B = {spec_b}"),
                &[
                    "benchmark",
                    "A %",
                    "B %",
                    "only A wrong",
                    "only B wrong",
                    "z",
                    "verdict",
                ],
            );
            let a = PredictorSpec::parse(spec_a).expect("valid spec");
            let b = PredictorSpec::parse(spec_b).expect("valid spec");
            let rows = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
                let cols = columns(bench, opts.len_for(bench));
                let result = kernel_duel(&a, &b, &cols).expect("valid specs");
                (bench, result)
            });
            for (bench, r) in rows {
                let verdict = if r.b_significantly_better() {
                    "B (p < 0.01)"
                } else if r.a_significantly_better() {
                    "A (p < 0.01)"
                } else {
                    "tie"
                };
                table.push_row(vec![
                    bench.name().to_string(),
                    pct(r.a_pct()),
                    pct(r.b_pct()),
                    r.only_a_wrong.to_string(),
                    r.only_b_wrong.to_string(),
                    format!("{:.2}", r.mcnemar_z()),
                    verdict.to_string(),
                ]);
            }
            table
        })
        .to_vec();
    ExperimentOutput {
        id: "ext-duel",
        title: "Extension — the paper's key comparisons as paired McNemar tests \
                (per-branch discordance, not just means)"
            .into(),
        tables,
    }
}

pub(super) fn seeds(opts: &ExperimentOpts) -> ExperimentOutput {
    // Re-generate each workload under several master seeds and check that
    // the paper's headline comparison (gskew 3x4K vs the larger 16K
    // gshare) is stable across them — i.e. the conclusions are not
    // artifacts of one particular synthetic program.
    const SEEDS: u64 = 5;
    let specs = ["gshare:n=14,h=6", "gskew:n=12,h=6"];
    let mut table = Table::with_columns(
        "Misprediction % across workload seeds (mean / min / max over 5 seeds)",
        &[
            "benchmark",
            "gshare 16K mean",
            "gshare min..max",
            "gskew 3x4K mean",
            "gskew min..max",
            "gskew wins",
        ],
    );
    let rows = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        let len = opts.len_for(bench);
        let mut results: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        for seed_offset in 0..SEEDS {
            let mut spec = bench.spec();
            spec.seed = spec.seed.wrapping_add(seed_offset * 0x1_0000);
            let mut workload = spec.build();
            let runs = stream_kernels(&specs, len, |n| workload.fill(n));
            for (pcts, run) in results.iter_mut().zip(runs) {
                pcts.push(run.mispredict_pct());
            }
        }
        (bench, results)
    });
    for (bench, results) in rows {
        let stats = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let min = xs.iter().copied().fold(f64::MAX, f64::min);
            let max = xs.iter().copied().fold(f64::MIN, f64::max);
            (mean, min, max)
        };
        let (gshare_mean, gshare_min, gshare_max) = stats(&results[0]);
        let (gskew_mean, gskew_min, gskew_max) = stats(&results[1]);
        let wins = results[0]
            .iter()
            .zip(&results[1])
            .filter(|(gshare, gskew)| gskew <= gshare)
            .count();
        table.push_row(vec![
            bench.name().to_string(),
            pct(gshare_mean),
            format!("{gshare_min:.2}..{gshare_max:.2}"),
            pct(gskew_mean),
            format!("{gskew_min:.2}..{gskew_max:.2}"),
            format!("{wins}/{SEEDS}"),
        ]);
    }
    ExperimentOutput {
        id: "ext-seeds",
        title: "Extension — seed robustness: the gskew-vs-gshare comparison re-run on \
                five re-generated versions of every workload"
            .into(),
        tables: vec![table],
    }
}

pub(super) fn assoc(opts: &ExperimentOpts) -> ExperimentOutput {
    // Fixed total capacity (4K pairs), sweep associativity.
    const CAPACITY_LOG2: u32 = 12;
    const HISTORY: u32 = 4;
    // log2(ways); the last is fully associative.
    const WAYS: [u32; 6] = [0, 1, 2, 3, 4, CAPACITY_LOG2];
    // Each set-associative row is a `setassoc` cell, whose misses are its
    // novel predictions. One set of every way is an FA-LRU table: one
    // last-use-distance pass per benchmark instead of a linear set scan.
    let (labels, units): (Vec<String>, Vec<Unit>) = WAYS
        .iter()
        .map(|&w| {
            if w == CAPACITY_LOG2 {
                let capacities = vec![1 << CAPACITY_LOG2];
                let fa = Unit::Fa {
                    history_bits: HISTORY,
                    capacities,
                };
                ("full".to_string(), fa)
            } else {
                let (n, ways) = (CAPACITY_LOG2 - w, 1u32 << w);
                let spec = format!("setassoc:n={n},ways={ways},h={HISTORY}");
                (ways.to_string(), Unit::Spec(spec))
            }
        })
        .unzip();
    let workloads = opts.workloads();
    let cells = resume::run_cells(&workloads, NovelPolicy::Count, &units, opts.threads);
    let table = Table::per_bench(
        format!(
            "Miss % of a {}-pair identity-tagged table vs associativity (gshare set \
             index, 4-bit history)",
            1u32 << CAPACITY_LOG2
        ),
        "ways",
        &labels,
        |row, w| {
            let cell = &cells[w][row];
            let (misses, references) = if WAYS[row] == CAPACITY_LOG2 {
                let fa = kernel::fa_counts(cell);
                (fa.misses[0], fa.references)
            } else {
                (cell[0].novel, cell[0].conditional)
            };
            // `100.0 * miss_ratio()`, in the same order.
            let ratio = if references == 0 {
                0.0
            } else {
                misses as f64 / references as f64
            };
            pct(100.0 * ratio)
        },
    );
    ExperimentOutput {
        id: "ext-assoc",
        title: "Extension — how much associativity would buy (section 3.3's dismissed \
                alternative, quantified: a couple of ways recover most conflicts)"
            .into(),
        tables: vec![table],
    }
}

pub(super) fn delay(opts: &ExperimentOpts) -> ExperimentOutput {
    const DELAYS: [usize; 6] = [0, 2, 4, 8, 16, 32];
    let specs: [(&str, &str); 3] = [
        ("bimodal 16K (history-free)", "bimodal:n=14"),
        ("gshare 16K h=8", "gshare:n=14,h=8"),
        ("gskew 3x4K h=8", "gskew:n=12,h=8"),
    ];
    let labels: Vec<String> = DELAYS.iter().map(|d| d.to_string()).collect();
    let workloads = opts.workloads();
    let tables = specs
        .iter()
        .map(|(title, spec)| {
            let parsed = PredictorSpec::parse(spec).expect("valid spec");
            // Delay 0 is the plain run: a pipeline cell.
            let unit = Unit::Spec(spec.to_string());
            let plain = resume::run_cells(&workloads, NovelPolicy::Count, &[unit], opts.threads);
            bench_sweep_table(
                format!("{title} mispredict % vs update delay (branches in flight)"),
                "delay",
                &labels,
                opts,
                |row, w| {
                    let (bench, len) = workloads[w];
                    if DELAYS[row] == 0 {
                        return plain[w][0][0].mispredict_pct();
                    }
                    PredictorKernel::from_spec(&parsed)
                        .expect("a table kernel")
                        .run_delayed(&columns(bench, len), DELAYS[row])
                        .mispredict_pct()
                },
            )
        })
        .collect();
    ExperimentOutput {
        id: "ext-delay",
        title: "Extension — retirement-time training: the cost of updating tables and \
                history `delay` branches late (the case for speculative history update)"
            .into(),
        tables,
    }
}

pub(super) fn confidence(opts: &ExperimentOpts) -> ExperimentOutput {
    #[derive(Default, Clone, Copy)]
    struct Split {
        unanimous: u64,
        unanimous_wrong: u64,
        split: u64,
        split_wrong: u64,
    }

    // 3x4K gskew, h=8, 2-bit counters, partial update. The observer sees
    // the bank votes before the tables train, as a vote check before
    // `update` does.
    let spec = PredictorSpec::parse("gskew:n=12,h=8").expect("valid spec");
    let rows = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        let mut counts = Split::default();
        let mut kernel = PredictorKernel::from_spec(&spec).expect("a gskew kernel");
        kernel.run_observed(
            &columns(bench, opts.len_for(bench)),
            |votes, predicted, taken| {
                let wrong = u64::from(predicted != taken);
                if votes.iter().all(|&v| v == votes[0]) {
                    counts.unanimous += 1;
                    counts.unanimous_wrong += wrong;
                } else {
                    counts.split += 1;
                    counts.split_wrong += wrong;
                }
            },
        );
        (bench, counts)
    });

    let mut table = Table::with_columns(
        "Vote-margin confidence of 3x4K gskew (h=8): unanimous vs split votes",
        &[
            "benchmark",
            "unanimous %",
            "mispredict % | unanimous",
            "split %",
            "mispredict % | split",
        ],
    );
    for (bench, c) in rows {
        let total = (c.unanimous + c.split).max(1) as f64;
        table.push_row(vec![
            bench.name().to_string(),
            pct(100.0 * c.unanimous as f64 / total),
            pct(100.0 * c.unanimous_wrong as f64 / c.unanimous.max(1) as f64),
            pct(100.0 * c.split as f64 / total),
            pct(100.0 * c.split_wrong as f64 / c.split.max(1) as f64),
        ]);
    }
    ExperimentOutput {
        id: "ext-confidence",
        title: "Extension — the majority vote as a free confidence estimator \
                (unanimous votes are far more reliable than 2-1 splits)"
            .into(),
        tables: vec![table],
    }
}

pub(super) fn nature(opts: &ExperimentOpts) -> ExperimentOutput {
    const SIZES: std::ops::RangeInclusive<u32> = 8..=16;
    let ns: Vec<u32> = SIZES.collect();
    // One walk per benchmark classifies every size.
    let per_bench = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        AliasingNature::new(&ns, 8, IndexFunction::Gshare, CounterKind::TwoBit)
            .run(&columns(bench, opts.len_for(bench)))
    });

    let labels = size_labels(*SIZES.start(), *SIZES.end());
    let table = |title: &str, value: fn(&NatureCounts) -> f64| {
        Table::per_bench(title, "entries", &labels, |row, b| {
            pct(100.0 * value(&per_bench[b][row]))
        })
    };
    let tables = vec![
        table(
            "Destructive events per aliased reference % (gshare, h=8)",
            |c| c.destructive_ratio(),
        ),
        table(
            "Constructive events per aliased reference % (gshare, h=8)",
            |c| c.constructive_ratio(),
        ),
        table(
            "Net aliasing misprediction overhead % of all branches (gshare, h=8)",
            |c| c.net_overhead(),
        ),
    ];
    ExperimentOutput {
        id: "ext-nature",
        title: "Extension — destructive vs constructive aliasing (section 1's taxonomy; \
                why the figure 11 model overestimates)"
            .into(),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::super::helpers::sim_pct;
    use super::*;

    fn tiny() -> ExperimentOpts {
        ExperimentOpts {
            len_override: Some(8_000),
            quick: true,
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn skew_ablation_shapes() {
        let out = skew_ablation(&tiny());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows().len(), 9);
    }

    #[test]
    fn same_index_tracks_single_bank() {
        // The structural point of the ablation: 3 same-indexed banks must
        // behave like ONE bank of the same per-bank size... except for the
        // f0-vs-gshare indexing difference, so compare gskew:skew=off
        // against itself with banks trained identically — the name check
        // plus a numeric sanity band.
        let bench = IbsBenchmark::Verilog;
        let off = sim_pct("gskew:n=10,h=4,skew=off", bench, 40_000);
        let on = sim_pct("gskew:n=10,h=4", bench, 40_000);
        assert!(
            on < off,
            "dispersion should beat identical indexing: {on} vs {off}"
        );
    }

    #[test]
    fn antialias_and_pas_shapes() {
        let out = antialias(&tiny());
        assert_eq!(out.tables.len(), 4);
        assert_eq!(out.tables[0].rows().len(), 13);
        let out = pas(&tiny());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows().len(), 7);
    }

    #[test]
    fn multiprogram_shape_and_degradation_direction() {
        let out = multiprogram(&tiny());
        let table = &out.tables[0];
        assert_eq!(table.rows().len(), 6);
        // Most predictors should degrade (positive delta) under mixing.
        let degrading = table
            .rows()
            .iter()
            .filter(|r| r[3].parse::<f64>().unwrap_or(0.0) > -0.3)
            .count();
        assert!(
            degrading >= 4,
            "only {degrading}/6 rows degrade under mixing"
        );
    }

    #[test]
    fn encoding_shape_and_tradeoff() {
        let out = encoding(&tiny());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows().len(), 7);
        // The shared-hysteresis variant should sit between the full
        // 2-bit structure and the 2/3-size structure on most cells.
        let bench = IbsBenchmark::Nroff;
        let full = sim_pct("gskew:n=11,h=6", bench, 60_000);
        let shared = sim_pct("shgskew:n=11,h=6", bench, 60_000);
        let small = sim_pct("gskew:n=10,h=6", bench, 60_000);
        assert!(
            shared < small + 0.5,
            "shared {shared} should approach or beat the 2/3-size full {small}"
        );
        assert!(
            shared > full - 0.5,
            "shared {shared} should not beat the full encoding {full} by much"
        );
    }

    #[test]
    fn confidence_unanimous_more_reliable() {
        // Needs a warmed predictor: at very short lengths the boot state
        // makes cold branches unanimously (weakly) taken, polluting the
        // unanimous class.
        let opts = ExperimentOpts {
            len_override: Some(120_000),
            quick: false,
            ..ExperimentOpts::default()
        };
        let out = confidence(&opts);
        let table = &out.tables[0];
        assert_eq!(table.rows().len(), 6);
        let mut reliable = 0;
        for row in table.rows() {
            let unanimous_miss: f64 = row[2].parse().unwrap();
            let split_miss: f64 = row[4].parse().unwrap();
            if unanimous_miss < split_miss {
                reliable += 1;
            }
        }
        assert!(
            reliable >= 5,
            "unanimous votes should be more reliable on most benchmarks, got {reliable}/6"
        );
    }

    #[test]
    fn duel_verdicts_shape() {
        let mut opts = tiny();
        opts.len_override = Some(40_000);
        let out = duel_verdicts(&opts);
        assert_eq!(out.tables.len(), 3);
        for table in &out.tables {
            assert_eq!(table.rows().len(), 6);
            for row in table.rows() {
                let z: f64 = row[5].parse().unwrap();
                assert!(z.is_finite());
                assert!(["B (p < 0.01)", "A (p < 0.01)", "tie"].contains(&row[6].as_str()));
            }
        }
    }

    #[test]
    fn seeds_shape_and_stability() {
        let mut opts = tiny();
        opts.len_override = Some(60_000);
        let out = seeds(&opts);
        let table = &out.tables[0];
        assert_eq!(table.rows().len(), 6);
        // Across benchmarks and seeds, gskew should win a clear majority.
        let mut wins = 0u32;
        let mut total = 0u32;
        for row in table.rows() {
            let (w, t) = row[5].split_once('/').unwrap();
            wins += w.parse::<u32>().unwrap();
            total += t.parse::<u32>().unwrap();
        }
        // gskew should at least split the field (the paper's own figure 7
        // has it losing real_gcc outright).
        assert!(
            wins * 2 >= total,
            "gskew won only {wins}/{total} seeded comparisons"
        );
    }

    #[test]
    fn assoc_shape_and_monotonicity() {
        let out = assoc(&tiny());
        let table = &out.tables[0];
        assert_eq!(table.rows().len(), 6);
        // More ways must not increase misses (small LRU-anomaly slack).
        for col in 1..table.columns().len() {
            let dm: f64 = table.rows()[0][col].parse().unwrap();
            let fa: f64 = table.rows()[5][col].parse().unwrap();
            assert!(fa <= dm + 0.2, "col {col}: fa {fa} vs dm {dm}");
        }
    }

    #[test]
    fn delay_shape_and_monotonicity() {
        let out = delay(&tiny());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows().len(), 6);
        // Delay must not help: compare delay 0 vs 32 per table/benchmark.
        for table in &out.tables {
            for col in 1..table.columns().len() {
                let d0: f64 = table.rows()[0][col].parse().unwrap();
                let d32: f64 = table.rows()[5][col].parse().unwrap();
                assert!(
                    d32 >= d0 - 0.3,
                    "{}: delay helped? {d0} -> {d32}",
                    table.title()
                );
            }
        }
    }

    #[test]
    fn nature_shape() {
        let out = nature(&tiny());
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows().len(), 9);
    }
}
