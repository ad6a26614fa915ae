//! Dyn-vs-kernel throughput measurement behind `bpsim bench`.
//!
//! Each [`BenchCase`] is a sweep-shaped list of predictor specs (the
//! same shapes the quick campaign simulates) driven over the
//! quick-campaign workloads twice: once through the batched
//! `Box<dyn BranchPredictor>` engine pass and once through the
//! monomorphized kernels walking the shared
//! [`TraceColumns`](bpred_trace::soa::TraceColumns) view. Both
//! paths are timed as summed CPU seconds, so the reported speedup is
//! independent of the worker-thread count, and both results are compared
//! cell by cell — a throughput run doubles as an end-to-end equivalence
//! check.
//!
//! [`BenchReport::to_json`] serializes the measurement for
//! `BENCH_kernels.json`, the artifact the CI bench smoke job tracks.

use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_aliasing::three_c::ThreeCClassifier;
use bpred_core::index::IndexFunction;
use bpred_core::spec::parse_spec;
use bpred_results::json::Json;
use bpred_sim::engine::{self, NovelPolicy};
use bpred_sim::experiments::workload_seed;
use bpred_sim::kernel::{self, PredictorKernel};
use bpred_sim::runner::parallel_map;
use bpred_trace::cache;
use bpred_trace::workload::IbsBenchmark;
use std::time::Instant;

/// The quick-campaign trace-length cap (`ExperimentOpts::len_for`).
pub const QUICK_LEN_CAP: u64 = 120_000;

/// One named list of predictor specs to race.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case name (one row of the report).
    pub name: &'static str,
    /// The predictor specs the case drives; every spec must have a
    /// kernel fast path.
    pub specs: Vec<String>,
}

/// The default case list: the sweep shapes of the paper's fig. 5 and
/// fig. 7 plus the gskew variant axis, all kernel-eligible.
pub fn default_cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "gshare-size",
            specs: (6..=13).map(|n| format!("gshare:n={n},h=4")).collect(),
        },
        BenchCase {
            name: "gskew-size",
            specs: (5..=12).map(|n| format!("gskew:n={n},h=4")).collect(),
        },
        BenchCase {
            name: "gskew-history",
            specs: (0..=8).map(|h| format!("gskew:n=12,h={h}")).collect(),
        },
        BenchCase {
            name: "variants",
            specs: vec![
                "bimodal:n=12".into(),
                "gselect:n=10,h=6".into(),
                "egskew:n=10,h=6".into(),
                "gskew:n=10,h=6,update=total".into(),
                "gskew:n=10,h=6,banks=5".into(),
                "gskew:n=10,h=6,skew=off".into(),
            ],
        },
    ]
}

/// The timing of one [`BenchCase`] across all workloads.
#[derive(Debug, Clone)]
pub struct CaseMeasurement {
    /// Case name.
    pub name: &'static str,
    /// Number of predictor specs driven.
    pub specs: usize,
    /// Record applications per path (records × specs, summed over
    /// workloads).
    pub applications: u64,
    /// CPU seconds spent in the dyn pass.
    pub dyn_seconds: f64,
    /// CPU seconds spent in the kernels (summed across workers).
    pub kernel_seconds: f64,
    /// Whether every kernel result matched the dyn result bit for bit.
    pub matched: bool,
}

impl CaseMeasurement {
    /// Dyn-path throughput in record applications per second.
    pub fn dyn_rate(&self) -> f64 {
        rate(self.applications, self.dyn_seconds)
    }

    /// Kernel-path throughput in record applications per second.
    pub fn kernel_rate(&self) -> f64 {
        rate(self.applications, self.kernel_seconds)
    }

    /// Kernel speedup over the dyn path (CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        if self.kernel_seconds == 0.0 {
            0.0
        } else {
            self.dyn_seconds / self.kernel_seconds
        }
    }
}

fn rate(applications: u64, seconds: f64) -> f64 {
    if seconds == 0.0 {
        0.0
    } else {
        applications as f64 / seconds
    }
}

/// The quick three-C sweep shape raced by [`run_aliasing`]: the fig-1/2
/// size axis at two history lengths, both indexed flavors.
pub fn default_aliasing_grid() -> Vec<ThreeCCell> {
    let mut cells = Vec::new();
    for h in [4u32, 12] {
        for n in 6..=13 {
            for func in [IndexFunction::Gshare, IndexFunction::Gselect] {
                cells.push(ThreeCCell {
                    entries_log2: n,
                    history_bits: h,
                    func,
                });
            }
        }
    }
    cells
}

/// The timing of one three-C grid across all workloads: per-config
/// classifier walks vs the batched single-pass engine.
#[derive(Debug, Clone)]
pub struct AliasingMeasurement {
    /// Grid cells classified.
    pub cells: usize,
    /// Record applications per path (records × cells, summed over
    /// workloads) — the work both paths account for, however many trace
    /// traversals they need to do it.
    pub applications: u64,
    /// CPU seconds spent in the per-configuration classifiers.
    pub dyn_seconds: f64,
    /// CPU seconds spent in the batched passes (summed across workers).
    pub batch_seconds: f64,
    /// Whether every batched cell matched the classifier bit for bit —
    /// raw counts and the derived breakdown.
    pub matched: bool,
}

impl AliasingMeasurement {
    /// Per-config-path throughput in record applications per second.
    pub fn dyn_rate(&self) -> f64 {
        rate(self.applications, self.dyn_seconds)
    }

    /// Batched-path throughput in record applications per second.
    pub fn batch_rate(&self) -> f64 {
        rate(self.applications, self.batch_seconds)
    }

    /// Batched speedup over the per-config path (CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        if self.batch_seconds == 0.0 {
            0.0
        } else {
            self.dyn_seconds / self.batch_seconds
        }
    }

    /// The JSON fragment stored under `aliasing` in the bench report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Num(self.cells as f64)),
            ("applications", Json::Num(self.applications as f64)),
            ("dyn_seconds", Json::Num(self.dyn_seconds)),
            ("batch_seconds", Json::Num(self.batch_seconds)),
            ("dyn_rate", Json::Num(self.dyn_rate())),
            ("batch_rate", Json::Num(self.batch_rate())),
            ("speedup", Json::Num(self.speedup())),
            ("matched", Json::Bool(self.matched)),
        ])
    }
}

/// Race one three-C grid over the six IBS-like workloads: the
/// per-configuration [`ThreeCClassifier`] (one full trace walk per cell)
/// against the batched engine ([`kernel::run_three_c_units`]: one
/// direct-mapped kernel pass per cell plus one shared-distance pass per
/// distinct history). Both paths are timed as summed CPU seconds and
/// compared cell by cell — counts must be identical integer for integer,
/// and the derived breakdowns bit for bit.
pub fn run_aliasing(cells: &[ThreeCCell], quick: bool, threads: usize) -> AliasingMeasurement {
    let seed = workload_seed();
    let mut applications = 0u64;
    let mut dyn_seconds = 0.0;
    let mut batch_seconds = 0.0;
    let mut matched = true;
    for bench in IbsBenchmark::all() {
        let len = if quick {
            bench.default_len().min(QUICK_LEN_CAP)
        } else {
            bench.default_len()
        };
        let cols = cache::columns_seeded(bench, len, seed);
        applications += cols.len() as u64 * cells.len() as u64;

        let cols_ref = &cols;
        let timed_dyn: Vec<_> = parallel_map(cells.to_vec(), threads, move |cell| {
            let start = Instant::now();
            let counts = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(cols_ref.records());
            (counts, start.elapsed().as_secs_f64())
        });
        dyn_seconds += timed_dyn.iter().map(|(_, s)| s).sum::<f64>();

        let groups = batch::fa_groups(cells);
        let (dm_done, fa_done) = kernel::run_three_c_units(cells, &groups, &cols, threads);
        batch_seconds += dm_done.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3
            + fa_done.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3;
        let dm: Vec<_> = dm_done.into_iter().map(|(c, _)| c).collect();
        let fa: Vec<_> = fa_done.into_iter().map(|(c, _)| c).collect();
        let batched = batch::assemble(cells, &groups, &dm, &fa);
        for ((dyn_counts, _), batch_counts) in timed_dyn.iter().zip(&batched) {
            matched &=
                dyn_counts == batch_counts && dyn_counts.breakdown() == batch_counts.breakdown();
        }
    }
    AliasingMeasurement {
        cells: cells.len(),
        applications,
        dyn_seconds,
        batch_seconds,
        matched,
    }
}

/// A full `bpsim bench` measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether trace lengths were capped at [`QUICK_LEN_CAP`].
    pub quick: bool,
    /// The per-benchmark trace-length cap in effect.
    pub len_cap: Option<u64>,
    /// Per-case measurements.
    pub cases: Vec<CaseMeasurement>,
    /// The batched three-C race, when the bench ran it
    /// ([`run_aliasing`]); `None` in kernel-only runs.
    pub aliasing: Option<AliasingMeasurement>,
}

impl BenchReport {
    /// Total record applications across cases.
    pub fn applications(&self) -> u64 {
        self.cases.iter().map(|c| c.applications).sum()
    }

    /// Total dyn CPU seconds.
    pub fn dyn_seconds(&self) -> f64 {
        self.cases.iter().map(|c| c.dyn_seconds).sum()
    }

    /// Total kernel CPU seconds.
    pub fn kernel_seconds(&self) -> f64 {
        self.cases.iter().map(|c| c.kernel_seconds).sum()
    }

    /// Overall kernel speedup (total CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        if self.kernel_seconds() == 0.0 {
            0.0
        } else {
            self.dyn_seconds() / self.kernel_seconds()
        }
    }

    /// Whether every case's kernel results matched the dyn results.
    pub fn all_matched(&self) -> bool {
        self.cases.iter().all(|c| c.matched)
    }

    /// The JSON document written to `BENCH_kernels.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("quick", Json::Bool(self.quick)),
            (
                "len_cap",
                match self.len_cap {
                    Some(cap) => Json::Num(cap as f64),
                    None => Json::Null,
                },
            ),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::Str(c.name.to_string())),
                                ("specs", Json::Num(c.specs as f64)),
                                ("applications", Json::Num(c.applications as f64)),
                                ("dyn_seconds", Json::Num(c.dyn_seconds)),
                                ("kernel_seconds", Json::Num(c.kernel_seconds)),
                                ("dyn_rate", Json::Num(c.dyn_rate())),
                                ("kernel_rate", Json::Num(c.kernel_rate())),
                                ("speedup", Json::Num(c.speedup())),
                                ("matched", Json::Bool(c.matched)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "aliasing",
                match &self.aliasing {
                    Some(a) => a.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "overall",
                Json::obj(vec![
                    ("applications", Json::Num(self.applications() as f64)),
                    ("dyn_seconds", Json::Num(self.dyn_seconds())),
                    ("kernel_seconds", Json::Num(self.kernel_seconds())),
                    ("speedup", Json::Num(self.speedup())),
                    ("matched", Json::Bool(self.all_matched())),
                ]),
            ),
        ])
    }
}

/// Race `cases` over the six IBS-like workloads, dyn pass vs kernels.
///
/// `quick` caps every trace at [`QUICK_LEN_CAP`] conditional branches
/// (the quick-campaign lengths); `threads` bounds the kernel workers —
/// timing is per-run CPU seconds either way, so the speedup does not
/// depend on it.
///
/// # Panics
///
/// Panics if a case holds an invalid spec or one without a kernel fast
/// path — the case lists are bench-owned, so that is a bug, not input.
pub fn run(cases: &[BenchCase], quick: bool, threads: usize) -> BenchReport {
    let seed = workload_seed();
    let mut measurements = Vec::with_capacity(cases.len());
    for case in cases {
        let mut applications = 0u64;
        let mut dyn_seconds = 0.0;
        let mut kernel_seconds = 0.0;
        let mut matched = true;
        for bench in IbsBenchmark::all() {
            let len = if quick {
                bench.default_len().min(QUICK_LEN_CAP)
            } else {
                bench.default_len()
            };
            let cols = cache::columns_seeded(bench, len, seed);
            applications += cols.len() as u64 * case.specs.len() as u64;

            let mut predictors: Vec<_> = case
                .specs
                .iter()
                .map(|s| parse_spec(s).unwrap_or_else(|e| panic!("bad bench spec `{s}`: {e}")))
                .collect();
            let start = Instant::now();
            let dyn_results = engine::run_many(&mut predictors, &cols, NovelPolicy::Count);
            dyn_seconds += start.elapsed().as_secs_f64();

            let kernels: Vec<PredictorKernel> = case
                .specs
                .iter()
                .map(|s| {
                    PredictorKernel::from_spec(
                        &bpred_core::spec::PredictorSpec::parse(s)
                            .unwrap_or_else(|e| panic!("bad bench spec `{s}`: {e}")),
                    )
                    .unwrap_or_else(|| panic!("bench spec `{s}` has no kernel"))
                })
                .collect();
            let cols = &cols;
            let timed: Vec<_> = parallel_map(kernels, threads, move |mut kernel| {
                let start = Instant::now();
                let result = kernel.run(cols);
                (result, start.elapsed().as_secs_f64())
            });
            for ((kernel_result, seconds), dyn_result) in timed.into_iter().zip(dyn_results) {
                kernel_seconds += seconds;
                matched &= kernel_result == dyn_result;
            }
        }
        measurements.push(CaseMeasurement {
            name: case.name,
            specs: case.specs.len(),
            applications,
            dyn_seconds,
            kernel_seconds,
            matched,
        });
    }
    BenchReport {
        quick,
        len_cap: quick.then_some(QUICK_LEN_CAP),
        cases: measurements,
        aliasing: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_runs_and_serializes() {
        let cases = vec![BenchCase {
            name: "tiny",
            specs: vec!["gshare:n=8,h=4".into(), "gskew:n=8,h=4".into()],
        }];
        // Exercise the full path on one tiny case; `quick` lengths are
        // still too slow for a unit test, so shrink through the cache
        // seed-length axis by racing on the quick cap directly.
        let report = run(&cases, true, 2);
        assert_eq!(report.cases.len(), 1);
        let case = &report.cases[0];
        assert!(case.matched, "kernel diverged from the dyn engine");
        assert!(case.applications > 0);
        assert!(case.dyn_seconds > 0.0);
        assert!(case.kernel_seconds > 0.0);
        let doc = report.to_json();
        let text = doc.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("quick").unwrap(), &Json::Bool(true));
        let overall = parsed.get("overall").unwrap();
        assert_eq!(overall.get("matched").unwrap(), &Json::Bool(true));
        assert!(overall.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn tiny_aliasing_race_matches_and_serializes() {
        // A two-cell grid keeps the per-config path affordable in a unit
        // test while still exercising the shared-distance FA pass (both
        // cells share one history).
        let cells = vec![
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gshare,
            },
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gselect,
            },
        ];
        let a = run_aliasing(&cells, true, 2);
        assert!(a.matched, "batched three-C diverged from the classifier");
        assert_eq!(a.cells, 2);
        assert!(a.applications > 0);
        assert!(a.dyn_seconds > 0.0);
        assert!(a.batch_seconds > 0.0);
        let mut report = run(&[], true, 1);
        report.aliasing = Some(a);
        let parsed = Json::parse(&report.to_json().to_string_compact()).unwrap();
        let aliasing = parsed.get("aliasing").unwrap();
        assert_eq!(aliasing.get("matched").unwrap(), &Json::Bool(true));
        assert!(aliasing.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn default_aliasing_grid_is_the_quick_sweep_shape() {
        let grid = default_aliasing_grid();
        assert_eq!(grid.len(), 2 * 8 * 2, "2 histories × 8 sizes × 2 fns");
        assert!(grid.iter().all(|c| (6..=13).contains(&c.entries_log2)));
        // Exactly two distinct FA groups: one shared-distance pass per
        // history, regardless of index function.
        assert_eq!(batch::fa_groups(&grid).len(), 2);
    }

    #[test]
    fn default_cases_are_kernel_eligible() {
        for case in default_cases() {
            for spec in &case.specs {
                let parsed = bpred_core::spec::PredictorSpec::parse(spec).unwrap();
                assert!(
                    PredictorKernel::from_spec(&parsed).is_some(),
                    "{spec} in case {} lacks a kernel",
                    case.name
                );
            }
        }
    }
}
