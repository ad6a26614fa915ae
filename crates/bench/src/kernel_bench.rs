//! Kernel throughput measurement behind `bpsim bench`.
//!
//! Each [`BenchCase`] is a sweep-shaped list of predictor specs (the
//! same shapes the quick campaign simulates) run over the six IBS-like
//! workloads on the jobs [`kernel::plan`] gives them, each walking the
//! shared [`TraceColumns`] view. Two more cases time the other kernel
//! entry points: `delay` ([`run_delay`]) runs ext-delay's
//! retirement-time cells on [`PredictorKernel::run_delayed`], and
//! `aliasing-3c` ([`run_aliasing`]) runs a three-C grid through
//! [`kernel::run_three_c_units`]. Every job is timed on its worker, the
//! case's seconds are the sum over its jobs, and the case reports an
//! absolute rate of record applications per second.
//!
//! The bench checks no result: the kernels are pinned by the reference
//! models of `bpred-sim`'s tests and the tolerance-0 campaign baselines.
//!
//! [`BenchReport::to_json`] serializes the measurement for
//! `BENCH_kernels.json`, the artifact the CI bench smoke job uploads.

use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_core::index::IndexFunction;
use bpred_core::spec::PredictorSpec;
use bpred_results::json::Json;
use bpred_sim::engine::NovelPolicy;
use bpred_sim::experiments::{self, ExperimentOpts, QUICK_LEN_CAP};
use bpred_sim::kernel::{self, PredictorKernel, Unit};
use bpred_sim::runner::parallel_map;
use bpred_trace::soa::TraceColumns;
use bpred_trace::workload::IbsBenchmark;
use std::time::Instant;

/// One named list of predictor specs to time.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case name (one row of the report).
    pub name: &'static str,
    /// The predictor specs the case drives.
    pub specs: Vec<String>,
}

/// The default case list: the sweep shapes of the paper's fig. 5 and
/// fig. 7, the gskew variant axis, the 1-bit counter rows of
/// ablation-counters and fig. 11, ext-hybrid's hybrid rows, the
/// de-aliasing designs of ext-antialias, ext-pas and ext-encoding,
/// fig. 8's FA-LRU capacities, table 2's unbounded tables, and
/// ext-assoc's set-associative rows with the two static baselines.
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
        BenchCase {
            name: "counters",
            specs: (6..=14)
                .flat_map(|n| {
                    [
                        format!("gshare:n={n},h=4,ctr=1"),
                        format!("gskew:n={n},h=4,ctr=1"),
                        format!("gskew:n={n},h=4,ctr=1,update=total"),
                    ]
                })
                .collect(),
        },
        BenchCase {
            name: "hybrids",
            specs: (4..=16)
                .flat_map(|h| {
                    [
                        format!("2bcgskew:n=12,h={h}"),
                        format!("mcfarling:n=12,h={h}"),
                    ]
                })
                .collect(),
        },
        BenchCase {
            name: "antialias",
            specs: [2, 8, 14]
                .iter()
                .flat_map(|h| {
                    [
                        format!("agree:n=13,h={h},bias=12"),
                        format!("bimode:n=12,h={h},choice=12"),
                    ]
                })
                .chain([8, 11, 14].iter().flat_map(|n| {
                    [
                        format!("pas:bht=10,l=8,n={n}"),
                        format!("spas:bht=10,l=8,n={n}"),
                        format!("shgskew:n={n},h=6"),
                    ]
                }))
                .collect(),
        },
        BenchCase {
            name: "falru",
            specs: (6..=14)
                .map(|n| format!("falru:cap={},h=4", 1u64 << n))
                .collect(),
        },
        BenchCase {
            name: "ideal",
            specs: [0, 4, 12]
                .iter()
                .flat_map(|h| [format!("ideal:h={h},ctr=1"), format!("ideal:h={h}")])
                .collect(),
        },
        BenchCase {
            name: "assoc",
            specs: (0..=4)
                .map(|w| format!("setassoc:n={},ways={},h=4", 12 - w, 1 << w))
                .chain(["always-taken".into(), "always-nottaken".into()])
                .collect(),
        },
    ]
}

/// The timing of one case across all workloads.
#[derive(Debug, Clone)]
pub struct CaseMeasurement {
    /// Case name (one row of the report).
    pub name: &'static str,
    /// Number of predictor specs (or three-C grid cells) run.
    pub specs: usize,
    /// Record applications (records × specs, summed over workloads).
    pub applications: u64,
    /// Seconds the case's kernel jobs ran, each timed on its worker and
    /// summed across workers.
    pub kernel_seconds: f64,
}

impl CaseMeasurement {
    /// Kernel throughput in record applications per second.
    pub fn rate(&self) -> f64 {
        rate(self.applications, self.kernel_seconds)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("specs", Json::Num(self.specs as f64)),
            ("applications", Json::Num(self.applications as f64)),
            ("kernel_seconds", Json::Num(self.kernel_seconds)),
            ("kernel_rate", Json::Num(self.rate())),
        ])
    }
}

fn rate(applications: u64, seconds: f64) -> f64 {
    if seconds == 0.0 {
        0.0
    } else {
        applications as f64 / seconds
    }
}

/// Time one case of `specs` specs over the six IBS-like workloads at
/// `opts`' lengths: `seconds` runs the case's jobs over one trace and
/// returns the seconds they ran, summed across workers.
fn measure(
    name: &'static str,
    specs: usize,
    opts: &ExperimentOpts,
    seconds: impl Fn(&TraceColumns) -> f64,
) -> CaseMeasurement {
    let mut case = CaseMeasurement {
        name,
        specs,
        applications: 0,
        kernel_seconds: 0.0,
    };
    for bench in IbsBenchmark::all() {
        let cols = experiments::columns(bench, opts.len_for(bench));
        case.applications += cols.len() as u64 * specs as u64;
        case.kernel_seconds += seconds(&cols);
    }
    case
}

/// ext-delay's predictor specs, run at every delay of [`DELAYS`] by
/// [`run_delay`].
pub const DELAY_SPECS: [&str; 3] = ["bimodal:n=14", "gshare:n=14,h=8", "gskew:n=12,h=8"];

/// ext-delay's update delays (branches in flight).
pub const DELAYS: [usize; 6] = [0, 2, 4, 8, 16, 32];

/// Time ext-delay's cells — every spec of [`DELAY_SPECS`] at every delay
/// of [`DELAYS`] — on the delayed kernels
/// ([`PredictorKernel::run_delayed`]). The result is the `delay` case of
/// the report; `specs` counts its (spec, delay) cells.
pub fn run_delay(opts: &ExperimentOpts) -> CaseMeasurement {
    let cells: Vec<(PredictorSpec, usize)> = DELAY_SPECS
        .iter()
        .map(|s| PredictorSpec::parse(s).unwrap_or_else(|e| panic!("bad bench spec `{s}`: {e}")))
        .flat_map(|spec| DELAYS.map(|delay| (spec.clone(), delay)))
        .collect();
    measure("delay", cells.len(), opts, |cols| {
        let timed = parallel_map(cells.clone(), opts.threads, |(spec, delay)| {
            let mut kernel = PredictorKernel::from_spec(&spec).expect("a table kernel");
            let start = Instant::now();
            kernel.run_delayed(cols, delay);
            start.elapsed().as_secs_f64()
        });
        timed.iter().sum()
    })
}

/// The quick three-C sweep shape timed by [`run_aliasing`]: the fig-1/2
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

/// Time one three-C grid on the batched engine
/// ([`kernel::run_three_c_units`]: one direct-mapped kernel pass per cell
/// plus one shared-distance pass per distinct history). The result is the
/// `aliasing-3c` case of the report; `specs` counts its grid cells, and
/// its applications are records × cells, however many trace traversals
/// the passes need.
pub fn run_aliasing(cells: &[ThreeCCell], opts: &ExperimentOpts) -> CaseMeasurement {
    let groups = batch::fa_groups(cells);
    measure("aliasing-3c", cells.len(), opts, |cols| {
        let (dm, fa) = kernel::run_three_c_units(cells, &groups, cols, opts.threads);
        let ms = dm
            .iter()
            .map(|(_, ms)| ms)
            .chain(fa.iter().map(|(_, ms)| ms));
        ms.sum::<f64>() / 1e3
    })
}

/// A full `bpsim bench` measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether trace lengths were capped at [`QUICK_LEN_CAP`].
    pub quick: bool,
    /// Per-case measurements.
    pub cases: Vec<CaseMeasurement>,
}

impl BenchReport {
    /// Total record applications across cases.
    pub fn applications(&self) -> u64 {
        self.cases.iter().map(|c| c.applications).sum()
    }

    /// Total kernel seconds, summed across cases.
    pub fn kernel_seconds(&self) -> f64 {
        self.cases.iter().map(|c| c.kernel_seconds).sum()
    }

    /// Overall kernel throughput in record applications per second.
    pub fn rate(&self) -> f64 {
        rate(self.applications(), self.kernel_seconds())
    }

    /// The JSON document written to `BENCH_kernels.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(2.0)),
            ("quick", Json::Bool(self.quick)),
            (
                "len_cap",
                if self.quick {
                    Json::Num(QUICK_LEN_CAP as f64)
                } else {
                    Json::Null
                },
            ),
            (
                "cases",
                Json::Arr(self.cases.iter().map(CaseMeasurement::to_json).collect()),
            ),
            (
                "overall",
                Json::obj(vec![
                    ("applications", Json::Num(self.applications() as f64)),
                    ("kernel_seconds", Json::Num(self.kernel_seconds())),
                    ("kernel_rate", Json::Num(self.rate())),
                ]),
            ),
        ])
    }
}

/// Time `cases` over the six IBS-like workloads at `opts`' lengths
/// ([`ExperimentOpts::len_for`]; `quick` caps each at [`QUICK_LEN_CAP`]
/// conditional branches), on up to `opts.threads` workers.
///
/// # Panics
///
/// Panics if a case holds an invalid spec — the case lists are
/// bench-owned, so that is a bug, not input.
pub fn run(cases: &[BenchCase], opts: &ExperimentOpts) -> BenchReport {
    let cases = cases.iter().map(|case| {
        let units: Vec<_> = case.specs.iter().cloned().map(Unit::Spec).collect();
        measure(case.name, case.specs.len(), opts, |cols| {
            let jobs = kernel::plan(&units)
                .unwrap_or_else(|e| panic!("bad spec in bench case `{}`: {e}", case.name))
                .into_iter()
                .map(|(_, job)| (0, job))
                .collect();
            let timed = kernel::run_jobs(jobs, |_| cols, NovelPolicy::Count, opts.threads);
            timed.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3
        })
    });
    BenchReport {
        quick: opts.quick,
        cases: cases.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> ExperimentOpts {
        ExperimentOpts {
            threads,
            ..ExperimentOpts::quick()
        }
    }

    #[test]
    fn every_case_serializes_a_positive_rate_and_no_dyn_key() {
        let cases = vec![BenchCase {
            name: "tiny",
            specs: vec![
                "gshare:n=8,h=4".into(),
                "gskew:n=8,h=4".into(),
                "falru:cap=64,h=4".into(),
                "setassoc:n=6,ways=2,h=4".into(),
            ],
        }];
        let opts = quick(2);
        let mut report = run(&cases, &opts);
        report.cases.push(run_delay(&opts));
        // Two cells of one history: one DM pass each, one shared FA pass.
        let cells: Vec<_> = [IndexFunction::Gshare, IndexFunction::Gselect]
            .map(|func| ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func,
            })
            .into();
        report.cases.push(run_aliasing(&cells, &opts));
        let text = report.to_json().to_string_compact();
        for key in ["dyn", "speedup", "matched"] {
            assert!(!text.contains(key), "`{key}` in {text}");
        }
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("version").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("quick").unwrap(), &Json::Bool(true));
        let cases = parsed.get("cases").unwrap().as_arr().unwrap();
        let names: Vec<_> = cases
            .iter()
            .map(|c| c.get("name").unwrap().as_str())
            .collect();
        assert_eq!(names, [Some("tiny"), Some("delay"), Some("aliasing-3c")]);
        let specs: Vec<_> = cases
            .iter()
            .map(|c| c.get("specs").unwrap().as_u64())
            .collect();
        assert_eq!(
            specs,
            [
                Some(4),
                Some((DELAY_SPECS.len() * DELAYS.len()) as u64),
                Some(2)
            ]
        );
        for case in cases.iter().chain([parsed.get("overall").unwrap()]) {
            assert!(case.get("applications").unwrap().as_u64().unwrap() > 0);
            assert!(case.get("kernel_seconds").unwrap().as_f64().unwrap() > 0.0);
            assert!(case.get("kernel_rate").unwrap().as_f64().unwrap() > 0.0);
        }
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
}
