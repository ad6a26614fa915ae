//! The experiment registry: one module per table/figure of the paper,
//! plus the ablations and extensions listed in `DESIGN.md`.
//!
//! Every experiment is addressed by a stable id (`table2`, `fig5`,
//! `ablation-banks`, …), consumes an [`ExperimentOpts`], and produces an
//! [`ExperimentOutput`] of renderable tables whose rows correspond to the
//! series the paper plots.

use crate::report::Table;
use bpred_trace::workload::IbsBenchmark;

mod ablations;
mod extensions;
mod fig11;
mod fig12;
mod fig1_fig2;
mod fig3;
mod fig5_fig6;
mod fig7;
mod fig8;
mod fig9;
mod helpers;
mod table1;
mod table2;
mod three_c;

pub use helpers::{columns, set_workload_seed, sim_pct, workload_seed};

/// The per-benchmark trace-length cap of `--quick` runs
/// ([`ExperimentOpts::len_for`]).
pub const QUICK_LEN_CAP: u64 = 120_000;

/// Global knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Override the per-benchmark dynamic conditional branch count.
    pub len_override: Option<u64>,
    /// Worker threads for the parallel sweeps.
    pub threads: usize,
    /// Cap lengths at [`QUICK_LEN_CAP`] for smoke tests and benches.
    pub quick: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            len_override: None,
            threads: crate::runner::default_threads(),
            quick: false,
        }
    }
}

impl ExperimentOpts {
    /// The trace length to simulate for `bench` under these options.
    pub fn len_for(&self, bench: IbsBenchmark) -> u64 {
        let len = self.len_override.unwrap_or_else(|| bench.default_len());
        if self.quick {
            len.min(QUICK_LEN_CAP)
        } else {
            len
        }
    }

    /// Every IBS benchmark at its [`ExperimentOpts::len_for`] length, in
    /// [`IbsBenchmark::all`] order: the workloads of a benchmark-column
    /// table.
    pub(crate) fn workloads(&self) -> Vec<(IbsBenchmark, u64)> {
        IbsBenchmark::all().map(|b| (b, self.len_for(b))).to_vec()
    }

    /// A quick-mode configuration for tests.
    pub fn quick() -> Self {
        ExperimentOpts {
            quick: true,
            ..ExperimentOpts::default()
        }
    }
}

/// The rendered result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The experiment id (`fig5`, `table2`, …).
    pub id: &'static str,
    /// Human-readable description with the paper reference.
    pub title: String,
    /// One or more result tables.
    pub tables: Vec<Table>,
}

impl ExperimentOutput {
    /// Render every table, separated by blank lines.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.title);
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

/// Every available experiment id, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "three-c",
    "ablation-banks",
    "ablation-update",
    "ablation-counters",
    "ablation-skew",
    "ext-hybrid",
    "ext-antialias",
    "ext-pas",
    "ext-multiprogram",
    "ext-nature",
    "ext-encoding",
    "ext-confidence",
    "ext-delay",
    "ext-assoc",
    "ext-seeds",
    "ext-duel",
];

/// Run one experiment by id. Returns `None` for unknown ids.
pub fn run(id: &str, opts: &ExperimentOpts) -> Option<ExperimentOutput> {
    if let Some(stable) = ALL_IDS.iter().find(|stable| **stable == id) {
        crate::resume::set_experiment(stable);
    }
    let output = match id {
        "table1" => table1::run(opts),
        "table2" => table2::run(opts),
        "fig1" => fig1_fig2::run(opts, 4, "fig1"),
        "fig2" => fig1_fig2::run(opts, 12, "fig2"),
        "fig3" => fig3::run(opts),
        "fig5" => fig5_fig6::run(opts, 4, "fig5"),
        "fig6" => fig5_fig6::run(opts, 12, "fig6"),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9" => fig9::run(opts, 1.0, "fig9"),
        "fig10" => fig9::run(opts, 0.2, "fig10"),
        "fig11" => fig11::run(opts),
        "fig12" => fig12::run(opts),
        "three-c" => three_c::run(opts),
        "ablation-banks" => ablations::banks(opts),
        "ablation-update" => ablations::update(opts),
        "ablation-counters" => ablations::counters(opts),
        "ext-hybrid" => ablations::hybrids(opts),
        "ablation-skew" => extensions::skew_ablation(opts),
        "ext-antialias" => extensions::antialias(opts),
        "ext-pas" => extensions::pas(opts),
        "ext-multiprogram" => extensions::multiprogram(opts),
        "ext-nature" => extensions::nature(opts),
        "ext-encoding" => extensions::encoding(opts),
        "ext-confidence" => extensions::confidence(opts),
        "ext-delay" => extensions::delay(opts),
        "ext-assoc" => extensions::assoc(opts),
        "ext-seeds" => extensions::seeds(opts),
        "ext-duel" => extensions::duel_verdicts(opts),
        _ => return None,
    };
    Some(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99", &ExperimentOpts::quick()).is_none());
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids: Vec<_> = ALL_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_IDS.len());
    }
}
