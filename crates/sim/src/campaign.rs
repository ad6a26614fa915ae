//! Named campaigns: fixed experiment sets run as one unit.
//!
//! A campaign pins *which* experiments run and *how* (lengths, quick
//! mode), so its artifact — every rendered table cell, captured as a
//! [`CampaignArtifact`] — is reproducible and can be diffed against a
//! committed baseline by [`bpred_results::campaign::diff`]. The `quick`
//! campaign backs the CI regression gate; `full-quick` runs all
//! [`experiments::ALL_IDS`] and backs the all-experiments gate.

use crate::experiments::{self, ExperimentOpts, ExperimentOutput};
use crate::resume::ENGINE_VERSION;
use bpred_results::campaign::{CampaignArtifact, ExperimentData, TableData};

/// A named experiment set.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Stable campaign name (`quick`, …).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Experiment ids to run, in order.
    pub experiments: &'static [&'static str],
    /// Run at `--quick` lengths.
    pub quick: bool,
}

/// Every defined campaign.
pub const ALL: &[Campaign] = &[
    Campaign {
        name: "quick",
        description: "fig5 fig7 fig8 table2 three-c at --quick lengths (the CI regression gate)",
        experiments: &["fig5", "fig7", "fig8", "table2", "three-c"],
        quick: true,
    },
    Campaign {
        name: "full-quick",
        description: "every experiment at --quick lengths (the all-experiments CI gate)",
        experiments: experiments::ALL_IDS,
        quick: true,
    },
];

/// Look a campaign up by name.
pub fn find(name: &str) -> Option<&'static Campaign> {
    ALL.iter().find(|c| c.name == name)
}

/// Run every experiment of `campaign` and capture the artifact.
/// `opts` supplies threads and any length override; quick mode is
/// forced to the campaign's own setting so the artifact stays
/// comparable to its baseline. The artifact records the workload seed
/// in effect ([`experiments::workload_seed`]).
///
/// # Panics
///
/// Panics if the campaign names an unknown experiment id — campaign
/// definitions are static and covered by tests.
pub fn run(campaign: &Campaign, opts: &ExperimentOpts) -> CampaignArtifact {
    let mut opts = opts.clone();
    opts.quick = campaign.quick;
    let experiments = campaign
        .experiments
        .iter()
        .map(|id| {
            let output = experiments::run(id, &opts)
                .unwrap_or_else(|| panic!("campaign names unknown experiment `{id}`"));
            capture(&output)
        })
        .collect();
    CampaignArtifact {
        name: campaign.name.to_string(),
        engine_version: ENGINE_VERSION.to_string(),
        seed: experiments::workload_seed(),
        experiments,
    }
}

/// Capture one experiment's rendered tables into artifact form.
pub fn capture(output: &ExperimentOutput) -> ExperimentData {
    ExperimentData {
        id: output.id.to_string(),
        title: output.title.clone(),
        tables: output
            .tables
            .iter()
            .map(|t| TableData {
                title: t.title().to_string(),
                columns: t.columns().to_vec(),
                rows: t.rows().to_vec(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_campaign_names_known_experiments() {
        for campaign in ALL {
            assert!(!campaign.experiments.is_empty());
            for id in campaign.experiments {
                assert!(
                    experiments::ALL_IDS.contains(id),
                    "campaign `{}` names unknown experiment `{id}`",
                    campaign.name
                );
            }
        }
    }

    #[test]
    fn find_resolves_names() {
        assert_eq!(find("quick").unwrap().name, "quick");
        assert_eq!(
            find("full-quick").unwrap().experiments,
            experiments::ALL_IDS
        );
        assert!(find("nope").is_none());
    }
}
