//! # presky-bench — the evaluation harness
//!
//! Regenerates every table and figure of Section 6 of the EDBT'13 paper
//! (plus the Figure 6 tentative-approximation study and three ablations).
//! The entry point is the `figures` binary:
//!
//! ```text
//! cargo run --release -p presky-bench --bin figures -- all
//! cargo run --release -p presky-bench --bin figures -- fig9b fig11
//! cargo run --release -p presky-bench --bin figures -- --quick all
//! ```
//!
//! Absolute times will differ from the paper's 2009-era Xeon; the harness
//! exists to reproduce the *shapes* — who wins, by how much, and where the
//! cut-offs fall — which `EXPERIMENTS.md` tracks artefact by artefact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod algos;
pub mod figs;
pub mod harness;
pub mod registry;
pub mod scalar;
pub mod tables;
pub mod workloads;

use harness::{Budget, FigReport};

/// Every artefact the harness can regenerate, in paper order.
pub fn artefact_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig6a",
        "fig6b",
        "fig9a",
        "fig9b",
        "fig10a",
        "fig10b",
        "fig11",
        "fig12a",
        "fig12b",
        "fig13a",
        "fig13b",
        "fig14a",
        "fig14b",
        "fig15a",
        "fig15b",
        "real_car",
        "ablation_prep",
        "ablation_sam",
        "ablation_kl",
        "ablation_cond",
        "ablation_threshold",
        "ablation_cache",
    ]
}

/// Run one artefact by id.
pub fn run_artefact(id: &str, budget: &Budget) -> Option<FigReport> {
    Some(match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig6a" => figs::fig6a(budget),
        "fig6b" => figs::fig6b(budget),
        "fig9a" => figs::fig9a(budget),
        "fig9b" => figs::fig9b(budget),
        "fig10a" => figs::fig10a(budget),
        "fig10b" => figs::fig10b(budget),
        "fig11" => figs::fig11(budget),
        "fig12a" => figs::fig12a(budget),
        "fig12b" => figs::fig12b(budget),
        "fig13a" => figs::fig13a(budget),
        "fig13b" => figs::fig13b(budget),
        "fig14a" => figs::fig14a(budget),
        "fig14b" => figs::fig14b(budget),
        "fig15a" => figs::fig15a(budget),
        "fig15b" => figs::fig15b(budget),
        "real_car" => figs::real_car(budget),
        "ablation_prep" => ablations::ablation_prep(budget),
        "ablation_sam" => ablations::ablation_sam(budget),
        "ablation_kl" => ablations::ablation_kl(budget),
        "ablation_cond" => ablations::ablation_cond(budget),
        "ablation_threshold" => ablations::ablation_threshold(budget),
        "ablation_cache" => ablations::ablation_cache(budget),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_artefact_dispatches() {
        // table1/table2 are cheap enough to actually run here; the rest
        // just need to resolve.
        for id in ["table1", "table2"] {
            assert!(run_artefact(id, &Budget::quick()).is_some());
        }
        assert!(run_artefact("nope", &Budget::quick()).is_none());
        assert_eq!(artefact_ids().len(), 24);
    }
}
