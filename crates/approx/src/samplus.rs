//! `Sam+` — sampling with absorption/partition preprocessing.
//!
//! Section 6 of the paper runs the two Section 5 preprocessing techniques
//! before sampling: absorption removes attackers outright (fewer dominance
//! checks per world), and partition splits the instance into independent
//! sub-instances. For sampling, partitioning additionally enables an
//! optional *per-component estimation* mode: each component's
//! `Pr(⋂ ē_i)` is estimated from its own worlds and the estimates are
//! multiplied — unbiased because components are mutually independent
//! (Theorem 4) and the per-component estimators are independent by
//! construction. The default mode mirrors the paper (joint sampling of the
//! reduced attacker set).
//!
//! The underlying sampler is [`sky_sam_view`], so `Sam+` inherits the
//! bit-parallel kernel (and its deterministic counter-based seeding) with
//! no code of its own — preprocessing only shrinks the instance the
//! kernel then evaluates.

use std::time::Instant;

use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use presky_exact::absorption::absorb;
use presky_exact::partition::partition;

use crate::error::Result;
use crate::sampler::{sky_sam_view, SamOptions, SamOutcome};

/// Configuration of `Sam+`.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SamPlusOptions {
    /// Options of the underlying sampler.
    pub sam: SamOptions,
    /// Run absorption first (paper default: on).
    pub absorption: bool,
    /// Drop attackers containing an impossible coin (always sound).
    pub prune_impossible: bool,
    /// Estimate each independent component separately and multiply
    /// (extension; paper default: off = joint sampling).
    pub per_component: bool,
}

impl Default for SamPlusOptions {
    fn default() -> Self {
        Self {
            sam: SamOptions::default(),
            absorption: true,
            prune_impossible: true,
            per_component: false,
        }
    }
}

impl SamPlusOptions {
    /// Chainable: set the underlying sampler options.
    pub fn with_sam(mut self, sam: SamOptions) -> Self {
        self.sam = sam;
        self
    }

    /// Chainable: toggle absorption preprocessing.
    pub fn with_absorption(mut self, on: bool) -> Self {
        self.absorption = on;
        self
    }

    /// Chainable: toggle impossible-attacker pruning.
    pub fn with_prune_impossible(mut self, on: bool) -> Self {
        self.prune_impossible = on;
        self
    }

    /// Chainable: toggle per-component estimation.
    pub fn with_per_component(mut self, on: bool) -> Self {
        self.per_component = on;
        self
    }
}

/// `Sam+` outcome: preprocessing statistics plus the sampling result.
#[derive(Debug, Clone, PartialEq)]
pub struct SamPlusOutcome {
    /// The estimate of `sky`.
    pub estimate: f64,
    /// Attackers in the raw instance.
    pub n_attackers: usize,
    /// Attackers dropped for containing an impossible coin.
    pub pruned_impossible: usize,
    /// Attackers removed by absorption.
    pub absorbed: usize,
    /// Component sizes (singleton vector unless `per_component`).
    pub component_sizes: Vec<usize>,
    /// Aggregated sampling statistics across components.
    pub sam: SamOutcome,
    /// Wall-clock time of the whole pipeline.
    pub elapsed: std::time::Duration,
}

/// Estimate `sky(target)` with preprocessing over a table.
pub fn sky_sam_plus<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    opts: SamPlusOptions,
) -> Result<SamPlusOutcome> {
    let view = CoinView::build(table, prefs, target)?;
    sky_sam_plus_view(&view, opts)
}

/// Estimate the skyline probability of a reduced instance with
/// preprocessing.
pub fn sky_sam_plus_view(view: &CoinView, opts: SamPlusOptions) -> Result<SamPlusOutcome> {
    let start = Instant::now();
    let n_attackers = view.n_attackers();

    let mut work = view.clone();
    let pruned_impossible = if opts.prune_impossible { work.prune_impossible() } else { 0 };
    let (work, absorbed) = if opts.absorption {
        let res = absorb(&work);
        let removed = res.n_removed();
        if removed == 0 {
            (work, 0)
        } else {
            (work.restrict(&res.kept), removed)
        }
    } else {
        (work, 0)
    };

    if !opts.per_component {
        let sam = sky_sam_view(&work, opts.sam)?;
        return Ok(SamPlusOutcome {
            estimate: sam.estimate,
            n_attackers,
            pruned_impossible,
            absorbed,
            component_sizes: vec![work.n_attackers()],
            sam,
            elapsed: start.elapsed(),
        });
    }

    let groups = partition(&work);
    let mut estimate = 1.0;
    let mut agg = SamOutcome {
        estimate: 1.0,
        samples: 0,
        skyline_hits: 0,
        coin_draws: 0,
        attacker_checks: 0,
        elapsed: std::time::Duration::ZERO,
    };
    let mut component_sizes = Vec::with_capacity(groups.len());
    for (idx, g) in groups.iter().enumerate() {
        let sub = work.restrict(g);
        // Decorrelate component streams deterministically.
        let sam_opts = SamOptions {
            seed: opts.sam.seed.wrapping_add(idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..opts.sam
        };
        let out = sky_sam_view(&sub, sam_opts)?;
        estimate *= out.estimate;
        agg.samples += out.samples;
        agg.skyline_hits += out.skyline_hits;
        agg.coin_draws += out.coin_draws;
        agg.attacker_checks += out.attacker_checks;
        agg.elapsed += out.elapsed;
        component_sizes.push(g.len());
    }
    agg.estimate = estimate;
    Ok(SamPlusOutcome {
        estimate,
        n_attackers,
        pruned_impossible,
        absorbed,
        component_sizes,
        sam: agg,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use presky_core::preference::{PrefPair, TablePreferences};

    use super::*;

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    #[test]
    fn absorbs_q1_and_converges() {
        let (t, p) = example1();
        let opts = SamPlusOptions::default().with_sam(SamOptions::with_samples(60_000, 11));
        let out = sky_sam_plus(&t, &p, ObjectId(0), opts).unwrap();
        assert_eq!(out.n_attackers, 4);
        assert_eq!(out.absorbed, 1);
        assert_eq!(out.component_sizes, vec![3]);
        assert!((out.estimate - 3.0 / 16.0).abs() < 0.006, "estimate {}", out.estimate);
    }

    #[test]
    fn per_component_mode_is_also_unbiased() {
        let (t, p) = example1();
        let opts = SamPlusOptions {
            per_component: true,
            ..SamPlusOptions::default().with_sam(SamOptions::with_samples(60_000, 13))
        };
        let out = sky_sam_plus(&t, &p, ObjectId(0), opts).unwrap();
        assert_eq!(out.component_sizes, vec![1, 1, 1]);
        assert!((out.estimate - 3.0 / 16.0).abs() < 0.01, "estimate {}", out.estimate);
        assert_eq!(out.sam.samples, 3 * 60_000);
    }

    #[test]
    fn preprocessing_reduces_sampling_work() {
        let (t, p) = example1();
        let m = 5000;
        let plain =
            crate::sampler::sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(m, 1)).unwrap();
        let plus = sky_sam_plus(
            &t,
            &p,
            ObjectId(0),
            SamPlusOptions::default().with_sam(SamOptions::with_samples(m, 1)),
        )
        .unwrap();
        assert!(
            plus.sam.attacker_checks < plain.attacker_checks,
            "{} vs {}",
            plus.sam.attacker_checks,
            plain.attacker_checks
        );
    }

    #[test]
    fn toggles_off_degenerate_to_plain_sam() {
        let (t, p) = example1();
        let opts = SamPlusOptions {
            absorption: false,
            prune_impossible: false,
            per_component: false,
            sam: SamOptions::with_samples(777, 21),
        };
        let plus = sky_sam_plus(&t, &p, ObjectId(0), opts).unwrap();
        let plain = crate::sampler::sky_sam(&t, &p, ObjectId(0), SamOptions::with_samples(777, 21))
            .unwrap();
        assert_eq!(plus.estimate, plain.estimate);
        assert_eq!(plus.sam.coin_draws, plain.coin_draws);
        assert_eq!(plus.absorbed, 0);
    }
}
