//! Karp–Luby importance sampling — an FPRAS-style extension.
//!
//! The paper's `Sam` estimates `sky(O)` with an *additive* `(ε, δ)`
//! guarantee: when `sky(O)` is tiny (an object dominated with overwhelming
//! probability), the plain estimator returns 0 long before it resolves the
//! true magnitude. The classical Karp–Luby estimator for DNF counting
//! transfers directly to the coin view (which *is* a weighted positive
//! DNF) and estimates the complement `P(⋃ e_i)` with *relative* accuracy:
//!
//! 1. let `M = Σ_i Pr(e_i)` (each term by Equation 2);
//! 2. sample attacker `i` with probability `Pr(e_i)/M`, then a world
//!    conditioned on `e_i` (coins of `i` forced to win, all other coins
//!    drawn independently);
//! 3. let `c` be the number of attackers dominating in that world
//!    (`c ≥ 1`); the sample value is `1/c`;
//! 4. `P(⋃ e_i) = M · E[1/c]`, so `sky = 1 − M · mean`.
//!
//! The estimator is unbiased and its sample values live in `[M/n, M]`,
//! giving the usual FPRAS sample bound. This module is the X1 ablation of
//! DESIGN.md — it is *not* part of the paper's algorithm suite.
//!
//! Conditioned worlds are evaluated 64 per machine word through
//! [`presky_core::bitworlds`]: each lane selects its own attacker
//! (weighted by `Pr(e_i)`), the selected attackers' coins are OR-ed into
//! the Bernoulli masks as per-lane *forced* bits, and the per-lane
//! domination counts `c` come from iterating the set bits of each
//! attacker's AND-of-masks word. The estimator's distribution is
//! unchanged; only the world layout is batched.
//!
//! The forced-coin Bernoulli masks are materialised as [`LANE_WORDS`]-word
//! superblocks (per-word keys and selection streams, exactly the
//! sampler's scheme), while the selection and `1/c` accumulation walk
//! words — hence worlds — in order, so the estimate is a function of the
//! world index alone.

use std::time::{Duration, Instant};

use presky_core::bitworlds::{
    bernoulli_masks_wide, superblock_keys, superblock_lane_mask, threshold, CERTAIN, LANE_WORDS,
};
use presky_core::coins::CoinView;
use presky_core::preference::PreferenceModel;
use presky_core::table::Table;
use presky_core::types::ObjectId;

use crate::error::{ApproxError, Result};

/// Configuration of the Karp–Luby estimator.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct KarpLubyOptions {
    /// Number of conditioned worlds to sample.
    pub samples: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KarpLubyOptions {
    fn default() -> Self {
        Self { samples: 3000, seed: 0 }
    }
}

impl KarpLubyOptions {
    /// Chainable: set the sample budget.
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// Chainable: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a Karp–Luby run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarpLubyOutcome {
    /// The estimate of `sky = 1 − M · E[1/c]`, clamped to `[0, 1]`.
    pub estimate: f64,
    /// The unclamped union-probability estimate `M · mean(1/c)`.
    pub union_estimate: f64,
    /// `M = Σ Pr(e_i)` (exact, not sampled).
    pub total_mass: f64,
    /// Worlds sampled.
    pub samples: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Karp–Luby estimate of `sky(target)` over a table.
pub fn sky_karp_luby<M: PreferenceModel>(
    table: &Table,
    prefs: &M,
    target: ObjectId,
    opts: KarpLubyOptions,
) -> Result<KarpLubyOutcome> {
    let view = CoinView::build(table, prefs, target)?;
    sky_karp_luby_view(&view, opts)
}

/// Karp–Luby estimate on a reduced instance.
pub fn sky_karp_luby_view(view: &CoinView, opts: KarpLubyOptions) -> Result<KarpLubyOutcome> {
    if opts.samples == 0 {
        return Err(ApproxError::ZeroSamples);
    }
    let start = Instant::now();
    let n = view.n_attackers();

    // Cumulative attacker masses for weighted selection.
    let probs: Vec<f64> = (0..n).map(|i| view.attacker_prob(i)).collect();
    let total_mass: f64 = probs.iter().sum();
    if total_mass == 0.0 {
        // No attacker can ever dominate.
        return Ok(KarpLubyOutcome {
            estimate: 1.0,
            union_estimate: 0.0,
            total_mass,
            samples: opts.samples,
            elapsed: start.elapsed(),
        });
    }
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &p in &probs {
        acc += p;
        cumulative.push(acc);
    }

    // The conditioned-world loop accumulates `Σ 1/c` in world order. Word
    // `w` of superblock `sb` reuses the key — and the auxiliary
    // attacker-selection stream — of narrow block `sb·W + w`; only the
    // Bernoulli mask materialisation is genuinely wide.
    const W: usize = LANE_WORDS;
    let thresholds: Vec<u64> = view.coin_probs().iter().map(|&p| threshold(p)).collect();
    let m_coins = view.n_coins();
    // The attacker-selection stream sits in the auxiliary id space so it
    // can never collide with a coin stream.
    const SELECT_STREAM: u64 = presky_core::bitworlds::AUX_STREAM;
    let mut masks = vec![[0u64; W]; m_coins];
    let mut forced = vec![[0u64; W]; m_coins];
    let mut sum_inv_c = 0.0;

    for sb in 0..opts.samples.div_ceil(64 * W as u64) {
        let lane_mask = superblock_lane_mask::<W>(opts.samples, sb);
        let keys = superblock_keys::<W>(opts.seed, sb);

        // Per-lane weighted attacker selection; the chosen coins become
        // forced bits of this superblock's masks.
        for f in forced.iter_mut() {
            *f = [0; W];
        }
        for w in 0..W {
            let mut sel = keys[w].stream(SELECT_STREAM);
            let lanes = lane_mask[w].count_ones() as usize;
            for lane in 0..lanes {
                let u = (sel.next_word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total_mass;
                let i = cumulative.partition_point(|&c| c < u).min(n - 1);
                for &k in view.attacker_coins(i) {
                    forced[k as usize][w] |= 1u64 << lane;
                }
            }
        }

        // Conditioned worlds draw every coin (an eager realisation), with
        // the forced bits OR-ed in.
        for (k, m) in masks.iter_mut().enumerate() {
            let t = thresholds[k];
            let bernoulli = match t {
                0 => [0; W],
                CERTAIN => [u64::MAX; W],
                _ => bernoulli_masks_wide(&keys, k as u64, t),
            };
            for w in 0..W {
                m[w] = bernoulli[w] | forced[k][w];
            }
        }

        // Per-lane domination counts from the set bits of each attacker's
        // AND-of-masks words (each lane's count is ≥ 1: its own selection).
        let mut counts = [[0u32; 64]; W];
        for j in 0..n {
            let mut d = lane_mask;
            for &k in view.attacker_coins(j) {
                let mut pending = 0u64;
                for w in 0..W {
                    d[w] &= masks[k as usize][w];
                    pending |= d[w];
                }
                if pending == 0 {
                    break;
                }
            }
            for w in 0..W {
                let mut dw = d[w];
                while dw != 0 {
                    counts[w][dw.trailing_zeros() as usize] += 1;
                    dw &= dw - 1;
                }
            }
        }
        for w in 0..W {
            let lanes = lane_mask[w].count_ones() as usize;
            for &c in counts[w].iter().take(lanes) {
                debug_assert!(c >= 1);
                sum_inv_c += 1.0 / f64::from(c);
            }
        }
    }

    let union_estimate = total_mass * sum_inv_c / opts.samples as f64;
    Ok(KarpLubyOutcome {
        estimate: (1.0 - union_estimate).clamp(0.0, 1.0),
        union_estimate,
        total_mass,
        samples: opts.samples,
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
    fn converges_on_example1() {
        let (t, p) = example1();
        let out = sky_karp_luby(
            &t,
            &p,
            ObjectId(0),
            KarpLubyOptions::default().with_samples(60_000).with_seed(5),
        )
        .unwrap();
        assert!((out.estimate - 3.0 / 16.0).abs() < 0.01, "estimate {}", out.estimate);
        assert!((out.total_mass - 1.5).abs() < 1e-12, "Σ Pr(e_i) = 3/2");
    }

    #[test]
    fn relative_accuracy_on_tiny_sky() {
        // 8 independent attackers each dominating w.p. 0.55:
        // sky = 0.45^8 ≈ 1.68e-3. Karp–Luby resolves the complement with
        // relative precision where plain Sam would need ~1/sky samples.
        let view = CoinView::from_parts(vec![0.55; 8], (0..8).map(|i| vec![i]).collect()).unwrap();
        let exact = 0.45f64.powi(8);
        let out = sky_karp_luby_view(
            &view,
            KarpLubyOptions::default().with_samples(200_000).with_seed(1),
        )
        .unwrap();
        let rel = ((1.0 - out.estimate) - (1.0 - exact)).abs() / (1.0 - exact);
        assert!(rel < 0.01, "relative error {rel}");
    }

    #[test]
    fn no_attackers_is_certain() {
        let view = CoinView::from_parts(vec![], vec![]).unwrap();
        let out = sky_karp_luby_view(&view, KarpLubyOptions::default()).unwrap();
        assert_eq!(out.estimate, 1.0);
        assert_eq!(out.union_estimate, 0.0);
    }

    #[test]
    fn impossible_attackers_are_certain_skyline() {
        let view = CoinView::from_parts(vec![0.0], vec![vec![0]]).unwrap();
        let out = sky_karp_luby_view(&view, KarpLubyOptions::default()).unwrap();
        assert_eq!(out.estimate, 1.0);
    }

    #[test]
    fn certain_attacker_gives_zero() {
        let view = CoinView::from_parts(vec![1.0], vec![vec![0]]).unwrap();
        let out =
            sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(500).with_seed(0))
                .unwrap();
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn deterministic_per_seed_and_zero_samples_rejected() {
        let (t, p) = example1();
        let o = KarpLubyOptions::default().with_samples(1000).with_seed(9);
        let a = sky_karp_luby(&t, &p, ObjectId(0), o).unwrap();
        let b = sky_karp_luby(&t, &p, ObjectId(0), o).unwrap();
        assert_eq!(a.estimate, b.estimate);
        let view = CoinView::build(&t, &p, ObjectId(0)).unwrap();
        assert!(matches!(
            sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(0).with_seed(0)),
            Err(ApproxError::ZeroSamples)
        ));
    }
}
