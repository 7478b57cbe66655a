//! Sampler baselines the library does not carry, kept so the kernel
//! benchmarks (`sam_kernel`, the `ablation_sam` rows) have denominators.
//!
//! * [`sky_sam_scalar`] — the plain world-at-a-time loop of Algorithm 2:
//!   one sequential `StdRng` stream, one `f64` uniform per coin draw, and
//!   generation-stamped coin reuse within a world. It samples a different
//!   stream than the bit-parallel kernel, so the two agree within the
//!   Hoeffding ε, not bit for bit.
//! * [`sky_sam_single_word`] — the bit-parallel kernel at one 64-world
//!   word per step ([`survivors_block`]). Block `b` is keyed exactly as
//!   word `b` of the library's four-word superblocks, so its estimates and
//!   telemetry equal [`sky_sam_view`](presky_approx::sampler::sky_sam_view)'s
//!   bit for bit; only throughput differs.
//!
//! Both read `samples`, `seed`, `sort_checking` and `lazy` from
//! [`SamOptions`]; `deadline_at` is ignored (baselines are timed, not
//! budgeted).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use presky_approx::error::{ApproxError, Result};
use presky_approx::sampler::{SamOptions, SamOutcome};
use presky_core::bitworlds::{block_lane_mask, survivors_block, BlockScratch};
use presky_core::coins::CoinView;

/// Reusable buffers for both baselines. A default value works for any
/// view; after the first call on the largest view, later calls allocate
/// nothing.
#[derive(Debug, Default)]
pub struct BaselineScratch {
    stamp: Vec<u64>,
    win: Vec<bool>,
    probs: Vec<f64>,
    order: Vec<usize>,
    /// Monotone world counter: world `h` of a run stamps coins with
    /// `base + h`, so stale stamps from earlier runs (all `≤ base`) can
    /// never alias a current world and the stamp array needs no clearing.
    generation: u64,
    /// Single-word kernel state.
    block: BlockScratch,
}

impl BaselineScratch {
    /// Fill `order` with the run's checking sequence.
    fn checking_order(&mut self, view: &CoinView, opts: &SamOptions) {
        if opts.sort_checking {
            view.checking_sequence_into(&mut self.probs, &mut self.order);
        } else {
            self.order.clear();
            self.order.extend(0..view.n_attackers());
        }
    }
}

/// The scalar world-at-a-time sampler.
pub fn sky_sam_scalar(
    view: &CoinView,
    opts: SamOptions,
    scratch: &mut BaselineScratch,
) -> Result<SamOutcome> {
    if opts.samples == 0 {
        return Err(ApproxError::ZeroSamples);
    }
    let start = Instant::now();
    let m_coins = view.n_coins();
    scratch.checking_order(view, &opts);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Generation-stamped world: a coin belongs to the current world iff its
    // stamp equals base + h; entries surviving from previous runs are all
    // ≤ base and therefore read as "not drawn yet".
    if scratch.stamp.len() < m_coins {
        scratch.stamp.resize(m_coins, 0);
        scratch.win.resize(m_coins, false);
    }
    let base = scratch.generation;
    scratch.generation += opts.samples;
    let order = &scratch.order;
    let stamp = &mut scratch.stamp;
    let win = &mut scratch.win;

    let mut hits = 0u64;
    let mut coin_draws = 0u64;
    let mut attacker_checks = 0u64;

    for h in 1..=opts.samples {
        let world = base + h;
        if !opts.lazy {
            for k in 0..m_coins {
                stamp[k] = world;
                win[k] = rng.random::<f64>() < view.coin_prob(k as u32);
                coin_draws += 1;
            }
        }
        let mut dominated = false;
        'attackers: for &i in order {
            attacker_checks += 1;
            for &k in view.attacker_coins(i) {
                let ku = k as usize;
                if stamp[ku] != world {
                    stamp[ku] = world;
                    win[ku] = rng.random::<f64>() < view.coin_prob(k);
                    coin_draws += 1;
                }
                if !win[ku] {
                    continue 'attackers;
                }
            }
            dominated = true;
            break;
        }
        if !dominated {
            hits += 1;
        }
    }

    Ok(SamOutcome {
        estimate: hits as f64 / opts.samples as f64,
        samples: opts.samples,
        skyline_hits: hits,
        coin_draws,
        attacker_checks,
        elapsed: start.elapsed(),
    })
}

/// The bit-parallel kernel one 64-world word at a time.
pub fn sky_sam_single_word(
    view: &CoinView,
    opts: SamOptions,
    scratch: &mut BaselineScratch,
) -> Result<SamOutcome> {
    if opts.samples == 0 {
        return Err(ApproxError::ZeroSamples);
    }
    let start = Instant::now();
    scratch.checking_order(view, &opts);
    let block = &mut scratch.block;
    block.prepare(view);
    let mut hits = 0u64;
    for b in 0..opts.samples.div_ceil(64) {
        let lane_mask = block_lane_mask(opts.samples, b);
        let live = survivors_block(view, &scratch.order, opts.seed, b, lane_mask, opts.lazy, block);
        hits += u64::from(live.count_ones());
    }
    Ok(SamOutcome {
        estimate: hits as f64 / opts.samples as f64,
        samples: opts.samples,
        skyline_hits: hits,
        coin_draws: block.coin_draws,
        attacker_checks: block.attacker_checks,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use presky_approx::bounds::hoeffding_epsilon;
    use presky_approx::sampler::sky_sam_view;
    use presky_core::preference::{PrefPair, TablePreferences};
    use presky_core::table::Table;
    use presky_core::types::ObjectId;

    use super::*;

    /// Example 1 of the paper: sky(O) = 3/16 over four coins.
    fn example1() -> CoinView {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        CoinView::build(&t, &TablePreferences::with_default(PrefPair::half()), ObjectId(0)).unwrap()
    }

    fn scalar(view: &CoinView, opts: SamOptions) -> SamOutcome {
        sky_sam_scalar(view, opts, &mut BaselineScratch::default()).unwrap()
    }

    #[test]
    fn scalar_is_deterministic_per_seed() {
        let view = example1();
        let a = scalar(&view, SamOptions::with_samples(500, 42));
        let b = scalar(&view, SamOptions::with_samples(500, 42));
        let c = scalar(&view, SamOptions::with_samples(500, 43));
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.coin_draws, b.coin_draws);
        assert_eq!(a.attacker_checks, b.attacker_checks);
        // A different seed almost surely differs somewhere in the counters.
        assert!(a.skyline_hits != c.skyline_hits || a.coin_draws != c.coin_draws);
        // Scratch reuse shifts the stamps, never the stream.
        let mut scratch = BaselineScratch::default();
        for _ in 0..3 {
            let again = sky_sam_scalar(&view, SamOptions::with_samples(500, 42), &mut scratch);
            assert_eq!(again.unwrap().skyline_hits, a.skyline_hits);
        }
    }

    #[test]
    fn scalar_lazy_draws_fewer_coins_than_eager() {
        let view = example1();
        let lazy = scalar(&view, SamOptions::with_samples(2000, 5));
        let eager = scalar(&view, SamOptions::with_samples(2000, 5).with_lazy(false));
        assert!(lazy.coin_draws < eager.coin_draws);
        assert_eq!(eager.coin_draws, 2000 * view.n_coins() as u64, "eager draws every coin");
        assert!((lazy.estimate - 0.1875).abs() < 0.03);
        assert!((eager.estimate - 0.1875).abs() < 0.03);
    }

    #[test]
    fn scalar_agrees_with_the_kernel_within_two_epsilon() {
        // Each estimate is within ε of the truth w.p. 1 − δ, so the two
        // streams' estimates sit within 2ε of each other.
        let view = example1();
        let opts = SamOptions::with_samples(60_000, 21);
        let eps = hoeffding_epsilon(opts.samples, 1e-6).unwrap();
        let s = scalar(&view, opts).estimate;
        let k = sky_sam_view(&view, opts).unwrap().estimate;
        assert!((s - k).abs() <= 2.0 * eps, "scalar {s} vs kernel {k} (2ε = {})", 2.0 * eps);
    }

    #[test]
    fn single_word_matches_the_library_kernel_bit_for_bit() {
        let view = example1();
        let mut scratch = BaselineScratch::default();
        // Budgets off the 64- and 256-world grids exercise dead lanes.
        for m in [1u64, 100, 700, 1001] {
            for lazy in [true, false] {
                let opts = SamOptions::with_samples(m, 17).with_lazy(lazy);
                let narrow = sky_sam_single_word(&view, opts, &mut scratch).unwrap();
                let wide = sky_sam_view(&view, opts).unwrap();
                assert_eq!(narrow.estimate.to_bits(), wide.estimate.to_bits(), "m {m}");
                assert_eq!(narrow.coin_draws, wide.coin_draws, "m {m} lazy {lazy}");
                assert_eq!(narrow.attacker_checks, wide.attacker_checks, "m {m} lazy {lazy}");
            }
        }
    }
}
