//! Property-based tests of the approximation layer on synthetic clause
//! systems.

use proptest::prelude::*;

use presky_core::coins::CoinView;
use presky_core::preference::{PrefPair, TablePreferences};
use presky_core::table::Table;
use presky_core::types::ObjectId;
use presky_exact::det::{sky_det_view, DetOptions};

use presky_approx::a1::sky_a1;
use presky_approx::a2::{sky_a2, sky_a2_big};
use presky_approx::bounds::{hoeffding_delta, hoeffding_epsilon, hoeffding_samples};
use presky_approx::karp_luby::{sky_karp_luby_view, KarpLubyOptions};
use presky_approx::sac::{sac_is_exact, sky_sac_view};
use presky_approx::sampler::{sky_sam_antithetic_view, sky_sam_view, SamOptions};
use presky_approx::samplus::{sky_sam_plus_view, SamPlusOptions};
use presky_approx::sprt::{sky_threshold_test_view, SprtOptions, ThresholdDecision};

/// Example 1 of the paper (Fig. 1–2): sky(O) = 3/16 with all pairwise
/// value preferences one half.
fn example1_view() -> CoinView {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
        .unwrap();
    let p = TablePreferences::with_default(PrefPair::half());
    CoinView::build(&t, &p, ObjectId(0)).unwrap()
}

/// The Observation of Section 1: sky(P1) = 1/2 — P2 and P3 share the
/// value `t`, so their dominance events are dependent.
fn observation_view() -> CoinView {
    let t = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
    let p = TablePreferences::with_default(PrefPair::half());
    CoinView::build(&t, &p, ObjectId(0)).unwrap()
}

/// The bit-parallel kernel honours the paper's additive Hoeffding budget
/// on the ground-truth fixtures: at (ε, δ) = (0.01, 0.01) every seed's
/// estimate lands within ε of the enumerated truth.
#[test]
fn kernel_meets_tight_epsilon_on_paper_fixtures() {
    let eps = 0.01;
    let m = hoeffding_samples(eps, 0.01).unwrap();
    for (view, truth) in [(example1_view(), 3.0 / 16.0), (observation_view(), 0.5)] {
        let enumerated = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        assert!((enumerated - truth).abs() < 1e-12, "fixture truth");
        for seed in 0..5 {
            let out = sky_sam_view(&view, SamOptions::with_samples(m, seed)).unwrap();
            assert!((out.estimate - truth).abs() < eps, "seed {seed}: {} vs {truth}", out.estimate);
        }
    }
}

/// Every Monte-Carlo estimator's output, pinned bit for bit on the paper
/// fixtures: per row, `Sam` lazy and eager, antithetic `Sam` and
/// Karp–Luby, then the sequential test's `(decision, samples_used,
/// estimate)` at τ = truth − 0.1, truth and truth + 0.1. The budgets are
/// not multiples of 256, so the final partial superblock and its dead
/// lanes are covered. A drifted value changes what every caller of that
/// estimator sees; rows follow the loop order below.
#[test]
fn estimates_are_pinned() {
    use ThresholdDecision::{AtLeast, Below, Undecided};
    let estimates: [[f64; 4]; 8] = [
        [0.1757142857142857, 0.1757142857142857, 0.18571428571428572, 0.2091071428571446],
        [0.18081918081918083, 0.18081918081918083, 0.17864271457085829, 0.2140359640359677],
        [0.17857142857142858, 0.17857142857142858, 0.20285714285714285, 0.21142857142857407],
        [0.17782217782217782, 0.17782217782217782, 0.20159680638722555, 0.19742757242757558],
        [0.48, 0.48, 0.5, 0.5017857142857143],
        [0.4855144855144855, 0.4855144855144855, 0.5, 0.5032467532467533],
        [0.5071428571428571, 0.5071428571428571, 0.5, 0.5044642857142857],
        [0.5134865134865135, 0.5134865134865135, 0.5, 0.506993006993007],
    ];
    let tests: [[(ThresholdDecision, u64, f64); 3]; 8] = [
        [(AtLeast, 64, 0.28125), (Undecided, 700, 0.1757142857142857), (Below, 320, 0.203125)],
        [(AtLeast, 64, 0.28125), (Undecided, 1001, 0.18081918081918083), (Below, 320, 0.203125)],
        [(AtLeast, 128, 0.2109375), (Undecided, 700, 0.17857142857142858), (Below, 320, 0.203125)],
        [(AtLeast, 128, 0.2109375), (Undecided, 1001, 0.17782217782217782), (Below, 320, 0.203125)],
        [(AtLeast, 320, 0.50625), (Undecided, 700, 0.48), (Below, 320, 0.50625)],
        [(AtLeast, 320, 0.50625), (Undecided, 1001, 0.4855144855144855), (Below, 320, 0.50625)],
        [
            (AtLeast, 192, 0.546875),
            (Undecided, 700, 0.5071428571428571),
            (Below, 448, 0.5290178571428571),
        ],
        [
            (AtLeast, 192, 0.546875),
            (Undecided, 1001, 0.5134865134865135),
            (Below, 448, 0.5290178571428571),
        ],
    ];
    let bits = |t: [(ThresholdDecision, u64, f64); 3]| t.map(|(d, n, e)| (d, n, e.to_bits()));
    let mut row = 0;
    for (view, truth) in [(example1_view(), 3.0 / 16.0), (observation_view(), 0.5)] {
        for seed in [3u64, 17] {
            for m in [700u64, 1001] {
                let sam = SamOptions::with_samples(m, seed);
                let kl = KarpLubyOptions::default().with_samples(m).with_seed(seed);
                let got = [
                    sky_sam_view(&view, sam).unwrap().estimate,
                    sky_sam_view(&view, sam.with_lazy(false)).unwrap().estimate,
                    sky_sam_antithetic_view(&view, sam).unwrap().estimate,
                    sky_karp_luby_view(&view, kl).unwrap().estimate,
                ];
                let at = format!("truth {truth}, seed {seed}, m {m}");
                assert_eq!(got.map(f64::to_bits), estimates[row].map(f64::to_bits), "{at}");
                let sprt = SprtOptions::default().with_max_samples(m).with_seed(seed);
                let got = [truth - 0.1, truth, truth + 0.1].map(|tau| {
                    let out = sky_threshold_test_view(&view, tau, sprt).unwrap();
                    (out.decision, out.samples_used, out.estimate)
                });
                assert_eq!(bits(got), bits(tests[row]), "{at}");
                row += 1;
            }
        }
    }
}

fn clause_system() -> impl Strategy<Value = CoinView> {
    (2usize..=6).prop_flat_map(|m| {
        let probs = proptest::collection::vec(0.0f64..=1.0, m);
        let clauses = proptest::collection::vec(1u32..(1 << m as u32), 1..=6);
        (probs, clauses).prop_map(move |(probs, masks)| {
            let clauses: Vec<Vec<u32>> = masks
                .into_iter()
                .map(|mask| (0..m as u32).filter(|&b| mask & (1 << b) != 0).collect())
                .collect();
            CoinView::from_parts(probs, clauses).expect("valid system")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn estimators_stay_in_range_and_near_truth(view in clause_system()) {
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let sam = sky_sam_view(&view, SamOptions::with_samples(4000, 3)).unwrap();
        prop_assert!((0.0..=1.0).contains(&sam.estimate));
        prop_assert!((sam.estimate - truth).abs() < 0.08, "{} vs {truth}", sam.estimate);

        let samp = sky_sam_plus_view(
            &view,
            SamPlusOptions::default().with_sam(SamOptions::with_samples(4000, 3)),
        )
        .unwrap();
        prop_assert!((samp.estimate - truth).abs() < 0.08, "{} vs {truth}", samp.estimate);

        let kl = sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(4000).with_seed(3))
            .unwrap();
        prop_assert!((0.0..=1.0).contains(&kl.estimate));
        prop_assert!((kl.estimate - truth).abs() < 0.08, "{} vs {truth}", kl.estimate);
    }

    #[test]
    fn lazy_and_eager_sampling_are_both_unbiased_but_lazy_draws_less(
        view in clause_system()
    ) {
        let lazy = sky_sam_view(&view, SamOptions::with_samples(2000, 5)).unwrap();
        let eager = sky_sam_view(
            &view,
            SamOptions::with_samples(2000, 5).with_lazy(false),
        )
        .unwrap();
        prop_assert!(lazy.coin_draws <= eager.coin_draws);
        prop_assert_eq!(eager.coin_draws, 2000 * view.n_coins() as u64);
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        prop_assert!((lazy.estimate - truth).abs() < 0.1);
        prop_assert!((eager.estimate - truth).abs() < 0.1);
    }

    #[test]
    fn samplus_check_budget_shrinks_with_the_attacker_set(view in clause_system()) {
        let m = 1000u64;
        let plus = sky_sam_plus_view(
            &view,
            SamPlusOptions::default().with_sam(SamOptions::with_samples(m, 9)),
        )
        .unwrap();
        // Per-world checks are bounded by the preprocessed attacker count,
        // not the raw one — the whole point of Sam+.
        let remaining =
            (view.n_attackers() - plus.absorbed - plus.pruned_impossible) as u64;
        prop_assert!(plus.sam.attacker_checks <= m * remaining);
        prop_assert_eq!(plus.sam.samples, m);
    }

    #[test]
    fn a1_and_a2_converge_to_exact_at_full_budget(view in clause_system()) {
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let n = view.n_attackers();
        let a1 = sky_a1(&view, n, DetOptions::default()).unwrap();
        prop_assert!((a1.estimate - truth).abs() < 1e-9);
        let a2 = sky_a2(&view, u64::MAX).unwrap();
        prop_assert!(a2.complete);
        prop_assert!((a2.estimate - truth).abs() < 1e-9);
        let a2b = sky_a2_big(&view, u64::MAX);
        prop_assert!((a2b.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn sac_exactness_detector_is_sound(view in clause_system()) {
        if sac_is_exact(&view) {
            let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
            prop_assert!((sky_sac_view(&view) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn hoeffding_arithmetic_is_self_consistent(
        eps in 0.001f64..0.5,
        delta in 0.001f64..0.5,
    ) {
        let m = hoeffding_samples(eps, delta).unwrap();
        prop_assert!(m >= 1);
        // The achieved epsilon at that m is no worse than requested.
        let achieved = hoeffding_epsilon(m, delta).unwrap();
        prop_assert!(achieved <= eps + 1e-12);
        // And the achieved delta at (m, eps) is no worse than requested.
        let d = hoeffding_delta(m, eps).unwrap();
        prop_assert!(d <= delta + 1e-12);
    }

    #[test]
    fn kernel_and_antithetic_estimates_meet_the_hoeffding_bound(view in clause_system()) {
        // Each estimate lies within ε of the exact truth with probability
        // ≥ 1 − δ; δ = 10⁻⁶ makes a spurious failure over 64 cases
        // essentially impossible. The antithetic estimator's variance is
        // at most the plain one's, so the same ε holds for it.
        let m = 4000;
        let eps = hoeffding_epsilon(m, 1e-6).unwrap();
        let truth = sky_det_view(&view, DetOptions::default()).unwrap().sky;
        let plain = sky_sam_view(&view, SamOptions::with_samples(m, 7)).unwrap();
        prop_assert!(
            (plain.estimate - truth).abs() <= eps,
            "kernel {} vs truth {truth} (ε {eps})",
            plain.estimate
        );
        let anti = sky_sam_antithetic_view(&view, SamOptions::with_samples(m, 7)).unwrap();
        prop_assert!(
            (anti.estimate - truth).abs() <= eps,
            "antithetic {} vs truth {truth} (ε {eps})",
            anti.estimate
        );
    }

    #[test]
    fn karp_luby_union_mass_bounds(view in clause_system()) {
        let kl = sky_karp_luby_view(&view, KarpLubyOptions::default().with_samples(500).with_seed(1))
            .unwrap();
        // The unclamped union estimate lies in [max_i Pr(e_i) / n, M]...
        // more loosely: in [0, M].
        prop_assert!(kl.union_estimate >= -1e-12);
        prop_assert!(kl.union_estimate <= kl.total_mass + 1e-12);
    }
}
