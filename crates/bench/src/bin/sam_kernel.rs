//! `sam_kernel` — throughput of the bit-parallel possible-world kernel.
//!
//! ```text
//! sam_kernel [--quick] [--out <path>] [--min-width-speedup <ratio>]
//! ```
//!
//! Measures worlds/second of the library's sampler — the wide kernel of
//! [`presky_core::bitworlds`], 256 worlds per superblock at
//! `lane_words = 4` — against two baselines in [`presky_bench::scalar`]:
//! the single-word (W = 1) driver and the scalar per-world loop, on
//! block-zipf coin views under the default sampling budget. All sides
//! evaluate the *same* preassembled views with reused scratch, so the
//! ratios isolate kernel work — no view assembly, no preprocessing.
//!
//! The W=1 and W=4 estimates must agree **bit for bit** (per-lane
//! counter seeding makes the estimate width-invariant); the scalar
//! loop samples a different stream and is held to the statistical
//! Hoeffding band instead. `--min-width-speedup` turns the printed
//! W=4-vs-W=1 ratio into a hard gate (CI's width-ablation smoke).
//!
//! Also times the end-to-end all-objects sampling driver, and writes a
//! JSON report (default `BENCH_sam.json`) whose top-level `lane_words`,
//! `threads` and `host_cores` fields record the configuration the
//! numbers were measured under.

use std::process::ExitCode;
use std::time::Instant;

use presky_bench::scalar::{sky_sam_scalar, sky_sam_single_word, BaselineScratch};
use presky_bench::workloads;
use presky_core::batch::BatchCoinContext;
use presky_core::bitworlds::LANE_WORDS;
use presky_core::coins::CoinView;
use presky_core::types::ObjectId;
use presky_query::engine::{all_sky_resident, EngineBudget};
use presky_query::prob_skyline::{Algorithm, QueryOptions};

use presky_approx::bounds::hoeffding_epsilon;
use presky_approx::error::Result;
use presky_approx::sampler::{sky_sam_view_with, SamOptions, SamOutcome, SamScratch};

fn usage() {
    eprintln!("usage: sam_kernel [--quick] [--out <path>] [--min-width-speedup <ratio>]");
}

/// Time one sampler over every view, returning
/// `(elapsed_s, worlds_per_sec, estimates)`.
fn run_kernel(
    views: &[CoinView],
    opts: SamOptions,
    mut sample: impl FnMut(&CoinView, SamOptions) -> Result<SamOutcome>,
) -> (f64, f64, Vec<f64>) {
    let mut estimates = Vec::with_capacity(views.len());
    let start = Instant::now();
    for view in views {
        estimates.push(sample(view, opts).expect("sampler").estimate);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let worlds = opts.samples as f64 * views.len() as f64;
    (elapsed, worlds / elapsed, estimates)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut out_path = std::path::PathBuf::from("BENCH_sam.json");
    let mut min_width_speedup: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out_path = p.into(),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--min-width-speedup" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) => min_width_speedup = Some(r),
                None => {
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let (n, d) = if quick { (2_000, 5) } else { (10_000, 5) };
    let n_targets = if quick { 8 } else { 32 };
    let opts = if quick { SamOptions::with_samples(1000, 0) } else { SamOptions::default() };
    println!(
        "# sam_kernel — block-zipf n={n} d={d}, {} targets x {} worlds",
        n_targets, opts.samples
    );

    let table = workloads::block_zipf(n, d);
    let prefs = workloads::block_prefs();

    // Preassemble an evenly spread set of target views outside the timed
    // region; skip degenerate targets (no attackers = nothing to measure).
    let mut views = Vec::with_capacity(n_targets);
    let mut i = 0usize;
    let stride = (n / (4 * n_targets)).max(1);
    while views.len() < n_targets && i < n {
        let view = CoinView::build(&table, &prefs, ObjectId::from(i)).expect("view");
        if view.n_attackers() > 0 && !view.has_certain_attacker() {
            views.push(view);
        }
        i += stride;
    }
    let mean_attackers =
        views.iter().map(|v| v.n_attackers()).sum::<usize>() as f64 / views.len() as f64;
    let mean_coins = views.iter().map(|v| v.n_coins()).sum::<usize>() as f64 / views.len() as f64;
    println!(
        "{} views (mean {:.0} attackers, {:.0} coins)",
        views.len(),
        mean_attackers,
        mean_coins
    );

    let mut scratch = SamScratch::default();
    let (kernel_s, kernel_rate, kernel_est) =
        run_kernel(&views, opts, |v, o| sky_sam_view_with(v, o, &mut scratch));
    println!(
        "wide (W={LANE_WORDS}):  {kernel_s:.3}s  ({kernel_rate:.0} worlds/s){}",
        if presky_core::bitworlds::avx2_available() { "  [avx2]" } else { "" }
    );
    let mut baseline = BaselineScratch::default();
    let (narrow_s, narrow_rate, narrow_est) =
        run_kernel(&views, opts, |v, o| sky_sam_single_word(v, o, &mut baseline));
    println!("single-word:  {narrow_s:.3}s  ({narrow_rate:.0} worlds/s)");
    let (scalar_s, scalar_rate, scalar_est) =
        run_kernel(&views, opts, |v, o| sky_sam_scalar(v, o, &mut baseline));
    println!("scalar:       {scalar_s:.3}s  ({scalar_rate:.0} worlds/s)");
    let speedup = kernel_rate / scalar_rate;
    println!("speedup vs scalar: {speedup:.2}x (target >= 8x)");
    let width_speedup = kernel_rate / narrow_rate;
    println!("speedup W={LANE_WORDS} vs W=1: {width_speedup:.2}x");

    // Per-lane counter seeding makes the estimate a function of the world
    // index alone, so W=1 and W=4 must agree exactly — any drift is a bug,
    // not noise.
    for (j, (wide, narrow)) in kernel_est.iter().zip(&narrow_est).enumerate() {
        assert!(
            wide.to_bits() == narrow.to_bits(),
            "lane-width divergence on view {j}: W={LANE_WORDS} gave {wide}, W=1 gave {narrow}"
        );
    }
    println!("width identity: W={LANE_WORDS} == W=1 bit-for-bit on all {} views", views.len());

    if let Some(min) = min_width_speedup {
        if width_speedup < min {
            eprintln!("width speedup {width_speedup:.2}x below required {min:.2}x");
            return ExitCode::FAILURE;
        }
    }

    // The two kernels estimate the same quantity from different streams;
    // each is within ε of the truth w.p. 1 − δ, so their gap stays under
    // 2ε at the run's own Hoeffding budget.
    let band = 2.0 * hoeffding_epsilon(opts.samples, 0.01).expect("valid budget");
    let mut max_gap = 0.0f64;
    for (k, s) in kernel_est.iter().zip(&scalar_est) {
        max_gap = max_gap.max((k - s).abs());
    }
    assert!(max_gap <= band, "kernel/scalar disagreement {max_gap} (band {band})");
    println!("agreement: max |kernel - scalar| = {max_gap:.4} (<= {band:.4})");

    // End-to-end: the all-objects sampling driver on a reduced instance.
    let e2e_n = if quick { 300 } else { 1_000 };
    let e2e_table = workloads::block_zipf(e2e_n, d);
    let e2e_ctx = BatchCoinContext::build(&e2e_table).expect("valid table");
    let e2e_sam = SamOptions::with_samples(if quick { 500 } else { 2000 }, 0);
    let e2e = |sam: SamOptions| {
        let start = Instant::now();
        let opts =
            QueryOptions::default().with_algorithm(Algorithm::Sampling(sam)).with_threads(Some(1));
        all_sky_resident(&e2e_ctx, &prefs, opts, None, EngineBudget::default()).expect("all_sky");
        start.elapsed().as_secs_f64()
    };
    let e2e_kernel_s = e2e(e2e_sam);
    println!("end-to-end all_sky (n={e2e_n}, {} worlds): {e2e_kernel_s:.3}s", e2e_sam.samples);
    let host_cores = presky_core::num_threads(None);

    // Top-level scalar fields stay above the nested objects: the baseline
    // checker's field lookup is first-occurrence, so nesting them lower
    // would shadow them behind same-named keys inside the row objects.
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"block-zipf\",\n",
            "  \"n\": {},\n",
            "  \"d\": {},\n",
            "  \"quick\": {},\n",
            "  \"lane_words\": {},\n",
            "  \"threads\": 1,\n",
            "  \"host_cores\": {},\n",
            "  \"avx2\": {},\n",
            "  \"targets\": {},\n",
            "  \"samples_per_target\": {},\n",
            "  \"mean_attackers\": {:.1},\n",
            "  \"mean_coins\": {:.1},\n",
            "  \"bit_parallel\": {{ \"elapsed_s\": {:.6}, \"worlds_per_sec\": {:.1} }},\n",
            "  \"single_word\": {{ \"elapsed_s\": {:.6}, \"worlds_per_sec\": {:.1} }},\n",
            "  \"scalar\": {{ \"elapsed_s\": {:.6}, \"worlds_per_sec\": {:.1} }},\n",
            "  \"speedup\": {:.3},\n",
            "  \"width_speedup\": {:.3},\n",
            "  \"max_estimate_gap\": {:.6},\n",
            "  \"end_to_end\": {{ \"n\": {}, \"samples\": {}, \"kernel_s\": {:.6} }}\n",
            "}}\n"
        ),
        n,
        d,
        quick,
        LANE_WORDS,
        host_cores,
        presky_core::bitworlds::avx2_available(),
        views.len(),
        opts.samples,
        mean_attackers,
        mean_coins,
        kernel_s,
        kernel_rate,
        narrow_s,
        narrow_rate,
        scalar_s,
        scalar_rate,
        speedup,
        width_speedup,
        max_gap,
        e2e_n,
        e2e_sam.samples,
        e2e_kernel_s
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());
    ExitCode::SUCCESS
}
