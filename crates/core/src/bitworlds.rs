//! Bit-parallel possible worlds: 64 worlds per machine word.
//!
//! The Monte-Carlo estimators sample a possible world by flipping one
//! Bernoulli coin per distinct `(dimension, foreign value)` pair and asking
//! whether any attacker has all of its coins winning. Worlds are mutually
//! independent, so 64 of them can share a machine word: **lane** `j` of a
//! `u64` holds world `j` of the current *block*. A coin then draws a single
//! `u64` *mask* (bit `j` set iff the coin wins in world `j`), an attacker
//! dominates in exactly the lanes where the AND of its coin masks is set,
//! and the target survives in the complement of the OR over attackers.
//!
//! ## Bit-sliced Bernoulli masks
//!
//! A coin with win probability `p` wins in lane `j` iff a uniform 64-bit
//! integer `U_j < t` where `t = round(p · 2⁶⁴)` (see [`threshold`]). The 64
//! comparisons are evaluated *bit-sliced*: the RNG emits one word per bit
//! *plane* (bit `j` of plane `b` is bit `b` of `U_j`) and the comparison
//! walks planes MSB-first, maintaining `lt` (lanes decided `U < t`) and
//! `eq` (lanes still equal to `t`'s prefix):
//!
//! * `t`'s bit is 1 → `lt |= eq & !r; eq &= r;`
//! * `t`'s bit is 0 → `eq &= !r;`
//!
//! stopping as soon as `eq == 0` or at `t.trailing_zeros()` (every bit of
//! `t` below its lowest set bit is 0, so still-equal lanes can no longer
//! drop below `t`). The expected plane count is ~2 + log₂ plus dyadic
//! shortcuts — `p = 1/2` costs exactly **one** word for 64 worlds, versus
//! 64 `f64` draws in a world-at-a-time sampler.
//!
//! ## Counter-based seeding
//!
//! All randomness is a pure function of `(seed, block, stream, plane)`
//! through SplitMix64-style mixing ([`BlockKey`]): the mask of coin `k` in
//! block `b` does not depend on *when* (or whether) other masks are drawn.
//! Estimates are therefore bit-reproducible regardless of thread count,
//! chunk order, or lazy vs eager mask materialisation.
//!
//! ## Antithetic lanes
//!
//! The antithetic estimator mirrors a uniform `u → 1 − u`; on integers the
//! mirrored uniform is the bitwise complement `!U`, and the mirrored win
//! `!U < t` is `U ≥ 2⁶⁴ − t`, i.e. the complement of a plain comparison
//! against `t.wrapping_neg()`. [`bernoulli_mask_pair`] evaluates both
//! comparisons from one shared plane stream (`t` and `t.wrapping_neg()`
//! even share `trailing_zeros`), so a pair of mirrored worlds costs the
//! same planes as one. At `p = 1/2` the two masks are exact complements —
//! the perfect mirror of `u → 1 − u` at a fair coin.
//!
//! ## Multi-word lanes
//!
//! One `u64` leaves most of a vector register idle. The wide kernel
//! ([`survivors_wide`], [`WideScratch`]) processes `W` words — a
//! *superblock* of `64·W` worlds — per step, written as straight-line
//! `[u64; W]` array ops the compiler auto-vectorises on stable Rust; a
//! runtime-detected AVX2 path ([`survivors_wide4`]) recompiles the same
//! generic code with 256-bit codegen. The samplers run one width,
//! [`LANE_WORDS`] = 4, through that dispatcher; other widths and the
//! single-word [`survivors_block`] remain as the narrow reference the
//! tests (and the benchmarks' baselines) compare against. Word `w` of
//! superblock `sb` reuses the [`BlockKey`] of narrow block `sb·W + w`, so
//! every mask — and hence every estimate — is **bit-identical at every
//! width**; only throughput changes. The comparator runs all
//! `W` words in lock-step: words whose `eq` has already reached zero keep
//! absorbing plane updates as no-ops (their `lt` is frozen), which keeps
//! the inner loop branch-free across words without perturbing any bit.

use crate::coins::CoinView;

/// Lane width of the samplers' kernel: 4 words = 256 worlds per step,
/// matching one AVX2 register ([`survivors_wide4`]).
pub const LANE_WORDS: usize = 4;

/// Golden-ratio increment of the SplitMix64 stream.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective avalanche mix of one word.
#[inline(always)]
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sentinel threshold for a certain coin (`p ≥ 1`): mask `!0`, no draws.
pub const CERTAIN: u64 = u64::MAX;

/// Win threshold of a coin: wins iff a uniform `u64` is `< t`, so
/// `P(win) = t / 2⁶⁴` exactly.
///
/// `p ≤ 0` maps to 0 (never wins, no randomness consumed) and `p ≥ 1` to
/// the [`CERTAIN`] sentinel (always wins, no randomness consumed). A `p`
/// within `2⁻⁶⁴` of 0 or 1 rounds into those exact cases — far below every
/// statistical tolerance in the workspace, and a *better* rounding than
/// comparing an `f64` uniform against `p` performs.
#[inline]
pub fn threshold(p: f64) -> u64 {
    // NaN takes this branch too: an undefined preference never wins.
    if p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return CERTAIN;
    }
    // Saturating float→int cast: p close enough to 1 lands on u64::MAX,
    // which is exactly the CERTAIN sentinel.
    (p * 18_446_744_073_709_551_616.0) as u64
}

/// The deterministic randomness root of one 64-world block: mixes
/// `(seed, block)` once, then hands out independent per-stream plane
/// generators (streams are coins, plus reserved auxiliary streams).
#[derive(Debug, Clone, Copy)]
pub struct BlockKey {
    base: u64,
}

/// First stream id reserved for non-coin randomness (coin ids are `u32`,
/// so streams `< 2³²` belong to coins).
pub const AUX_STREAM: u64 = 1 << 32;

impl BlockKey {
    /// Key of `block` under `seed`.
    #[inline]
    pub fn new(seed: u64, block: u64) -> Self {
        Self { base: mix(seed ^ mix(block.wrapping_mul(GOLDEN) ^ 0x243f_6a88_85a3_08d3)) }
    }

    /// The plane generator of one stream within this block.
    #[inline(always)]
    pub fn stream(&self, stream: u64) -> PlaneRng {
        PlaneRng { state: mix(self.base ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)) }
    }
}

/// A SplitMix64 stream emitting one 64-lane bit plane per call. Fully
/// determined by its [`BlockKey`] and stream id.
#[derive(Debug, Clone)]
pub struct PlaneRng {
    state: u64,
}

impl PlaneRng {
    /// Next bit plane (also usable as a plain uniform `u64`).
    #[inline(always)]
    pub fn next_word(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }
}

/// 64 independent Bernoulli draws at threshold `t` — one mask word.
///
/// Returns `(mask, planes_consumed)`. `t` must be a regular threshold
/// (neither 0 nor [`CERTAIN`]); the degenerate cases never touch the RNG
/// and are handled by the callers.
#[inline]
pub fn bernoulli_mask(rng: &mut PlaneRng, t: u64) -> (u64, u32) {
    debug_assert!(t != 0 && t != CERTAIN);
    let stop = t.trailing_zeros();
    let mut lt = 0u64;
    let mut eq = u64::MAX;
    let mut planes = 0u32;
    let mut plane = 63u32;
    loop {
        let r = rng.next_word();
        planes += 1;
        if (t >> plane) & 1 == 1 {
            lt |= eq & !r;
            eq &= r;
        } else {
            eq &= !r;
        }
        if eq == 0 || plane == stop {
            // Below the lowest set bit of t every remaining bit of t is 0:
            // still-equal lanes satisfy U ≥ t and stay losses.
            return (lt, planes);
        }
        plane -= 1;
    }
}

/// The plain and mirrored masks of an antithetic pair, from one shared
/// plane stream: `(plain, mirrored, planes_consumed)`.
///
/// Lane `j` of `plain` is `U_j < t`; lane `j` of `mirrored` is
/// `!U_j < t`, i.e. `U_j ≥ t.wrapping_neg()`. Both events have probability
/// `t / 2⁶⁴`, and at `t = 2⁶³` (`p = 1/2`) the masks are exact
/// complements.
#[inline]
pub fn bernoulli_mask_pair(rng: &mut PlaneRng, t: u64) -> (u64, u64, u32) {
    debug_assert!(t != 0 && t != CERTAIN);
    let tm = t.wrapping_neg();
    // −t = t with its trailing zeros preserved, so one stop serves both.
    let stop = t.trailing_zeros();
    let (mut lt_p, mut eq_p) = (0u64, u64::MAX);
    let (mut lt_m, mut eq_m) = (0u64, u64::MAX);
    let mut planes = 0u32;
    let mut plane = 63u32;
    loop {
        let r = rng.next_word();
        planes += 1;
        if (t >> plane) & 1 == 1 {
            lt_p |= eq_p & !r;
            eq_p &= r;
        } else {
            eq_p &= !r;
        }
        if (tm >> plane) & 1 == 1 {
            lt_m |= eq_m & !r;
            eq_m &= r;
        } else {
            eq_m &= !r;
        }
        if (eq_p | eq_m) == 0 || plane == stop {
            return (lt_p, !lt_m, planes);
        }
        plane -= 1;
    }
}

/// Reusable state of the bit-parallel kernel: per-coin thresholds, the
/// per-block mask cache (epoch-stamped, so switching blocks is O(1)), and
/// the work telemetry accumulated across blocks.
///
/// Counters are kept *per world*, i.e. per lane:
/// `coin_draws` adds the population count of the lanes demanding a mask at
/// the moment it is materialised (eager mode: every active lane for every
/// coin, so an `m`-sample eager run counts exactly `m × n_coins`), and
/// `attacker_checks` adds the live-lane population before each attacker is
/// evaluated. Dead lanes of a partial final block never enter either
/// counter.
#[derive(Debug, Default)]
pub struct BlockScratch {
    thresholds: Vec<u64>,
    mask: Vec<u64>,
    mirror: Vec<u64>,
    stamp: Vec<u64>,
    epoch: u64,
    /// Lane-weighted mask materialisations (see type docs).
    pub coin_draws: u64,
    /// Lane-weighted attacker dominance checks.
    pub attacker_checks: u64,
}

impl BlockScratch {
    /// Bind the scratch to `view` for a run: precompute thresholds, size
    /// the mask cache, and reset the telemetry.
    pub fn prepare(&mut self, view: &CoinView) {
        self.thresholds.clear();
        self.thresholds.extend(view.coin_probs().iter().map(|&p| threshold(p)));
        let m = view.n_coins();
        if self.stamp.len() < m {
            self.stamp.resize(m, 0);
            self.mask.resize(m, 0);
            self.mirror.resize(m, 0);
        }
        self.coin_draws = 0;
        self.attacker_checks = 0;
    }

    #[inline]
    fn materialise(&mut self, key: &BlockKey, k: usize, demand: u64) {
        let t = self.thresholds[k];
        self.mask[k] = match t {
            0 => 0,
            CERTAIN => u64::MAX,
            _ => bernoulli_mask(&mut key.stream(k as u64), t).0,
        };
        self.coin_draws += u64::from(demand.count_ones());
    }

    #[inline]
    fn materialise_pair(&mut self, key: &BlockKey, k: usize, demand: u64) {
        let t = self.thresholds[k];
        (self.mask[k], self.mirror[k]) = match t {
            0 => (0, 0),
            CERTAIN => (u64::MAX, u64::MAX),
            _ => {
                let (p, m, _) = bernoulli_mask_pair(&mut key.stream(k as u64), t);
                (p, m)
            }
        };
        self.coin_draws += u64::from(demand.count_ones());
    }
}

/// Evaluate one 64-world block: returns the mask of lanes (restricted to
/// `lane_mask`) in which **no** attacker dominates the target.
///
/// Attackers are visited in `order` (the checking sequence); a lane leaves
/// the live set as soon as some attacker dominates it, and the block exits
/// early once no lane is live — the paper's lazy-sampling and
/// sorted-checking optimisations at lane granularity. With `lazy == false`
/// every coin mask is materialised up front instead (the ablation
/// baseline's eager semantics), which changes telemetry but — thanks to
/// counter-based seeding — not the masks, hence not the estimate.
pub fn survivors_block(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    block: u64,
    lane_mask: u64,
    lazy: bool,
    s: &mut BlockScratch,
) -> u64 {
    s.epoch += 1;
    let epoch = s.epoch;
    let key = BlockKey::new(seed, block);
    if !lazy {
        for k in 0..view.n_coins() {
            s.stamp[k] = epoch;
            s.materialise(&key, k, lane_mask);
        }
    }
    let mut live = lane_mask;
    for &i in order {
        if live == 0 {
            break;
        }
        s.attacker_checks += u64::from(live.count_ones());
        let mut alive = live;
        for &k in view.attacker_coins(i) {
            let ku = k as usize;
            if s.stamp[ku] != epoch {
                s.stamp[ku] = epoch;
                s.materialise(&key, ku, alive);
            }
            alive &= s.mask[ku];
            if alive == 0 {
                break;
            }
        }
        live &= !alive;
    }
    live
}

/// Antithetic variant of [`survivors_block`]: lane `j` carries a *pair* of
/// mirrored worlds. Returns `(plain_survivors, mirrored_survivors)`.
pub fn survivors_block_antithetic(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    block: u64,
    lane_mask: u64,
    lazy: bool,
    s: &mut BlockScratch,
) -> (u64, u64) {
    s.epoch += 1;
    let epoch = s.epoch;
    let key = BlockKey::new(seed, block);
    if !lazy {
        for k in 0..view.n_coins() {
            s.stamp[k] = epoch;
            s.materialise_pair(&key, k, lane_mask);
        }
    }
    let mut live_p = lane_mask;
    let mut live_m = lane_mask;
    for &i in order {
        if live_p | live_m == 0 {
            break;
        }
        s.attacker_checks += u64::from(live_p.count_ones() + live_m.count_ones());
        let mut ap = live_p;
        let mut am = live_m;
        for &k in view.attacker_coins(i) {
            if ap | am == 0 {
                break;
            }
            let ku = k as usize;
            if s.stamp[ku] != epoch {
                s.stamp[ku] = epoch;
                s.materialise_pair(&key, ku, ap | am);
            }
            ap &= s.mask[ku];
            am &= s.mirror[ku];
        }
        live_p &= !ap;
        live_m &= !am;
    }
    (live_p, live_m)
}

/// The active-lane mask of block `block` when `total` worlds are requested:
/// all 64 lanes for full blocks, the low `total % 64` lanes for the final
/// partial block.
#[inline]
pub fn block_lane_mask(total: u64, block: u64) -> u64 {
    let lanes = (total - block * 64).min(64);
    if lanes == 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Per-word block keys of superblock `superblock`: word `w` reuses the key
/// of narrow block `superblock·W + w`, which is what makes wide estimates
/// bit-identical to narrow ones at every width.
#[inline(always)]
pub fn superblock_keys<const W: usize>(seed: u64, superblock: u64) -> [BlockKey; W] {
    std::array::from_fn(|w| BlockKey::new(seed, superblock * W as u64 + w as u64))
}

/// The active-lane masks of superblock `superblock` when `total` worlds
/// are requested: word `w` carries [`block_lane_mask`] of narrow block
/// `superblock·W + w`, or zero past the end of the requested range.
#[inline]
pub fn superblock_lane_mask<const W: usize>(total: u64, superblock: u64) -> [u64; W] {
    std::array::from_fn(|w| {
        let block = superblock * W as u64 + w as u64;
        if block * 64 >= total {
            0
        } else {
            block_lane_mask(total, block)
        }
    })
}

#[inline(always)]
fn popcount_wide<const W: usize>(x: &[u64; W]) -> u64 {
    x.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[inline(always)]
fn any_set<const W: usize>(x: &[u64; W]) -> bool {
    x.iter().fold(0u64, |acc, &w| acc | w) != 0
}

/// `W` independent 64-draw Bernoulli words at threshold `t`, one per block
/// key, evaluated in lock-step (shared plane index, per-word streams).
///
/// Word `w` equals `bernoulli_mask(&mut keys[w].stream(stream), t).0`
/// bit-for-bit: a word whose `eq` reaches zero keeps receiving plane
/// updates, but with `eq == 0` both update rules are no-ops, so its `lt`
/// is already final. `t` must be a regular threshold.
#[inline(always)]
pub fn bernoulli_masks_wide<const W: usize>(keys: &[BlockKey; W], stream: u64, t: u64) -> [u64; W] {
    debug_assert!(t != 0 && t != CERTAIN);
    let stop = t.trailing_zeros();
    let mut rngs: [PlaneRng; W] = std::array::from_fn(|w| keys[w].stream(stream));
    let mut lt = [0u64; W];
    let mut eq = [u64::MAX; W];
    let mut plane = 63u32;
    loop {
        let mut r = [0u64; W];
        for w in 0..W {
            r[w] = rngs[w].next_word();
        }
        if (t >> plane) & 1 == 1 {
            for w in 0..W {
                lt[w] |= eq[w] & !r[w];
                eq[w] &= r[w];
            }
        } else {
            for w in 0..W {
                eq[w] &= !r[w];
            }
        }
        if !any_set(&eq) || plane == stop {
            return lt;
        }
        plane -= 1;
    }
}

/// Wide antithetic masks: `(plain, mirrored)` word arrays from the same
/// per-word plane streams as [`bernoulli_masks_wide`]. Word `w` matches
/// [`bernoulli_mask_pair`] under `keys[w]` bit-for-bit.
#[inline(always)]
pub fn bernoulli_mask_pairs_wide<const W: usize>(
    keys: &[BlockKey; W],
    stream: u64,
    t: u64,
) -> ([u64; W], [u64; W]) {
    debug_assert!(t != 0 && t != CERTAIN);
    let tm = t.wrapping_neg();
    let stop = t.trailing_zeros();
    let mut rngs: [PlaneRng; W] = std::array::from_fn(|w| keys[w].stream(stream));
    let mut lt_p = [0u64; W];
    let mut eq_p = [u64::MAX; W];
    let mut lt_m = [0u64; W];
    let mut eq_m = [u64::MAX; W];
    let mut plane = 63u32;
    loop {
        let mut r = [0u64; W];
        for w in 0..W {
            r[w] = rngs[w].next_word();
        }
        if (t >> plane) & 1 == 1 {
            for w in 0..W {
                lt_p[w] |= eq_p[w] & !r[w];
                eq_p[w] &= r[w];
            }
        } else {
            for w in 0..W {
                eq_p[w] &= !r[w];
            }
        }
        if (tm >> plane) & 1 == 1 {
            for w in 0..W {
                lt_m[w] |= eq_m[w] & !r[w];
                eq_m[w] &= r[w];
            }
        } else {
            for w in 0..W {
                eq_m[w] &= !r[w];
            }
        }
        let mut pending = 0u64;
        for w in 0..W {
            pending |= eq_p[w] | eq_m[w];
        }
        if pending == 0 || plane == stop {
            let mirrored = std::array::from_fn(|w| !lt_m[w]);
            return (lt_p, mirrored);
        }
        plane -= 1;
    }
}

/// The all-words-ready bitmask of a width-`W` kernel (widths are capped at
/// 8 words so the mask packs into the low byte of a coin tag).
#[inline(always)]
const fn all_words<const W: usize>() -> u64 {
    (1u64 << W) - 1
}

/// Reusable state of the wide kernel — the `[u64; W]` counterpart of
/// [`BlockScratch`], with the same lane-weighted telemetry semantics.
///
/// Masks are materialised **per word**: word `w` of a coin's mask is only
/// generated (and its demanding lanes only charged to `coin_draws`) once
/// some lane of word `w` actually demands the coin. Since word `w`'s walk
/// is bit-identical to the narrow kernel on block `superblock·W + w`, the
/// demand times coincide and `coin_draws` is exactly equal at every width
/// — lazy and eager alike.
#[derive(Debug, Default)]
pub struct WideScratch<const W: usize> {
    thresholds: Vec<u64>,
    mask: Vec<[u64; W]>,
    mirror: Vec<[u64; W]>,
    /// Per-coin tag `epoch << 8 | ready`: `ready` is the bitmask of words
    /// whose mask (and mirror, on antithetic runs) has been materialised
    /// and charged this epoch. The hot path compares one tag against
    /// `epoch << 8 | all_words` — a single load, as cheap as the narrow
    /// kernel's epoch stamp.
    tag: Vec<u64>,
    epoch: u64,
    /// Lane-weighted mask materialisations (see [`BlockScratch`]).
    pub coin_draws: u64,
    /// Lane-weighted attacker dominance checks.
    pub attacker_checks: u64,
}

impl<const W: usize> WideScratch<W> {
    /// Bind the scratch to `view` for a run: precompute thresholds, size
    /// the mask cache, and reset the telemetry.
    pub fn prepare(&mut self, view: &CoinView) {
        const { assert!(W >= 1 && W <= 8, "lane widths are capped at 8 words") };
        self.thresholds.clear();
        self.thresholds.extend(view.coin_probs().iter().map(|&p| threshold(p)));
        let m = view.n_coins();
        if self.tag.len() < m {
            self.tag.resize(m, 0);
            self.mask.resize(m, [0; W]);
            self.mirror.resize(m, [0; W]);
        }
        self.coin_draws = 0;
        self.attacker_checks = 0;
    }

    /// Materialise the words in `missing` (a word bitmask) of coin `k`'s
    /// mask and charge `demand`'s lanes of those words to `coin_draws`.
    ///
    /// An all-words miss runs the lock-step wide generator; a partial miss
    /// generates each word from its own narrow stream — bit-identical
    /// output, but a word whose lanes are all dead costs nothing, exactly
    /// like the narrow kernel skipping a block it never reaches.
    #[inline(always)]
    fn materialise_words(
        &mut self,
        keys: &[BlockKey; W],
        k: usize,
        missing: u64,
        demand: &[u64; W],
    ) {
        let t = self.thresholds[k];
        match t {
            0 => self.mask[k] = [0; W],
            CERTAIN => self.mask[k] = [u64::MAX; W],
            _ if missing == all_words::<W>() => {
                self.mask[k] = bernoulli_masks_wide(keys, k as u64, t);
            }
            _ => {
                for (w, key) in keys.iter().enumerate() {
                    if missing >> w & 1 == 1 {
                        self.mask[k][w] = bernoulli_mask(&mut key.stream(k as u64), t).0;
                    }
                }
            }
        }
        for (w, d) in demand.iter().enumerate() {
            if missing >> w & 1 == 1 {
                self.coin_draws += u64::from(d.count_ones());
            }
        }
    }

    /// Antithetic counterpart of [`Self::materialise_words`]: fills both
    /// the plain and mirrored words of `missing`.
    #[inline(always)]
    fn materialise_pair_words(
        &mut self,
        keys: &[BlockKey; W],
        k: usize,
        missing: u64,
        demand: &[u64; W],
    ) {
        let t = self.thresholds[k];
        match t {
            0 => (self.mask[k], self.mirror[k]) = ([0; W], [0; W]),
            CERTAIN => (self.mask[k], self.mirror[k]) = ([u64::MAX; W], [u64::MAX; W]),
            _ if missing == all_words::<W>() => {
                (self.mask[k], self.mirror[k]) = bernoulli_mask_pairs_wide(keys, k as u64, t);
            }
            _ => {
                for (w, key) in keys.iter().enumerate() {
                    if missing >> w & 1 == 1 {
                        let (p, m, _) = bernoulli_mask_pair(&mut key.stream(k as u64), t);
                        self.mask[k][w] = p;
                        self.mirror[k][w] = m;
                    }
                }
            }
        }
        for (w, d) in demand.iter().enumerate() {
            if missing >> w & 1 == 1 {
                self.coin_draws += u64::from(d.count_ones());
            }
        }
    }
}

/// The word bitmask of non-zero entries of `x` — which words still have
/// any lane demanding work.
#[inline(always)]
fn nonzero_words<const W: usize>(x: &[u64; W]) -> u64 {
    x.iter().enumerate().fold(0u64, |bits, (w, &word)| bits | (u64::from(word != 0) << w))
}

#[inline(always)]
fn survivors_wide_impl<const W: usize>(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; W],
    lazy: bool,
    s: &mut WideScratch<W>,
) -> [u64; W] {
    s.epoch += 1;
    let full = (s.epoch << 8) | all_words::<W>();
    let keys = superblock_keys::<W>(seed, superblock);
    if !lazy {
        for k in 0..view.n_coins() {
            s.tag[k] = full;
            s.materialise_words(&keys, k, all_words::<W>(), lane_mask);
        }
    }
    let mut live = *lane_mask;
    let mut pc = popcount_wide(&live);
    for &i in order {
        if pc == 0 {
            break;
        }
        s.attacker_checks += pc;
        let mut alive = live;
        for &k in view.attacker_coins(i) {
            let ku = k as usize;
            if s.tag[ku] != full {
                let ready = if s.tag[ku] >> 8 == s.epoch { s.tag[ku] & 0xff } else { 0 };
                let missing = nonzero_words(&alive) & !ready;
                if missing != 0 {
                    s.materialise_words(&keys, ku, missing, &alive);
                    s.tag[ku] = (s.epoch << 8) | (ready | missing);
                }
            }
            let m = &s.mask[ku];
            for w in 0..W {
                alive[w] &= m[w];
            }
            if !any_set(&alive) {
                break;
            }
        }
        // `live` only changes when this attacker actually killed a lane, so
        // the telemetry popcount is recomputed on kill events alone instead
        // of once per attacker.
        if any_set(&alive) {
            for w in 0..W {
                live[w] &= !alive[w];
            }
            pc = popcount_wide(&live);
        }
    }
    live
}

#[inline(always)]
fn survivors_wide_antithetic_impl<const W: usize>(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; W],
    lazy: bool,
    s: &mut WideScratch<W>,
) -> ([u64; W], [u64; W]) {
    s.epoch += 1;
    let full = (s.epoch << 8) | all_words::<W>();
    let keys = superblock_keys::<W>(seed, superblock);
    if !lazy {
        for k in 0..view.n_coins() {
            s.tag[k] = full;
            s.materialise_pair_words(&keys, k, all_words::<W>(), lane_mask);
        }
    }
    let mut live_p = *lane_mask;
    let mut live_m = *lane_mask;
    let mut pc = popcount_wide(&live_p) + popcount_wide(&live_m);
    for &i in order {
        if pc == 0 {
            break;
        }
        s.attacker_checks += pc;
        let mut ap = live_p;
        let mut am = live_m;
        for &k in view.attacker_coins(i) {
            let mut pending = [0u64; W];
            for w in 0..W {
                pending[w] = ap[w] | am[w];
            }
            if !any_set(&pending) {
                break;
            }
            let ku = k as usize;
            if s.tag[ku] != full {
                let ready = if s.tag[ku] >> 8 == s.epoch { s.tag[ku] & 0xff } else { 0 };
                let missing = nonzero_words(&pending) & !ready;
                if missing != 0 {
                    s.materialise_pair_words(&keys, ku, missing, &pending);
                    s.tag[ku] = (s.epoch << 8) | (ready | missing);
                }
            }
            for w in 0..W {
                ap[w] &= s.mask[ku][w];
                am[w] &= s.mirror[ku][w];
            }
        }
        // Kill-event-only popcount refresh, as in the plain walk.
        if any_set(&ap) || any_set(&am) {
            for w in 0..W {
                live_p[w] &= !ap[w];
                live_m[w] &= !am[w];
            }
            pc = popcount_wide(&live_p) + popcount_wide(&live_m);
        }
    }
    (live_p, live_m)
}

/// Evaluate one `64·W`-world superblock: the wide counterpart of
/// [`survivors_block`], returning per-word survivor masks.
///
/// Word `w` is bit-identical to `survivors_block` on narrow block
/// `superblock·W + w` with lane mask `lane_mask[w]` — at every `W`. The
/// telemetry matches exactly at every width too: per-word materialisation
/// charges each word's demanding lanes at the same walk step the narrow
/// kernel would, and word `w`'s walk is the narrow walk bit for bit.
pub fn survivors_wide<const W: usize>(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; W],
    lazy: bool,
    s: &mut WideScratch<W>,
) -> [u64; W] {
    survivors_wide_impl(view, order, seed, superblock, lane_mask, lazy, s)
}

/// Antithetic variant of [`survivors_wide`]: lane `j` of word `w` carries
/// a pair of mirrored worlds. Returns `(plain, mirrored)` survivor arrays.
pub fn survivors_wide_antithetic<const W: usize>(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; W],
    lazy: bool,
    s: &mut WideScratch<W>,
) -> ([u64; W], [u64; W]) {
    survivors_wide_antithetic_impl(view, order, seed, superblock, lane_mask, lazy, s)
}

/// Whether the running CPU offers AVX2 (memoised after the first call).
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Whether the running CPU offers AVX2 — never, off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// The AVX2 compilation of the W=4 kernel.
///
/// No hand-written intrinsics: the `#[target_feature(enable = "avx2")]`
/// wrappers force the `#[inline(always)]` generic kernel — comparator,
/// mask cache, and attacker AND-loop — to be code-generated with 256-bit
/// vectors. The computed bits are identical to the portable path by
/// construction (same straight-line integer ops, different registers);
/// the proptest suite re-checks that on every AVX2 host.
///
/// This module is the one `unsafe` island of the crate (calling a
/// `#[target_feature]` function requires it on stable 1.75); its safe
/// entry points are only reached behind [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    unsafe fn survivors_w4_enabled(
        view: &CoinView,
        order: &[usize],
        seed: u64,
        superblock: u64,
        lane_mask: &[u64; 4],
        lazy: bool,
        s: &mut WideScratch<4>,
    ) -> [u64; 4] {
        survivors_wide_impl::<4>(view, order, seed, superblock, lane_mask, lazy, s)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn survivors_w4_antithetic_enabled(
        view: &CoinView,
        order: &[usize],
        seed: u64,
        superblock: u64,
        lane_mask: &[u64; 4],
        lazy: bool,
        s: &mut WideScratch<4>,
    ) -> ([u64; 4], [u64; 4]) {
        survivors_wide_antithetic_impl::<4>(view, order, seed, superblock, lane_mask, lazy, s)
    }

    pub(super) fn survivors_w4(
        view: &CoinView,
        order: &[usize],
        seed: u64,
        superblock: u64,
        lane_mask: &[u64; 4],
        lazy: bool,
        s: &mut WideScratch<4>,
    ) -> [u64; 4] {
        debug_assert!(super::avx2_available());
        // SAFETY: every call site is gated on `avx2_available()`.
        unsafe { survivors_w4_enabled(view, order, seed, superblock, lane_mask, lazy, s) }
    }

    pub(super) fn survivors_w4_antithetic(
        view: &CoinView,
        order: &[usize],
        seed: u64,
        superblock: u64,
        lane_mask: &[u64; 4],
        lazy: bool,
        s: &mut WideScratch<4>,
    ) -> ([u64; 4], [u64; 4]) {
        debug_assert!(super::avx2_available());
        // SAFETY: every call site is gated on `avx2_available()`.
        unsafe {
            survivors_w4_antithetic_enabled(view, order, seed, superblock, lane_mask, lazy, s)
        }
    }
}

/// Runtime-dispatched W=4 superblock: the AVX2 compilation when the CPU
/// has it, the portable `survivors_wide::<4>` otherwise. Bit-identical
/// either way.
pub fn survivors_wide4(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; 4],
    lazy: bool,
    s: &mut WideScratch<4>,
) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::survivors_w4(view, order, seed, superblock, lane_mask, lazy, s);
    }
    survivors_wide::<4>(view, order, seed, superblock, lane_mask, lazy, s)
}

/// Runtime-dispatched W=4 antithetic superblock; see [`survivors_wide4`].
pub fn survivors_wide4_antithetic(
    view: &CoinView,
    order: &[usize],
    seed: u64,
    superblock: u64,
    lane_mask: &[u64; 4],
    lazy: bool,
    s: &mut WideScratch<4>,
) -> ([u64; 4], [u64; 4]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::survivors_w4_antithetic(view, order, seed, superblock, lane_mask, lazy, s);
    }
    survivors_wide_antithetic::<4>(view, order, seed, superblock, lane_mask, lazy, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_edges() {
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(1.0), CERTAIN);
        assert_eq!(threshold(2.0), CERTAIN);
        assert_eq!(threshold(0.5), 1u64 << 63);
        assert_eq!(threshold(0.25), 1u64 << 62);
        // Monotone in p.
        assert!(threshold(0.3) < threshold(0.300001));
    }

    #[test]
    fn masks_are_pure_functions_of_seed_block_and_stream() {
        let a = BlockKey::new(7, 3);
        let b = BlockKey::new(7, 3);
        let t = threshold(0.37);
        assert_eq!(bernoulli_mask(&mut a.stream(5), t).0, bernoulli_mask(&mut b.stream(5), t).0);
        // Different block, stream, or seed → (almost surely) different mask.
        let others = [
            bernoulli_mask(&mut BlockKey::new(7, 4).stream(5), t).0,
            bernoulli_mask(&mut a.stream(6), t).0,
            bernoulli_mask(&mut BlockKey::new(8, 3).stream(5), t).0,
        ];
        let base = bernoulli_mask(&mut a.stream(5), t).0;
        assert!(others.iter().any(|&m| m != base));
    }

    #[test]
    fn mask_hit_rate_matches_probability() {
        for &p in &[0.05, 0.25, 0.5, 0.8, 0.99] {
            let t = threshold(p);
            let mut ones = 0u64;
            let blocks = 2000u64;
            for b in 0..blocks {
                let (m, _) = bernoulli_mask(&mut BlockKey::new(11, b).stream(0), t);
                ones += u64::from(m.count_ones());
            }
            let rate = ones as f64 / (blocks * 64) as f64;
            assert!((rate - p).abs() < 0.01, "p = {p}: rate {rate}");
        }
    }

    #[test]
    fn dyadic_probabilities_cost_few_planes() {
        let (_, planes) = bernoulli_mask(&mut BlockKey::new(0, 0).stream(0), threshold(0.5));
        assert_eq!(planes, 1, "p = 1/2 is one plane per 64 worlds");
        let (_, planes) = bernoulli_mask(&mut BlockKey::new(0, 0).stream(0), threshold(0.25));
        assert_eq!(planes, 2);
        // A generic p stops once eq hits zero — far below 64 planes.
        let (_, planes) = bernoulli_mask(&mut BlockKey::new(0, 1).stream(0), threshold(0.37));
        assert!(planes <= 64);
    }

    #[test]
    fn pair_is_exact_complement_at_half() {
        for b in 0..50 {
            let (p, m, planes) =
                bernoulli_mask_pair(&mut BlockKey::new(3, b).stream(1), threshold(0.5));
            assert_eq!(m, !p, "mirror is the exact complement at p = 1/2");
            assert_eq!(planes, 1);
        }
    }

    #[test]
    fn pair_halves_have_equal_marginals() {
        let t = threshold(0.3);
        let (mut ones_p, mut ones_m) = (0u64, 0u64);
        let blocks = 4000u64;
        for b in 0..blocks {
            let (p, m, _) = bernoulli_mask_pair(&mut BlockKey::new(17, b).stream(2), t);
            ones_p += u64::from(p.count_ones());
            ones_m += u64::from(m.count_ones());
        }
        let total = (blocks * 64) as f64;
        assert!((ones_p as f64 / total - 0.3).abs() < 0.01);
        assert!((ones_m as f64 / total - 0.3).abs() < 0.01);
    }

    #[test]
    fn survivors_match_per_lane_reference() {
        // Small clause system; compare the kernel against a direct
        // per-lane evaluation of the same masks.
        let view = CoinView::from_parts(vec![0.5, 0.3, 0.9], vec![vec![0, 1], vec![1, 2], vec![0]])
            .unwrap();
        let order = view.checking_sequence();
        let mut s = BlockScratch::default();
        s.prepare(&view);
        for block in 0..64 {
            let live = survivors_block(&view, &order, 9, block, u64::MAX, true, &mut s);
            // Reference: rebuild every mask and evaluate lanes one by one.
            let key = BlockKey::new(9, block);
            let masks: Vec<u64> = view
                .coin_probs()
                .iter()
                .enumerate()
                .map(|(k, &p)| {
                    let t = threshold(p);
                    match t {
                        0 => 0,
                        CERTAIN => u64::MAX,
                        _ => bernoulli_mask(&mut key.stream(k as u64), t).0,
                    }
                })
                .collect();
            for lane in 0..64u64 {
                let dominated = (0..view.n_attackers()).any(|i| {
                    view.attacker_coins(i).iter().all(|&k| masks[k as usize] >> lane & 1 == 1)
                });
                assert_eq!(live >> lane & 1 == 1, !dominated, "block {block} lane {lane}");
            }
        }
    }

    #[test]
    fn lazy_and_eager_blocks_agree_bitwise() {
        let view = CoinView::from_parts(
            vec![0.2, 0.7, 0.5, 0.05],
            vec![vec![0, 1], vec![2], vec![1, 3], vec![0, 2, 3]],
        )
        .unwrap();
        let order = view.checking_sequence();
        let mut lazy = BlockScratch::default();
        let mut eager = BlockScratch::default();
        lazy.prepare(&view);
        eager.prepare(&view);
        for block in 0..32 {
            let a = survivors_block(&view, &order, 5, block, u64::MAX, true, &mut lazy);
            let b = survivors_block(&view, &order, 5, block, u64::MAX, false, &mut eager);
            assert_eq!(a, b, "block {block}: lazy and eager see the same masks");
        }
        assert!(lazy.coin_draws <= eager.coin_draws);
        assert_eq!(eager.coin_draws, 32 * 64 * view.n_coins() as u64);
    }

    #[test]
    fn lane_masks_cover_exactly_the_requested_worlds() {
        assert_eq!(block_lane_mask(128, 0), u64::MAX);
        assert_eq!(block_lane_mask(128, 1), u64::MAX);
        assert_eq!(block_lane_mask(65, 1), 1);
        assert_eq!(block_lane_mask(63, 0), (1 << 63) - 1);
        assert_eq!(block_lane_mask(1, 0), 1);
        for total in [1u64, 63, 64, 65, 127, 128, 1000] {
            let blocks = total.div_ceil(64);
            let lanes: u64 =
                (0..blocks).map(|b| u64::from(block_lane_mask(total, b).count_ones())).sum();
            assert_eq!(lanes, total);
        }
    }

    #[test]
    fn degenerate_thresholds_draw_nothing() {
        let view = CoinView::from_parts(vec![0.0, 1.0], vec![vec![0], vec![1]]).unwrap();
        let order = view.checking_sequence();
        let mut s = BlockScratch::default();
        s.prepare(&view);
        // Attacker {1} is certain → no survivors; attacker {0} impossible.
        let live = survivors_block(&view, &order, 1, 0, u64::MAX, true, &mut s);
        assert_eq!(live, 0);
    }

    #[test]
    fn wide_masks_match_narrow_blocks_word_for_word() {
        for &p in &[0.05, 0.37, 0.5, 0.99] {
            let t = threshold(p);
            for sb in 0..16u64 {
                let keys = superblock_keys::<4>(21, sb);
                let wide = bernoulli_masks_wide::<4>(&keys, 7, t);
                for w in 0..4u64 {
                    let narrow = bernoulli_mask(&mut BlockKey::new(21, sb * 4 + w).stream(7), t).0;
                    assert_eq!(wide[w as usize], narrow, "p {p} sb {sb} word {w}");
                }
            }
        }
    }

    #[test]
    fn wide_pairs_match_narrow_pairs_word_for_word() {
        for &p in &[0.3, 0.5, 0.8] {
            let t = threshold(p);
            for sb in 0..16u64 {
                let keys = superblock_keys::<4>(5, sb);
                let (plain, mirrored) = bernoulli_mask_pairs_wide::<4>(&keys, 2, t);
                for w in 0..4u64 {
                    let (np, nm, _) =
                        bernoulli_mask_pair(&mut BlockKey::new(5, sb * 4 + w).stream(2), t);
                    assert_eq!(plain[w as usize], np, "p {p} sb {sb} word {w}");
                    assert_eq!(mirrored[w as usize], nm, "p {p} sb {sb} word {w}");
                }
            }
        }
    }

    fn wide_fixture() -> CoinView {
        CoinView::from_parts(
            vec![0.2, 0.7, 0.5, 0.05, 0.9],
            vec![vec![0, 1], vec![2], vec![1, 3], vec![0, 2, 3], vec![4, 1]],
        )
        .unwrap()
    }

    #[test]
    fn wide_survivors_match_narrow_blocks_at_every_width() {
        let view = wide_fixture();
        let order = view.checking_sequence();
        let mut narrow = BlockScratch::default();
        narrow.prepare(&view);
        let total = 1000u64; // exercises a partial trailing block
        let blocks = total.div_ceil(64);
        let reference: Vec<u64> = (0..blocks)
            .map(|b| {
                survivors_block(&view, &order, 13, b, block_lane_mask(total, b), true, &mut narrow)
            })
            .collect();

        fn check<const W: usize>(view: &CoinView, order: &[usize], total: u64, want: &[u64]) {
            let mut s = WideScratch::<W>::default();
            s.prepare(view);
            let superblocks = total.div_ceil(64 * W as u64);
            let mut got = Vec::new();
            for sb in 0..superblocks {
                let mask = superblock_lane_mask::<W>(total, sb);
                let live = survivors_wide::<W>(view, order, 13, sb, &mask, true, &mut s);
                got.extend_from_slice(&live);
            }
            for (b, &r) in want.iter().enumerate() {
                assert_eq!(got[b], r, "W={W} block {b}");
            }
            // Words past the requested range carry no live lanes.
            for (b, &g) in got.iter().enumerate() {
                if b >= want.len() {
                    assert_eq!(g, 0, "W={W} phantom block {b}");
                }
            }
        }
        check::<1>(&view, &order, total, &reference);
        check::<2>(&view, &order, total, &reference);
        check::<4>(&view, &order, total, &reference);
        check::<8>(&view, &order, total, &reference);
    }

    #[test]
    fn wide_antithetic_matches_narrow_pairs_blockwise() {
        let view = wide_fixture();
        let order = view.checking_sequence();
        let mut narrow = BlockScratch::default();
        narrow.prepare(&view);
        let total = 512u64;
        let blocks = total / 64;
        let reference: Vec<(u64, u64)> = (0..blocks)
            .map(|b| survivors_block_antithetic(&view, &order, 3, b, u64::MAX, true, &mut narrow))
            .collect();
        let mut s = WideScratch::<4>::default();
        s.prepare(&view);
        for sb in 0..blocks / 4 {
            let mask = superblock_lane_mask::<4>(total, sb);
            let (p, m) = survivors_wide_antithetic::<4>(&view, &order, 3, sb, &mask, true, &mut s);
            for w in 0..4 {
                let (rp, rm) = reference[(sb * 4) as usize + w];
                assert_eq!(p[w], rp, "sb {sb} word {w} plain");
                assert_eq!(m[w], rm, "sb {sb} word {w} mirrored");
            }
        }
    }

    #[test]
    fn wide_eager_telemetry_counts_active_worlds_times_coins() {
        let view = wide_fixture();
        let order = view.checking_sequence();
        let total = 1000u64;
        let mut s = WideScratch::<4>::default();
        s.prepare(&view);
        for sb in 0..total.div_ceil(256) {
            let mask = superblock_lane_mask::<4>(total, sb);
            survivors_wide::<4>(&view, &order, 13, sb, &mask, false, &mut s);
        }
        assert_eq!(s.coin_draws, total * view.n_coins() as u64);
    }

    #[test]
    fn wide_width_one_telemetry_matches_block_scratch_exactly() {
        let view = wide_fixture();
        let order = view.checking_sequence();
        let mut narrow = BlockScratch::default();
        let mut wide = WideScratch::<1>::default();
        narrow.prepare(&view);
        wide.prepare(&view);
        for b in 0..32u64 {
            let a = survivors_block(&view, &order, 9, b, u64::MAX, true, &mut narrow);
            let w = survivors_wide::<1>(&view, &order, 9, b, &[u64::MAX], true, &mut wide);
            assert_eq!([a], w);
        }
        assert_eq!(narrow.coin_draws, wide.coin_draws);
        assert_eq!(narrow.attacker_checks, wide.attacker_checks);
    }

    #[test]
    fn avx2_dispatch_is_bit_identical_when_detected() {
        let view = wide_fixture();
        let order = view.checking_sequence();
        if !avx2_available() {
            return; // nothing to compare on this host
        }
        let mut portable = WideScratch::<4>::default();
        let mut vectored = WideScratch::<4>::default();
        portable.prepare(&view);
        vectored.prepare(&view);
        for sb in 0..32u64 {
            let mask = [u64::MAX; 4];
            let a = survivors_wide::<4>(&view, &order, 77, sb, &mask, true, &mut portable);
            let b = survivors_wide4(&view, &order, 77, sb, &mask, true, &mut vectored);
            assert_eq!(a, b, "superblock {sb}");
            let (ap, am) =
                survivors_wide_antithetic::<4>(&view, &order, 77, sb, &mask, true, &mut portable);
            let (bp, bm) =
                survivors_wide4_antithetic(&view, &order, 77, sb, &mask, true, &mut vectored);
            assert_eq!((ap, am), (bp, bm), "antithetic superblock {sb}");
        }
        assert_eq!(portable.coin_draws, vectored.coin_draws);
        assert_eq!(portable.attacker_checks, vectored.attacker_checks);
    }

    #[test]
    fn superblock_lane_masks_cover_exactly_the_requested_worlds() {
        for total in [1u64, 63, 64, 65, 255, 256, 257, 1000, 4096] {
            let superblocks = total.div_ceil(256);
            let lanes: u64 = (0..superblocks)
                .map(|sb| popcount_wide(&superblock_lane_mask::<4>(total, sb)))
                .sum();
            assert_eq!(lanes, total, "total {total}");
            // Word w mirrors the narrow lane mask of block sb·W + w.
            for sb in 0..superblocks {
                let mask = superblock_lane_mask::<4>(total, sb);
                for w in 0..4u64 {
                    let block = sb * 4 + w;
                    let want = if block * 64 >= total { 0 } else { block_lane_mask(total, block) };
                    assert_eq!(mask[w as usize], want);
                }
            }
        }
    }
}
