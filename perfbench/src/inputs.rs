//! Seeded, replayable inputs.
//!
//! Everything a run feeds the program — the table, the preference seed,
//! tenant overlays, the request stream (targets, query kinds, tenant picks,
//! write parameters) and the open-loop arrival schedule — is a pure
//! function of the workload seed. Streams are indexed hash draws rather
//! than a stateful RNG, so request `i` is the same whichever client thread
//! happens to take it.

use presky_core::preference::{PreferenceModel, SeededPreferences};
use presky_core::table::Table;
use presky_core::types::{DimId, ValueId};
use presky_datagen::blockzipf::{generate_block_zipf, BlockZipfConfig};
use presky_datagen::car::car_projected;
use presky_datagen::prefs::BlockScopedPreferences;
use presky_datagen::uniform::{generate_uniform, UniformConfig};

/// splitmix64 finaliser.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draw `i` of the stream `salt` under `seed`.
pub fn draw(seed: u64, salt: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ salt).wrapping_add(i))
}

/// Draw `i` of the stream `salt` as a float in `[0, 1)`.
pub fn unit(seed: u64, salt: u64, i: u64) -> f64 {
    (draw(seed, salt, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const TABLE_SALT: u64 = 0x0074_6162_6c65;
const PREF_SALT: u64 = 0x7072_6566;
const TARGET_SALT: u64 = 0x7461_7267_6574;
const KIND_SALT: u64 = 0x6b69_6e64;
const TENANT_SALT: u64 = 0x7465_6e61_6e74;
const OVERLAY_SALT: u64 = 0x006f_7665_726c_6179;
const WRITE_SALT: u64 = 0x0077_7269_7465;
const ARRIVAL_SALT: u64 = 0x6172_7269_7665;
const SAMPLE_SALT: u64 = 0x7361_6d70_6c65;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold 2-thread all-sky over block-zipf n = 10⁴.
    AllSky,
    /// Closed-loop point lookups over block-zipf n = 10⁵; not listed in
    /// `BENCHMARK.json` (see `unlisted_workloads` in `workloads.json`).
    Point,
    /// Multi-tenant mixed reads and writes over car d = 4: a closed loop,
    /// and an open-loop ladder in the traced run.
    Serve,
    /// Closed-loop point lookups that sample, over uniform n = 3000.
    Dense,
}

impl Workload {
    /// Every workload: those `BENCHMARK.json` lists, in its order, then
    /// the unlisted `point-blockzipf`.
    pub const ALL: [Workload; 4] =
        [Workload::AllSky, Workload::Serve, Workload::Dense, Workload::Point];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AllSky => "allsky-blockzipf",
            Workload::Serve => "serve-car-tenants",
            Workload::Dense => "dense-sampler",
            Workload::Point => "point-blockzipf",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Block-zipf shape shared by the two block-zipf workloads.
pub const BLOCKZIPF_D: usize = 5;
/// Objects of `allsky-blockzipf`.
pub const ALLSKY_N: usize = 10_000;
/// Objects of `point-blockzipf`.
pub const POINT_N: usize = 100_000;
/// Objects and dimensions of `dense-sampler`.
pub const DENSE_N: usize = 3_000;
/// Dimensions of `dense-sampler`.
pub const DENSE_D: usize = 4;
/// Dimensions of the car table in `serve-car-tenants`.
pub const CAR_D: usize = 4;
/// Registered tenants of `serve-car-tenants`.
pub const TENANTS: usize = 200;
/// Overlay pairs per tenant.
pub const OVERLAY_PAIRS: usize = 2;
/// Zipf exponent of the per-request tenant pick.
pub const TENANT_THETA: f64 = 1.1;
/// Share of `serve-car-tenants` submissions that are preference writes.
pub const WRITE_FRACTION: f64 = 0.10;
/// Share of `serve-car-tenants` submissions that repeat the hot request
/// (the duplicate traffic `skyprob serve --duplicate-fraction` injects).
pub const HOT_FRACTION: f64 = 0.05;

/// The block width of block-zipf values; block-scoped preferences must use
/// the generator's layout.
fn block_width() -> usize {
    BlockZipfConfig::new(16, 2, 0).values_per_block
}

/// A preference model as the engine receives it.
pub trait Model: PreferenceModel + Clone + Send + Sync + 'static {}
impl<M: PreferenceModel + Clone + Send + Sync + 'static> Model for M {}

/// One tenant's overlay rows, `(dim, a, b, forward, backward)`.
pub type Overlay = Vec<(DimId, ValueId, ValueId, f64, f64)>;

/// A generated instance: table, base model and tenant overlays.
#[derive(Debug, Clone)]
pub struct Instance<M> {
    /// The dataset.
    pub table: Table,
    /// The base preference model.
    pub prefs: M,
    /// Registered tenants' overlays, indexed by tenant id.
    pub tenants: Vec<Overlay>,
    /// Distinct values per dimension, ascending.
    pub values: Vec<Vec<ValueId>>,
}

impl<M> Instance<M> {
    fn new(table: Table, prefs: M) -> Self {
        let values = (0..table.dimensionality())
            .map(|j| {
                let mut v = table.column(DimId::from(j)).to_vec();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        Self { table, prefs, tenants: Vec::new(), values }
    }

    /// Objects in the table.
    pub fn n(&self) -> usize {
        self.table.len()
    }

    /// Distinct codes per dimension.
    pub fn codes_per_dim(&self) -> Vec<usize> {
        self.values.iter().map(Vec::len).collect()
    }

    /// A seeded preference write `(dim, a, b, forward, backward)` between
    /// two values of one dimension. Each direction lies in `[0, 0.5]`, so
    /// the pair mass never exceeds 1.
    pub fn write(&self, seed: u64, i: u64) -> Op {
        for attempt in 0..64u64 {
            let h = draw(seed, WRITE_SALT, i.wrapping_mul(64).wrapping_add(attempt));
            let dim = (h % self.values.len() as u64) as usize;
            let vals = &self.values[dim];
            let a = vals[((h >> 8) % vals.len() as u64) as usize];
            let pool: Vec<ValueId> = vals.iter().copied().filter(|v| *v != a).collect();
            if pool.is_empty() {
                continue;
            }
            let b = pool[((h >> 24) % pool.len() as u64) as usize];
            let forward = ((h >> 40) & 0xfff) as f64 / 4095.0 * 0.5;
            let backward = ((h >> 52) & 0xfff) as f64 / 4095.0 * 0.5;
            return Op::SetPref { dim: dim as u32, a: a.0, b: b.0, forward, backward };
        }
        unreachable!("every generated table has a dimension with two values")
    }
}

/// Block-zipf table with block-scoped complementary preferences.
pub fn blockzipf(n: usize, seed: u64) -> Instance<BlockScopedPreferences<SeededPreferences>> {
    let cfg = BlockZipfConfig::new(n, BLOCKZIPF_D, draw(seed, TABLE_SALT, 0));
    let table = generate_block_zipf(cfg).expect("block-zipf configuration is feasible");
    let prefs = BlockScopedPreferences::new(
        SeededPreferences::complementary(draw(seed, PREF_SALT, 0)),
        block_width(),
    );
    Instance::new(table, prefs)
}

/// Uniform table with complementary (all-nonzero) preferences.
pub fn dense(seed: u64) -> Instance<SeededPreferences> {
    let cfg = UniformConfig::new(DENSE_N, DENSE_D, draw(seed, TABLE_SALT, 0));
    let table = generate_uniform(cfg).expect("uniform configuration is feasible");
    Instance::new(table, SeededPreferences::complementary(draw(seed, PREF_SALT, 0)))
}

/// The car table with complementary preferences and seeded tenant
/// overlays: each tenant elicits `OVERLAY_PAIRS` pairs with interior
/// probabilities in `[0.05, 0.45]`.
pub fn car_tenants(seed: u64) -> Instance<SeededPreferences> {
    let table = car_projected(CAR_D).expect("car table is deterministic");
    let mut inst = Instance::new(table, SeededPreferences::complementary(draw(seed, PREF_SALT, 0)));
    inst.tenants = (0..TENANTS as u64)
        .map(|t| {
            (0..OVERLAY_PAIRS as u64)
                .map(|j| {
                    let h = draw(seed, OVERLAY_SALT, t * 1024 + j);
                    let dim = (h % inst.values.len() as u64) as usize;
                    let vals = &inst.values[dim];
                    let a = ((h >> 8) % vals.len() as u64) as usize;
                    let mut b = ((h >> 16) % (vals.len() - 1) as u64) as usize;
                    if b >= a {
                        b += 1;
                    }
                    let forward = 0.05 + ((h >> 28) & 0xfff) as f64 / 4095.0 * 0.40;
                    let backward = 0.05 + ((h >> 40) & 0xfff) as f64 / 4095.0 * 0.40;
                    (DimId::from(dim), vals[a], vals[b], forward, backward)
                })
                .collect()
        })
        .collect();
    inst
}

/// One submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One object's skyline probability.
    SkyOne {
        /// The object.
        target: u32,
        /// On whose behalf.
        tenant: Option<u64>,
    },
    /// Every object's skyline probability.
    AllSky {
        /// On whose behalf.
        tenant: Option<u64>,
    },
    /// τ-skyline membership of every object.
    Threshold {
        /// The threshold.
        tau: f64,
        /// On whose behalf.
        tenant: Option<u64>,
    },
    /// The k most probable skyline objects.
    TopK {
        /// How many.
        k: usize,
        /// On whose behalf.
        tenant: Option<u64>,
    },
    /// A committed preference edit.
    SetPref {
        /// Dimension.
        dim: u32,
        /// First value.
        a: u32,
        /// Second value.
        b: u32,
        /// `Pr(a ≺ b)`.
        forward: f64,
        /// `Pr(b ≺ a)`.
        backward: f64,
    },
}

impl Op {
    /// Canonical bytes of the submission (the replay identity).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let tenant = |out: &mut Vec<u8>, t: &Option<u64>| match t {
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
            None => out.push(0),
        };
        match self {
            Op::SkyOne { target, tenant: t } => {
                out.push(0);
                out.extend_from_slice(&target.to_le_bytes());
                tenant(out, t);
            }
            Op::AllSky { tenant: t } => {
                out.push(1);
                tenant(out, t);
            }
            Op::Threshold { tau, tenant: t } => {
                out.push(2);
                out.extend_from_slice(&tau.to_bits().to_le_bytes());
                tenant(out, t);
            }
            Op::TopK { k, tenant: t } => {
                out.push(3);
                out.extend_from_slice(&(*k as u64).to_le_bytes());
                tenant(out, t);
            }
            Op::SetPref { dim, a, b, forward, backward } => {
                out.push(4);
                for x in [dim, a, b] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out.extend_from_slice(&forward.to_bits().to_le_bytes());
                out.extend_from_slice(&backward.to_bits().to_le_bytes());
            }
        }
    }
}

/// Cumulative Zipf(`theta`) weights over `n` ranks.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The request stream of one workload: submission `i` is `op(i)`.
#[derive(Debug, Clone)]
pub struct Stream<'a, M> {
    workload: Workload,
    seed: u64,
    inst: &'a Instance<M>,
    tenant_cdf: Vec<f64>,
}

impl<'a, M> Stream<'a, M> {
    /// The stream of `workload` over `inst` under `seed`.
    pub fn new(workload: Workload, seed: u64, inst: &'a Instance<M>) -> Self {
        let tenant_cdf = if inst.tenants.is_empty() {
            Vec::new()
        } else {
            zipf_cdf(inst.tenants.len(), TENANT_THETA)
        };
        Self { workload, seed, inst, tenant_cdf }
    }

    /// A seeded target.
    pub fn target(&self, i: u64) -> u32 {
        (draw(self.seed, TARGET_SALT, i) % self.inst.n() as u64) as u32
    }

    /// The hot request of the serving mix: one untenanted all-sky, the
    /// same for every user, so identical concurrent copies coalesce.
    pub fn hot() -> Op {
        Op::AllSky { tenant: None }
    }

    /// Submission `i`.
    pub fn op(&self, i: u64) -> Op {
        match self.workload {
            Workload::AllSky => Op::AllSky { tenant: None },
            Workload::Point | Workload::Dense => {
                Op::SkyOne { target: self.target(i), tenant: None }
            }
            Workload::Serve => {
                let u = unit(self.seed, KIND_SALT, i);
                if u < WRITE_FRACTION {
                    return self.inst.write(self.seed, i);
                }
                if u < WRITE_FRACTION + HOT_FRACTION {
                    return Self::hot();
                }
                let r = unit(self.seed, TENANT_SALT, i);
                let rank = self.tenant_cdf.partition_point(|&c| c <= r);
                let tenant = Some(rank.min(self.tenant_cdf.len() - 1) as u64);
                // Tenanted reads keep the request shapes `skyprob serve`
                // cycles through, 2 SkyOne : 1 all-sky : 1 threshold
                // (tau 0.1) : 1 top-k (k 5), with seeded targets.
                let kind =
                    (u - WRITE_FRACTION - HOT_FRACTION) / (1.0 - WRITE_FRACTION - HOT_FRACTION);
                if kind < 0.4 {
                    Op::SkyOne { target: self.target(i), tenant }
                } else if kind < 0.6 {
                    Op::AllSky { tenant }
                } else if kind < 0.8 {
                    Op::Threshold { tau: 0.1, tenant }
                } else {
                    Op::TopK { k: 5, tenant }
                }
            }
        }
    }

    /// Canonical bytes of submissions `0..len`.
    pub fn bytes(&self, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..len {
            self.op(i).encode(&mut out);
        }
        out
    }

    /// FNV-1a digest of the first `len` submissions, printed so two runs
    /// can be seen to replay the same stream.
    pub fn digest(&self, len: u64) -> u64 {
        self.bytes(len)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
}

/// `k` distinct seeded indices below `n`, ascending — the subsample the
/// output checks and the traced replay run on.
pub fn subsample(seed: u64, salt: u64, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut picked = std::collections::BTreeSet::new();
    let mut i = 0u64;
    while picked.len() < k {
        picked.insert((draw(seed, SAMPLE_SALT ^ salt, i) % n as u64) as usize);
        i += 1;
    }
    picked.into_iter().collect()
}

/// One rung of the open-loop ladder: arrival offsets (seconds from the
/// rung start, ascending) of a Poisson process at `rate` conditioned on
/// exactly `round(rate · secs)` arrivals, so every seed offers the same
/// load and only the arrival pattern varies.
pub fn arrivals(seed: u64, rung: u64, rate: f64, secs: f64) -> Vec<f64> {
    let count = (rate * secs).round() as u64;
    let mut at: Vec<f64> = (0..count)
        .map(|j| unit(seed, ARRIVAL_SALT ^ rung.wrapping_mul(0x1_0001), j) * secs)
        .collect();
    at.sort_by(f64::total_cmp);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_bytes(seed: u64) -> Vec<u8> {
        let inst = car_tenants(seed);
        let mut out = Stream::new(Workload::Serve, seed, &inst).bytes(2_000);
        for t in &inst.tenants {
            for &(d, a, b, f, r) in t {
                Op::SetPref { dim: d.0, a: a.0, b: b.0, forward: f, backward: r }.encode(&mut out);
            }
        }
        for rung in 0..4 {
            for x in arrivals(seed, rung, 40.0, 2.0) {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        assert_eq!(serve_bytes(7), serve_bytes(7));
        let a = blockzipf(2_000, 7);
        let b = blockzipf(2_000, 7);
        assert_eq!(a.table, b.table);
        assert_eq!(
            Stream::new(Workload::Dense, 7, &a).bytes(500),
            Stream::new(Workload::Dense, 7, &b).bytes(500)
        );
        assert_eq!(dense(3).table, dense(3).table);
    }

    #[test]
    fn different_seed_gives_a_different_request_stream() {
        assert_ne!(serve_bytes(7), serve_bytes(8));
        let a = blockzipf(2_000, 7);
        let b = blockzipf(2_000, 8);
        assert_ne!(a.table, b.table);
        assert_ne!(
            Stream::new(Workload::Dense, 7, &a).bytes(500),
            Stream::new(Workload::Dense, 8, &b).bytes(500)
        );
        assert_ne!(dense(3).table, dense(4).table);
    }

    #[test]
    fn serving_mix_has_the_stated_shares() {
        let inst = car_tenants(1);
        let s = Stream::new(Workload::Serve, 1, &inst);
        let ops: Vec<Op> = (0..20_000).map(|i| s.op(i)).collect();
        let writes = ops.iter().filter(|o| matches!(o, Op::SetPref { .. })).count() as f64
            / ops.len() as f64;
        let hot =
            ops.iter().filter(|o| **o == Stream::<()>::hot()).count() as f64 / ops.len() as f64;
        assert!((writes - WRITE_FRACTION).abs() < 0.01, "write share {writes}");
        assert!((hot - HOT_FRACTION).abs() < 0.01, "hot share {hot}");
        let tenanted = 1.0 - WRITE_FRACTION - HOT_FRACTION;
        let point =
            ops.iter().filter(|o| matches!(o, Op::SkyOne { .. })).count() as f64 / ops.len() as f64;
        assert!((point - 0.4 * tenanted).abs() < 0.01, "point share {point}");
    }

    #[test]
    fn writes_pair_two_values_with_mass_at_most_one() {
        let inst = car_tenants(5);
        for i in 0..200 {
            let Op::SetPref { a, b, forward, backward, .. } = inst.write(5, i) else {
                panic!("write expected")
            };
            assert_ne!(a, b);
            assert!(forward + backward <= 1.0);
        }
    }

    #[test]
    fn arrivals_offer_the_exact_count_in_order() {
        let at = arrivals(3, 1, 50.0, 2.0);
        assert_eq!(at.len(), 100);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at.iter().all(|&x| (0.0..2.0).contains(&x)));
    }
}
