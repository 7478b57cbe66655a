//! The traced run's instruments: an in-memory span recorder, a counting
//! preference model, and the layer-by-layer replay of one target.
//!
//! Spans are recorded around calls into each layer's public functions
//! from this crate, never inside the program. The replay calls the same
//! public functions the engine's pipeline calls, in the same order, and
//! its answer must be bit-identical to the engine's, so the layer split
//! describes the computation that was timed.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use presky_approx::sampler::{sky_sam_view_with, SamOptions, SamScratch};
use presky_core::batch::{BatchCoinContext, BatchScratch};
use presky_core::coins::{CanonScratch, CoinRemap, CoinView};
use presky_core::preference::PreferenceModel;
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_exact::absorption::{absorb_into, AbsorbScratch, AbsorptionResult};
use presky_exact::cache::{CacheEntry, ComponentCache};
use presky_exact::det::{sky_det_view_with, DetOptions, DetScratch};
use presky_exact::partition::{partition_into, PartitionScratch};
use presky_exact::signature::component_signature;
use presky_query::engine::{exact_cost, largest_component};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Span id (1-based).
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span recorder poisoned").push(Span {
            name,
            id,
            parent,
            request,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut spans = self.spans();
        spans.sort_by_key(|s| s.id);
        for s in &spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name total and self time (duration minus the part covered by
/// child spans), in ns, with call counts.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    by_name.into_iter().map(|(n, (c, t, o))| (n, c, t, o)).collect()
}

thread_local! {
    /// `pr_strict` calls made through [`Counting`] on this thread. Kept
    /// per thread so concurrent clients never contend on one counter.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `pr_strict` calls made through any [`Counting`] model on the calling
/// thread so far.
pub fn calls_on_this_thread() -> u64 {
    CALLS.with(Cell::get)
}

/// A preference model that counts its `pr_strict` calls.
#[derive(Debug, Clone)]
pub struct Counting<M> {
    inner: M,
}

impl<M> Counting<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        Self { inner }
    }
}

impl<M: PreferenceModel> PreferenceModel for Counting<M> {
    fn pr_strict(&self, dim: DimId, a: ValueId, b: ValueId) -> f64 {
        CALLS.with(|c| c.set(c.get() + 1));
        self.inner.pr_strict(dim, a, b)
    }
}

/// Buffers of the replay, one per replaying thread.
#[derive(Debug)]
pub struct ReplayScratch {
    /// View-assembly stamp tables and `pr_strict` memo.
    pub batch: BatchScratch,
    view: CoinView,
    work: CoinView,
    sub: CoinView,
    remap: CoinRemap,
    canon: CanonScratch,
    sig: Vec<u8>,
    absorb: AbsorbScratch,
    absorbed: AbsorptionResult,
    partition: PartitionScratch,
    det: DetScratch,
    sam: SamScratch,
}

impl Default for ReplayScratch {
    fn default() -> Self {
        Self {
            batch: BatchScratch::default(),
            view: CoinView::empty(),
            work: CoinView::empty(),
            sub: CoinView::empty(),
            remap: CoinRemap::default(),
            canon: CanonScratch::default(),
            sig: Vec::new(),
            absorb: AbsorbScratch::default(),
            absorbed: AbsorptionResult::default(),
            partition: PartitionScratch::default(),
            det: DetScratch::default(),
            sam: SamScratch::default(),
        }
    }
}

/// Work and time of replayed targets, summed. Every field but the `_ns`
/// ones is a deterministic count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Targets replayed.
    pub targets: u64,
    /// `pr_strict` calls made during view assembly.
    pub pr_strict: u64,
    /// Attackers in the assembled views.
    pub attackers: u64,
    /// Attackers removed by absorption.
    pub absorbed: u64,
    /// Independent components.
    pub components: u64,
    /// Largest component (max).
    pub largest: u64,
    /// Targets short-circuited by a certain attacker.
    pub short_circuits: u64,
    /// Targets planned exact.
    pub plan_exact: u64,
    /// Targets planned for sampling.
    pub plan_sample: u64,
    /// Component-cache probes.
    pub probes: u64,
    /// Component-cache hits.
    pub hits: u64,
    /// Joint probabilities computed (hits re-add the cached solve's).
    pub joints: u64,
    /// Worlds sampled.
    pub samples: u64,
    /// View assembly time.
    pub view_ns: u64,
    /// Impossible-coin pruning time.
    pub prune_ns: u64,
    /// Absorption time.
    pub absorb_ns: u64,
    /// Restriction + partition time.
    pub partition_ns: u64,
    /// Canonical restriction + signature + cache lookup time.
    pub probe_ns: u64,
    /// Exact DFS time.
    pub det_ns: u64,
    /// Joints the DFS computed in this replay (not re-added on hits).
    pub det_joints: u64,
    /// Sampler time.
    pub sam_ns: u64,
}

impl LayerTotals {
    /// The deterministic counts only (times zeroed), for repeat checks.
    pub fn counts(&self) -> LayerTotals {
        LayerTotals {
            view_ns: 0,
            prune_ns: 0,
            absorb_ns: 0,
            partition_ns: 0,
            probe_ns: 0,
            det_ns: 0,
            sam_ns: 0,
            ..*self
        }
    }
}

/// The engine's per-target policy, as the replay mirrors it.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Components up to this size are solved exactly.
    pub exact_component_limit: usize,
    /// Sampler configuration for the rest (seed already decorrelated the
    /// way the engine's driver does it).
    pub sam: SamOptions,
}

/// Replay one target through every layer the engine's Prepare → Plan →
/// Execute pipeline calls, recording a span per layer call under `parent`,
/// and return its skyline probability.
#[allow(clippy::too_many_arguments)]
pub fn replay_target<M: PreferenceModel>(
    tracer: &Tracer,
    parent: u64,
    request: u64,
    ctx: &BatchCoinContext,
    prefs: &M,
    target: ObjectId,
    policy: Policy,
    s: &mut ReplayScratch,
    cache: &ComponentCache,
    t: &mut LayerTotals,
) -> f64 {
    t.targets += 1;
    let timed = |name, f: &mut dyn FnMut()| -> u64 {
        let t0 = Instant::now();
        tracer.span(name, parent, request, |_| f());
        t0.elapsed().as_nanos() as u64
    };
    let before = calls_on_this_thread();
    t.view_ns += timed("batch.view_into", &mut || {
        ctx.view_into(prefs, target, &mut s.batch, &mut s.view).expect("target is in range");
    });
    t.pr_strict += calls_on_this_thread() - before;
    t.attackers += s.view.n_attackers() as u64;
    if s.view.has_certain_attacker() {
        t.short_circuits += 1;
        return 0.0;
    }
    t.prune_ns += timed("core.prune_impossible", &mut || {
        s.view.prune_impossible();
    });
    t.absorb_ns += timed("exact.absorb_into", &mut || {
        absorb_into(&s.view, &mut s.absorb, &mut s.absorbed);
    });
    t.absorbed += s.absorbed.removed.len() as u64;
    t.partition_ns += timed("exact.partition_into", &mut || {
        s.view.restrict_into(&s.absorbed.kept, &mut s.remap, &mut s.work);
        partition_into(&s.work, &mut s.partition);
    });
    let groups = s.partition.n_groups();
    t.components += groups as u64;
    let largest = largest_component(&s.partition);
    t.largest = t.largest.max(largest as u64);

    // Plan: the adaptive policy's cost comparison (`Σ 2^|g|` against the
    // sampler's predicted cost, floored at 2^22).
    let lattice = exact_cost(&s.partition);
    let sample_cost =
        policy.sam.predicted_cost(s.work.n_attackers(), s.work.n_coins()).max(1 << 22);
    if largest > policy.exact_component_limit || lattice > sample_cost {
        t.plan_sample += 1;
        let mut out = None;
        t.sam_ns += timed("approx.sky_sam_view_with", &mut || {
            out = Some(sky_sam_view_with(&s.work, policy.sam, &mut s.sam).expect("sampler runs"));
        });
        let out = out.expect("sampler span ran");
        t.samples += out.samples;
        return out.estimate;
    }
    t.plan_exact += 1;
    let det = DetOptions::default().with_max_attackers(policy.exact_component_limit);
    let mut sky = 1.0;
    for g in 0..groups {
        let mut hit = None;
        let mut keyed = false;
        t.probe_ns += timed("exact.cache_probe", &mut || {
            let group = s.partition.group(g);
            keyed = s.work.restrict_canonical_into(group, &mut s.canon, &mut s.sub);
            if keyed {
                component_signature(&s.sub, &mut s.sig);
                hit = cache.get(&s.sig);
            } else {
                s.work.restrict_into(group, &mut s.remap, &mut s.sub);
            }
        });
        if keyed {
            t.probes += 1;
        }
        if let Some(entry) = hit {
            t.hits += 1;
            t.joints += entry.joints_computed;
            sky *= f64::from_bits(entry.sky_bits);
            continue;
        }
        let mut out = None;
        t.det_ns += timed("exact.sky_det_view_with", &mut || {
            out = Some(sky_det_view_with(&s.sub, det, &mut s.det).expect("component within limit"));
        });
        let out = out.expect("det span ran");
        t.joints += out.joints_computed;
        t.det_joints += out.joints_computed;
        if keyed {
            let entry =
                CacheEntry { sky_bits: out.sky.to_bits(), joints_computed: out.joints_computed };
            cache.insert(&s.sig, entry);
        }
        sky *= out.sky;
    }
    sky
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::default();
        tr.span("outer", 0, 7, |id| {
            tr.span("inner", id, 7, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.request, outer.request), (7, 7));
        let times = self_times(&spans);
        let (_, _, outer_total, outer_self) = times.iter().find(|r| r.0 == "outer").unwrap();
        assert!(outer_self < outer_total);
        assert_eq!(outer_total - outer_self, inner.end_ns - inner.start_ns);
    }
}
