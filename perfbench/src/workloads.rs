//! The workloads: load, output checks, and the traced run.
//!
//! Every workload drives the public `presky-service` API from this one
//! process with at most two threads doing work at a time. The untraced
//! run produces the end-to-end metrics; the traced run repeats the same
//! load with spans around each `Engine` call and a counting preference
//! model, then replays a seeded subsample of targets layer by layer.

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use presky_core::batch::BatchCoinContext;
use presky_core::preference::{DeltaOverlay, PrefDelta};
use presky_core::table::Table;
use presky_core::types::{DimId, ObjectId, ValueId};
use presky_exact::cache::ComponentCache;
use presky_query::engine::{solve_one, PipelineStats, PrepareOptions, SkyScratch};
use presky_query::prob_skyline::{Algorithm, QueryOptions, SkyResult};
use presky_query::threshold::ThresholdOptions;
use presky_query::topk::TopKOptions;
use presky_service::{digest, Engine, EngineOptions, Outcome, Request, TenantId};

use crate::driver::{closed_loop, open_loop, Exec, Run, Status};
use crate::inputs::{self, Instance, Model, Op, Stream, Workload};
use crate::stats::{median, rung_passes, Segment, Summary, Tally, Windowed};
use crate::trace::{
    calls_on_this_thread, replay_target, self_times, Counting, LayerTotals, Policy, ReplayScratch,
    Tracer,
};

/// Client threads of the closed loops, worker threads of the open loop,
/// and threads of one all-sky request: the host's two cores.
pub const THREADS: usize = 2;
/// Fixed arrival rates (requests/s) of the `serve-car-tenants` ladder.
pub const SERVE_RATES: [f64; 4] = [50.0, 100.0, 150.0, 200.0];
/// Read-latency limit of a passing open-loop rung, in ms.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Targets replayed layer by layer in a traced run.
const REPLAY_TARGETS: usize = 64;
/// Point answers re-derived with `solve_one` after a closed loop.
const POINT_CHECKS: usize = 16;
/// Targets whose estimates are digested at one and at two clients.
const DIGEST_TARGETS: usize = 32;
/// A batch of set-ups times at least this many builds …
const SETUP_MIN_BUILDS: usize = 5;
/// … and at least this long, up to `SETUP_MAX_BUILDS` builds.
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_BUILDS: usize = 2000;
/// Closed loops run in this many equal segments with a batch of set-ups
/// before the first, between segments and after the last.
const SEGMENTS: usize = 4;
/// Window of the closed loops' per-window medians, in seconds.
const WINDOW_S: f64 = 1.0;

/// One metric as printed.
pub type Metric = (&'static str, f64, &'static str);

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Submissions, checks and their failures.
    pub tally: Tally,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
}

/// The end-to-end result of one load phase.
#[derive(Debug, Default)]
struct Phase {
    tally: Tally,
    /// Median build time of each batch of set-ups (all-sky: of each cold
    /// build of its loop too).
    setup_s: Vec<f64>,
    /// Builds timed.
    builds: usize,
    /// Read latencies, failures as infinitely late.
    read_ms: Vec<f64>,
    /// Wall time of each all-sky loop iteration: build, request, checks.
    cycle_s: Vec<f64>,
    /// Reads of each closed-loop segment.
    segments: Vec<Segment>,
    reads_ok: usize,
    requests_per_s: f64,
    /// Commit latency of every write.
    writes_ms: Vec<f64>,
    evicted: Vec<u64>,
    stats: PipelineStats,
    overhead_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    coalesced_fraction: f64,
    shed: u64,
    cache_hit_rate: f64,
    cross_user_hit_rate: f64,
    cache_bytes: u64,
    /// A complete all-sky answer of this phase (the `allsky-blockzipf`
    /// reference the replay compares against).
    reference: Vec<Option<SkyResult>>,
}

/// Mutable state the load threads share.
#[derive(Debug, Default)]
struct Shared {
    stats: PipelineStats,
    writes_ms: Vec<f64>,
    evicted: Vec<u64>,
    kept: Vec<(Op, Outcome)>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn q1() -> QueryOptions {
    QueryOptions::default().with_threads(Some(1))
}

/// The engine request of a read submission.
fn request_of(op: &Op) -> Request {
    let (request, tenant) = match *op {
        Op::SkyOne { target, tenant } => (Request::sky_one(ObjectId(target), q1()), tenant),
        Op::AllSky { tenant } => (Request::all_sky(q1()), tenant),
        Op::Threshold { tau, tenant } => {
            (Request::threshold(tau, ThresholdOptions::default().with_threads(Some(1))), tenant)
        }
        Op::TopK { k, tenant } => {
            (Request::top_k(k, TopKOptions::default().with_threads(Some(1))), tenant)
        }
        Op::SetPref { .. } => unreachable!("writes are not requests"),
    };
    match tenant {
        Some(t) => request.with_tenant(TenantId(t)),
        None => request,
    }
}

/// Build an engine over `inst` and register its tenants, timing the whole
/// set-up (the table clone happens before the clock starts).
fn build_engine<P: Model>(inst: &Instance<P>, tracer: Option<&Tracer>) -> (Engine<P>, f64) {
    let table = inst.table.clone();
    let prefs = inst.prefs.clone();
    let t0 = Instant::now();
    let build = || {
        let engine =
            Engine::new(table, prefs, EngineOptions::default()).expect("generated table is valid");
        for (t, pairs) in inst.tenants.iter().enumerate() {
            engine.register_tenant(TenantId(t as u64), pairs).expect("generated overlay is valid");
        }
        engine
    };
    let engine = match tracer {
        Some(tr) => tr.span("service.Engine::new", 0, 0, |_| build()),
        None => build(),
    };
    (engine, secs(t0.elapsed()))
}

/// Submit one operation and report how it ended.
fn submit<P: Model>(
    engine: &Engine<P>,
    op: &Op,
    index: u64,
    keep: bool,
    shared: &Mutex<Shared>,
    tracer: Option<&Tracer>,
) -> Exec {
    if let Op::SetPref { dim, a, b, forward, backward } = *op {
        let t0 = Instant::now();
        let commit =
            || engine.set_preference(DimId(dim), ValueId(a), ValueId(b), forward, backward);
        let result = match tracer {
            Some(tr) => tr.span("service.Engine::set_preference", 0, index, |_| commit()),
            None => commit(),
        };
        let ms = secs(t0.elapsed()) * 1e3;
        return match result {
            Ok(receipt) => {
                let mut s = shared.lock().expect("shared state poisoned");
                s.writes_ms.push(ms);
                s.evicted.push(receipt.evicted_components);
                Exec { read: false, status: Status::Ok, service_ms: ms }
            }
            Err(e) => Exec {
                read: false,
                status: if e.is_shed() { Status::Shed } else { Status::Failed },
                service_ms: 0.0,
            },
        };
    }
    let request = request_of(op);
    let result = match tracer {
        Some(tr) => tr.span("service.Engine::run", 0, index, |_| engine.run(request)),
        None => engine.run(request),
    };
    match result {
        Ok(response) => {
            let mut s = shared.lock().expect("shared state poisoned");
            s.stats.merge(&response.stats);
            if keep {
                s.kept.push((op.clone(), response.outcome));
            }
            Exec { read: true, status: Status::Ok, service_ms: secs(response.elapsed) * 1e3 }
        }
        Err(e) => Exec {
            read: true,
            status: if e.is_shed() { Status::Shed } else { Status::Failed },
            service_ms: 0.0,
        },
    }
}

fn count(tally: &mut Tally, run: &Run) {
    for r in &run.records {
        tally.attempted += 1;
        match r.exec.status {
            Status::Ok => {}
            Status::Shed => tally.shed += 1,
            Status::Failed => tally.failed += 1,
        }
    }
}

/// Fold a finished loop's records into `phase`.
fn absorb_run(phase: &mut Phase, run: &Run) {
    count(&mut phase.tally, run);
    phase.read_ms.extend(run.read_latencies());
    phase.segments.push((run.read_samples(), run.wall_s));
    phase.reads_ok += run.reads_ok();
    for r in run.records.iter().filter(|r| r.exec.read && r.exec.status == Status::Ok) {
        phase.queue_ms.push(r.queue_ms);
        phase.overhead_ms.push((r.latency_ms - r.queue_ms - r.exec.service_ms).max(0.0));
    }
}

/// Fold the load threads' shared state into `phase`.
fn absorb_shared(phase: &mut Phase, shared: Shared) {
    phase.stats.merge(&shared.stats);
    phase.writes_ms.extend(shared.writes_ms);
    phase.evicted.extend(shared.evicted);
}

/// One batch of set-ups: build engines one at a time (each dropped before
/// the next, so peak memory holds one) until at least `SETUP_MIN_BUILDS`
/// builds and `SETUP_MIN_SECONDS` have passed, and record the batch's
/// median build time; return the last engine.
fn setups<P: Model>(inst: &Instance<P>, phase: &mut Phase, tracer: Option<&Tracer>) -> Engine<P> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut engine = None;
    loop {
        drop(engine.take());
        let (e, setup) = build_engine(inst, tracer);
        times.push(setup);
        engine = Some(e);
        let enough = times.len() >= SETUP_MIN_BUILDS && secs(start.elapsed()) >= SETUP_MIN_SECONDS;
        if enough || times.len() >= SETUP_MAX_BUILDS {
            phase.setup_s.push(median(&times));
            phase.builds += times.len();
            return engine.expect("built");
        }
    }
}

/// A closed loop of `THREADS` clients over `seconds`, run in `SEGMENTS`
/// equal segments with a batch of set-ups between segments and after the
/// last (the caller has run the first), so set-up is timed at several
/// moments of the run; on a shared host one moment can be slow throughout.
/// Submission `i` of the run is `exec(i)`.
fn segmented_loop<P: Model>(
    inst: &Instance<P>,
    phase: &mut Phase,
    seconds: f64,
    tracer: Option<&Tracer>,
    exec: impl Fn(u64) -> Exec + Sync,
) {
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut first = 0u64;
    for _ in 0..SEGMENTS {
        let run = closed_loop(THREADS, segment, |i| exec(first + i));
        first += run.records.len() as u64;
        absorb_run(phase, &run);
        drop(setups(inst, phase, tracer));
    }
}

fn finish_engine_metrics<P: Model>(phase: &mut Phase, engine: &Engine<P>) {
    let m = engine.metrics();
    phase.coalesced_fraction =
        if m.requests == 0 { 0.0 } else { m.coalesced as f64 / m.requests as f64 };
    phase.shed = m.shed();
    phase.cache_hit_rate = m.cache_hit_rate();
    phase.cross_user_hit_rate = m.cross_user_hit_rate();
    phase.cache_bytes = m.cache_bytes;
}

fn sky_bits(outcome: &Outcome) -> Option<u64> {
    outcome.value().as_sky().map(|r| r.sky.to_bits())
}

fn same_slots(a: &[Option<SkyResult>], b: &[Option<SkyResult>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => x.sky.to_bits() == y.sky.to_bits() && x.exact == y.exact,
            _ => false,
        })
}

/// The batch driver's per-object seed decorrelation, mirrored so one-shot
/// re-derivations of all-sky slots use the seed the driver used.
fn reseeded(algo: Algorithm, i: u64) -> Algorithm {
    let mix = |s: presky_approx::sampler::SamOptions| {
        s.with_seed(s.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    };
    match algo {
        Algorithm::Adaptive { exact_component_limit, sam } => {
            Algorithm::Adaptive { exact_component_limit, sam: mix(sam) }
        }
        Algorithm::Sampling(s) => Algorithm::Sampling(mix(s)),
        e @ Algorithm::Exact { .. } => e,
    }
}

/// The counters of a request that do not depend on timing, thread count
/// or cache state: objects, plans, joints (logical), probes and worlds.
fn deterministic(s: &PipelineStats) -> [u64; 6] {
    [s.objects, s.plan_exact, s.plan_sample, s.joints_computed, s.cache_probes, s.samples_drawn]
}

fn policy_of(algo: Algorithm) -> Policy {
    match algo {
        Algorithm::Adaptive { exact_component_limit, sam } => Policy { exact_component_limit, sam },
        _ => unreachable!("the benchmark runs the default adaptive policy"),
    }
}

/// `solve_one`'s answer for `target` under `algo`.
fn one_shot<P: Model>(table: &Table, prefs: &P, target: usize, algo: Algorithm) -> SkyResult {
    let mut scratch = SkyScratch::default();
    let mut stats = PipelineStats::default();
    solve_one(
        table,
        prefs,
        ObjectId::from(target),
        algo,
        PrepareOptions::default(),
        &mut scratch,
        &mut stats,
    )
    .expect("one-shot solve runs")
}

// ------------------------------------------------------------ workloads

/// `allsky-blockzipf`: each request is a cold 2-thread all-sky against a
/// freshly built engine. Checks: every 2-thread vector is bit-identical to
/// a 1-thread run, which matches `solve_one` on a seeded subsample.
fn allsky<P: Model>(inst: &Instance<P>, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let mut phase = Phase::default();
    let engine = setups(inst, &mut phase, tracer);
    let reference = engine.run(Request::all_sky(q1())).expect("reference all-sky runs");
    let reference_stats = reference.stats;
    let reference = reference.outcome.value().as_all_sky().expect("all-sky slots").to_vec();
    let algo = QueryOptions::default().algorithm;
    for i in inputs::subsample(seed, 1, inst.n(), 16) {
        let one = one_shot(&inst.table, &inst.prefs, i, reseeded(algo, i as u64));
        let ok = reference[i].is_some_and(|r| r.sky.to_bits() == one.sky.to_bits());
        phase.tally.check(ok);
    }
    let opts = QueryOptions::default().with_threads(Some(THREADS));
    // Each request pays for its own engine build, so the loop's rate
    // covers more than the request latency does.
    let start = Instant::now();
    let mut index = 0u64;
    while secs(start.elapsed()) < seconds {
        let cycle = Instant::now();
        let (cold, setup) = build_engine(inst, tracer);
        phase.setup_s.push(setup);
        phase.builds += 1;
        let t0 = Instant::now();
        let request = Request::all_sky(opts);
        let result = match tracer {
            Some(tr) => tr.span("service.Engine::run", 0, index, |_| cold.run(request)),
            None => cold.run(request),
        };
        let ms = secs(t0.elapsed()) * 1e3;
        phase.tally.attempted += 1;
        match result {
            Ok(response) => {
                phase.read_ms.push(ms);
                phase.reads_ok += 1;
                phase.overhead_ms.push((ms - secs(response.elapsed) * 1e3).max(0.0));
                phase.queue_ms.push(0.0);
                phase.stats.merge(&response.stats);
                let slots = response.outcome.value().as_all_sky().expect("all-sky slots");
                phase.tally.check(same_slots(slots, &reference));
                // Work counters repeat exactly across cold requests and
                // thread counts (cache hits excepted).
                let counts = deterministic(&response.stats);
                phase.tally.check(counts == deterministic(&reference_stats));
            }
            Err(_) => {
                phase.tally.failed += 1;
                phase.read_ms.push(f64::INFINITY);
            }
        }
        phase.cycle_s.push(secs(cycle.elapsed()));
        index += 1;
    }
    // The loop's completions per second from its median cycle: a request
    // is a cycle of engine build, all-sky and checks.
    phase.requests_per_s = 1.0 / median(&phase.cycle_s);
    finish_engine_metrics(&mut phase, &engine);
    phase.reference = reference;
    phase
}

/// `dense-sampler` and `point-blockzipf`: a closed loop of `THREADS`
/// clients sending `SkyOne` on seeded targets to one resident engine.
fn point<P: Model>(
    workload: Workload,
    inst: &Instance<P>,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let engine = setups(inst, &mut phase, tracer);
    let stream = Stream::new(workload, seed, inst);
    let shared = Mutex::new(Shared::default());
    let keep = |i: u64| workload == Workload::Point && i.is_multiple_of(61);
    segmented_loop(inst, &mut phase, seconds, tracer, |i| {
        submit(&engine, &stream.op(i), i, keep(i), &shared, tracer)
    });
    let shared = shared.into_inner().expect("shared state poisoned");
    let kept: Vec<(Op, Outcome)> = shared.kept.iter().take(POINT_CHECKS).cloned().collect();
    absorb_shared(&mut phase, shared);
    phase.requests_per_s =
        Windowed::of_segments(&phase.segments, WINDOW_S).expect("reads ran").rate;
    finish_engine_metrics(&mut phase, &engine);

    let algo = QueryOptions::default().algorithm;
    match workload {
        Workload::Point => {
            // Each answer equals the one-shot solve of the same target.
            for (op, outcome) in &kept {
                let Op::SkyOne { target, .. } = *op else { unreachable!("point reads") };
                let one = one_shot(&inst.table, &inst.prefs, target as usize, algo);
                phase.tally.check(sky_bits(outcome) == Some(one.sky.to_bits()));
            }
        }
        _ => {
            // Estimates are reproducible whatever the client concurrency.
            let targets: Vec<u32> = (0..DIGEST_TARGETS as u64).map(|i| stream.target(i)).collect();
            let one = digest_at(&engine, &targets, 1);
            let two = digest_at(&engine, &targets, THREADS);
            phase.tally.check(one == two);
        }
    }
    phase
}

/// Digest of `SkyOne` outcomes on `targets` (in target order) answered by
/// `clients` concurrent clients.
fn digest_at<P: Model>(engine: &Engine<P>, targets: &[u32], clients: usize) -> u64 {
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = targets.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as usize;
                let Some(&target) = targets.get(k) else { break };
                let response = engine
                    .run(Request::sky_one(ObjectId(target), q1()))
                    .expect("digest request runs");
                *slots[k].lock().expect("slot poisoned") = Some(response.outcome);
            });
        }
    });
    let outcomes: Vec<Outcome> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("every slot answered"))
        .collect();
    digest(&outcomes)
}

/// `serve-car-tenants`: `THREADS` clients in a closed loop send the
/// serving mix (reads beside writes) to one engine with 200 tenants.
/// Check: the final live all-sky digests (untenanted and tenant 0) equal
/// those of a fresh engine built from the final snapshot.
///
/// The gated latencies come from the closed loop: on a shared two-core
/// virtual machine an open loop leaves cores idle, other guests take them,
/// and the same requests then ran 20–60% slower from run to run. The
/// open-loop ladder ([`ladder`]) runs in the traced run and reports per
/// layer.
fn serve<P: Model>(inst: &Instance<P>, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let mut phase = Phase::default();
    let engine = setups(inst, &mut phase, tracer);
    // Warm the component cache with the hot request before timing.
    engine.run(request_of(&Stream::<P>::hot())).expect("warm-up runs");
    let stream = Stream::new(Workload::Serve, seed, inst);
    let shared = Mutex::new(Shared::default());
    segmented_loop(inst, &mut phase, seconds, tracer, |i| {
        submit(&engine, &stream.op(i), i, false, &shared, tracer)
    });
    absorb_shared(&mut phase, shared.into_inner().expect("shared state poisoned"));
    phase.requests_per_s =
        Windowed::of_segments(&phase.segments, WINDOW_S).expect("reads ran").rate;
    finish_engine_metrics(&mut phase, &engine);
    check_rebuild(&engine, inst, &mut phase);
    phase
}

/// What the open-loop ladder reports.
struct Ladder {
    /// Achieved rate of the highest rung within `LATENCY_LIMIT_MS`.
    sustained_rps: f64,
    /// Read latency from the due time, pooled over the rungs.
    reads: Summary,
    /// Mean wait from due time to start.
    queue_ms: f64,
    /// Submissions and the rebuild check, shed and failed included.
    tally: Tally,
}

/// The open-loop ladder of `serve-car-tenants`: `THREADS` workers serve a
/// seeded Poisson schedule at each rate of `SERVE_RATES` in turn on an
/// untraced engine, timing each read from its due time, then check the
/// engine against a rebuild.
fn ladder<P: Model>(inst: &Instance<P>, seed: u64, seconds: f64) -> Ladder {
    let mut phase = Phase::default();
    let engine = setups(inst, &mut phase, None);
    engine.run(request_of(&Stream::<P>::hot())).expect("warm-up runs");
    let stream = Stream::new(Workload::Serve, seed, inst);
    let rung_secs = seconds / SERVE_RATES.len() as f64;
    let mut first = 1u64 << 42;
    let mut sustained = 0.0;
    for (r, &rate) in SERVE_RATES.iter().enumerate() {
        let due = inputs::arrivals(seed, r as u64, rate, rung_secs);
        let shared = Mutex::new(Shared::default());
        let run = open_loop(THREADS, &due, first, |i| {
            submit(&engine, &stream.op(i), i, false, &shared, None)
        });
        first += due.len() as u64;
        let samples = run.read_samples();
        let passed =
            rung_passes(&samples, run.wall_s, WINDOW_S, run.final_lag_ms, LATENCY_LIMIT_MS);
        let achieved = run.records.len() as f64 / run.wall_s;
        let rung = Summary::of(&run.read_latencies()).expect("rung has reads");
        println!(
            "open-loop rung {rate} req/s: achieved {achieved:.2} req/s, {} ({}), backlog {:.2} ms",
            rung.describe("ms"),
            if passed { "within limit" } else { "over limit" },
            run.final_lag_ms
        );
        if passed {
            sustained = achieved;
        }
        absorb_run(&mut phase, &run);
        absorb_shared(&mut phase, shared.into_inner().expect("shared state poisoned"));
    }
    check_rebuild(&engine, inst, &mut phase);
    Ladder {
        sustained_rps: sustained,
        reads: Summary::of(&phase.read_ms).expect("ladder reads ran"),
        queue_ms: per(phase.queue_ms.iter().sum::<f64>(), phase.queue_ms.len() as u64),
        tally: phase.tally,
    }
}

/// Check that the live engine answers like a fresh engine built from its
/// final snapshot (untenanted and as tenant 0).
fn check_rebuild<P: Model>(engine: &Engine<P>, inst: &Instance<P>, phase: &mut Phase) {
    let view = engine.snapshot();
    let fresh = Engine::new(
        view.table().as_ref().clone(),
        view.prefs().as_ref().clone(),
        EngineOptions::default(),
    )
    .expect("snapshot rebuilds");
    for (t, pairs) in inst.tenants.iter().enumerate() {
        fresh.register_tenant(TenantId(t as u64), pairs).expect("overlay re-registers");
    }
    for tenant in [None, Some(0u64)] {
        let request = request_of(&Op::AllSky { tenant });
        let live = engine.run(request.clone()).expect("live all-sky runs");
        let rebuilt = fresh.run(request).expect("rebuilt all-sky runs");
        phase.tally.check(
            digest(std::slice::from_ref(&live.outcome))
                == digest(std::slice::from_ref(&rebuilt.outcome)),
        );
    }
}

fn run_phase<P: Model>(
    workload: Workload,
    inst: &Instance<P>,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    match workload {
        Workload::AllSky => allsky(inst, seed, seconds, tracer),
        Workload::Point | Workload::Dense => point(workload, inst, seed, seconds, tracer),
        Workload::Serve => serve(inst, seed, seconds, tracer),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn describe_inputs<M>(workload: Workload, inst: &Instance<M>, seed: u64) {
    println!(
        "workload {} seed {seed}: n={} d={} distinct codes per dimension {:?}, {} tenants, \
         request stream digest {:016x}",
        workload.name(),
        inst.n(),
        inst.table.dimensionality(),
        inst.codes_per_dim(),
        inst.tenants.len(),
        Stream::new(workload, seed, inst).digest(1000),
    );
}

fn end_to_end(workload: Workload, phase: &Phase) -> Vec<Metric> {
    let pooled = Summary::of(&phase.read_ms).expect("at least one read ran");
    println!("read latency, pooled: {}", pooled.describe("ms"));
    // The closed loops take the median over one-second windows (see
    // `Windowed`); the all-sky loop's few long requests are pooled.
    let (p50, tail) = match workload {
        Workload::Point | Workload::Dense | Workload::Serve => {
            let w = Windowed::of_segments(&phase.segments, WINDOW_S).expect("reads ran");
            println!(
                "read latency over {} windows of {WINDOW_S} s: p50 {:.4} ms, p{} {:.4} ms \
                 (medians over the windows)",
                w.windows, w.p50, w.tail_level, w.tail
            );
            (w.p50, w.tail)
        }
        Workload::AllSky => (pooled.p50, pooled.tail),
    };
    // The tail is printed, not gated: on a shared two-core virtual machine
    // it moved by more than any allowed bound between identical runs.
    println!("read_tail_ms = {tail} (ms)");
    if let Some(writes) = Summary::of(&phase.writes_ms) {
        println!("write_p50_ms = {} (ms); commit latency {}", writes.p50, writes.describe("ms"));
    }
    println!(
        "set-up: median {:.6} s of {} batch medians over {} builds",
        median(&phase.setup_s),
        phase.setup_s.len(),
        phase.builds
    );
    println!("peak_rss_mb = {:.1} (MB)", peak_rss_mb());
    match workload {
        Workload::AllSky => println!(
            "allsky_objects_per_s = {:.1} (1/s)",
            phase.requests_per_s * phase.reference.len() as f64
        ),
        _ => println!("reads_per_s = {:.2} (1/s)", phase.requests_per_s),
    }
    println!(
        "error_rate = {:.6} ({} failed, {} shed, {} checks failed of {} attempted)",
        phase.tally.error_rate(),
        phase.tally.failed,
        phase.tally.shed,
        phase.tally.check_failed,
        phase.tally.attempted
    );
    vec![
        ("setup_s", median(&phase.setup_s), "s"),
        ("read_p50_ms", p50, "ms"),
        ("requests_per_s", phase.requests_per_s, "1/s"),
    ]
}

/// Run `workload` untraced and report its end-to-end metrics.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Report {
    match workload {
        Workload::AllSky => {
            untraced_on(workload, &inputs::blockzipf(inputs::ALLSKY_N, seed), seed, seconds)
        }
        Workload::Point => {
            untraced_on(workload, &inputs::blockzipf(inputs::POINT_N, seed), seed, seconds)
        }
        Workload::Serve => untraced_on(workload, &inputs::car_tenants(seed), seed, seconds),
        Workload::Dense => untraced_on(workload, &inputs::dense(seed), seed, seconds),
    }
}

fn untraced_on<M: Model>(
    workload: Workload,
    inst: &Instance<M>,
    seed: u64,
    seconds: f64,
) -> Report {
    describe_inputs(workload, inst, seed);
    let phase = run_phase(workload, inst, seed, seconds, None);
    Report { tally: phase.tally, metrics: end_to_end(workload, &phase) }
}

/// Run `workload` traced and report its per-layer metrics.
pub fn traced(workload: Workload, seed: u64, seconds: f64, trace_dir: &std::path::Path) -> Report {
    match workload {
        Workload::AllSky => traced_on(
            workload,
            &inputs::blockzipf(inputs::ALLSKY_N, seed),
            seed,
            seconds,
            trace_dir,
        ),
        Workload::Point => {
            traced_on(workload, &inputs::blockzipf(inputs::POINT_N, seed), seed, seconds, trace_dir)
        }
        Workload::Serve => {
            traced_on(workload, &inputs::car_tenants(seed), seed, seconds, trace_dir)
        }
        Workload::Dense => traced_on(workload, &inputs::dense(seed), seed, seconds, trace_dir),
    }
}

/// Deterministic engine-side counters of a replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EngineCounts {
    plan_exact: u64,
    plan_sample: u64,
    joints: u64,
    probes: u64,
    hits: u64,
    samples: u64,
    pr_strict: u64,
}

impl EngineCounts {
    fn of(stats: &PipelineStats, pr_strict: u64) -> Self {
        Self {
            plan_exact: stats.plan_exact,
            plan_sample: stats.plan_sample,
            joints: stats.joints_computed,
            probes: stats.cache_probes,
            hits: stats.cache_hits,
            samples: stats.samples_drawn,
            pr_strict,
        }
    }
}

/// The targets a replay pass replays: `(request id, target, tenant)`.
/// All-sky replays whole 16-object chunks, the unit one batch worker
/// takes; the closed-loop workloads replay seeded `SkyOne` submissions.
fn replay_targets<M>(
    workload: Workload,
    inst: &Instance<M>,
    seed: u64,
) -> Vec<(u64, u32, Option<u64>)> {
    match workload {
        Workload::AllSky => {
            let chunks = inst.n() / 16;
            inputs::subsample(seed, 2, chunks, REPLAY_TARGETS / 16)
                .into_iter()
                .flat_map(|c| (c * 16..c * 16 + 16).map(|i| (i as u64, i as u32, None)))
                .collect()
        }
        _ => {
            let stream = Stream::new(workload, seed, inst);
            (1u64 << 41..)
                .filter_map(|i| match stream.op(i) {
                    Op::SkyOne { target, tenant } => Some((i, target, tenant)),
                    _ => None,
                })
                .take(REPLAY_TARGETS)
                .collect()
        }
    }
}

/// One replay pass on a fresh counting engine: each target's engine
/// answer next to its layer-by-layer replay. Returns the replay's layer
/// totals, the engine's deterministic counters, and the number of targets
/// whose replay differed from the engine's answer in any bit.
fn replay_pass<M: Model>(
    workload: Workload,
    inst: &Instance<Counting<M>>,
    seed: u64,
    reference: &[Option<SkyResult>],
    tracer: &Tracer,
) -> (LayerTotals, EngineCounts, u64) {
    let (engine, _) = build_engine(inst, None);
    let view = engine.snapshot();
    let (ctx, base) = (view.ctx().as_ref(), view.prefs().as_ref());
    let deltas: Vec<PrefDelta> = inst
        .tenants
        .iter()
        .map(|pairs| {
            pairs.iter().fold(PrefDelta::new(), |d, &(dim, a, b, f, r)| {
                d.with_pair(dim, a, b, f, r).expect("generated overlay is valid")
            })
        })
        .collect();
    let cache = ComponentCache::default();
    let algo = QueryOptions::default().algorithm;
    let mut totals = LayerTotals::default();
    let mut stats = PipelineStats::default();
    let mut engine_pr = 0u64;
    let mut mismatches = 0u64;
    let mut scratch = ReplayScratch::default();
    for (k, (request, target, tenant)) in
        replay_targets(workload, inst, seed).into_iter().enumerate()
    {
        let engine_sky = if workload == Workload::AllSky {
            if k % 16 == 0 {
                // A batch worker carries its scratch (and memo) through a chunk.
                scratch = ReplayScratch::default();
            }
            reference[target as usize].map(|r| r.sky.to_bits())
        } else {
            // `SkyOne` assembles with fresh scratch, and so does its replay.
            scratch = ReplayScratch::default();
            let before = calls_on_this_thread();
            let response = engine
                .run(request_of(&Op::SkyOne { target, tenant }))
                .expect("replayed request runs");
            engine_pr += calls_on_this_thread() - before;
            stats.merge(&response.stats);
            sky_bits(&response.outcome)
        };
        let policy = policy_of(if workload == Workload::AllSky {
            reseeded(algo, u64::from(target))
        } else {
            algo
        });
        let sky = tracer.span("replay.target", 0, request, |id| match tenant {
            Some(t) => {
                let prefs = DeltaOverlay::new(&deltas[t as usize], base);
                replay_target(
                    tracer,
                    id,
                    request,
                    ctx,
                    &prefs,
                    ObjectId(target),
                    policy,
                    &mut scratch,
                    &cache,
                    &mut totals,
                )
            }
            None => replay_target(
                tracer,
                id,
                request,
                ctx,
                base,
                ObjectId(target),
                policy,
                &mut scratch,
                &cache,
                &mut totals,
            ),
        });
        if engine_sky != Some(sky.to_bits()) {
            mismatches += 1;
        }
    }
    (totals, EngineCounts::of(&stats, engine_pr), mismatches)
}

fn per<T: Into<f64>>(x: T, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x.into() / n as f64
    }
}

fn traced_on<M: Model>(
    workload: Workload,
    inst: &Instance<M>,
    seed: u64,
    seconds: f64,
    trace_dir: &std::path::Path,
) -> Report {
    describe_inputs(workload, inst, seed);
    // The run's time is split between an untraced baseline (the same load
    // with the plain model) and the traced load; serving adds the ladder.
    let half = seconds / 2.0;
    let plain = run_phase(workload, inst, seed, half, None);
    let mut tally = plain.tally;

    let tracer = Tracer::default();
    let counted = Instance {
        table: inst.table.clone(),
        prefs: Counting::new(inst.prefs.clone()),
        tenants: inst.tenants.clone(),
        values: inst.values.clone(),
    };
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            tracer.span("batch.BatchCoinContext::build", 0, 0, |_| {
                BatchCoinContext::build(&counted.table).expect("generated table is valid")
            });
            secs(t0.elapsed()) * 1e3
        })
        .collect();
    let phase = run_phase(workload, &counted, seed, half, Some(&tracer));
    tally.merge(&phase.tally);
    let ladder = (workload == Workload::Serve).then(|| ladder(inst, seed, half));
    if let Some(l) = &ladder {
        tally.merge(&l.tally);
        println!(
            "sustained_rps = {:.2} (1/s) at a {LATENCY_LIMIT_MS} ms tail limit",
            l.sustained_rps
        );
        println!("open-loop read latency from due time: {}", l.reads.describe("ms"));
    }

    // Two replay passes on fresh engines: every counter must repeat and
    // every replayed answer must match the engine's bit for bit.
    let reference = if workload == Workload::AllSky { &phase.reference[..] } else { &[][..] };
    let (layers, engine, mismatches) = replay_pass(workload, &counted, seed, reference, &tracer);
    let (layers2, engine2, mismatches2) = replay_pass(workload, &counted, seed, reference, &tracer);
    tally.check(mismatches == 0);
    tally.check(mismatches2 == 0);
    tally.check(layers.counts() == layers2.counts());
    tally.check(engine == engine2);
    if workload != Workload::AllSky {
        // `SkyOne` assembles each view exactly as the replay does.
        tally.check(engine.pr_strict == layers.pr_strict);
    }
    println!(
        "replay: {} targets, {mismatches} + {mismatches2} mismatches; counts repeat: {}; engine pr_strict {} vs replay {}",
        layers.targets,
        layers.counts() == layers2.counts() && engine == engine2,
        engine.pr_strict,
        layers.pr_strict,
    );
    println!("deterministic counts: {layers:?}");
    println!("engine counts: {engine:?}");

    println!("span self time (name, calls, total ms, self ms):");
    for (name, calls, total, own) in self_times(&tracer.spans()) {
        println!("  {name:<32} {calls:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    let path = trace_dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    match tracer.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }

    let plain_reads = Summary::of(&plain.read_ms).expect("reads ran");
    let traced_reads = Summary::of(&phase.read_ms).expect("reads ran");
    let n_reads = phase.reads_ok.max(1) as f64;
    let t = layers.targets;
    let m: Vec<Metric> = vec![
        ("batch.build_ms", median(&builds), "ms"),
        ("batch.view_us_per_target", per(layers.view_ns as f64 / 1e3, t), "us"),
        ("batch.pr_strict_per_target", per(layers.pr_strict as f64, t), "count"),
        ("batch.attackers_per_target", per(layers.attackers as f64, t), "count"),
        ("absorb.us_per_target", per(layers.absorb_ns as f64 / 1e3, t), "us"),
        ("absorb.removed_per_target", per(layers.absorbed as f64, t), "count"),
        ("partition.us_per_target", per(layers.partition_ns as f64 / 1e3, t), "us"),
        ("partition.components_per_target", per(layers.components as f64, t), "count"),
        ("partition.largest_component", layers.largest as f64, "count"),
        ("cache.probe_us", per(layers.probe_ns as f64 / 1e3, layers.probes), "us"),
        ("cache.hit_rate", phase.cache_hit_rate, "ratio"),
        ("cache.cross_user_hit_rate", phase.cross_user_hit_rate, "ratio"),
        ("cache.bytes", phase.cache_bytes as f64, "bytes"),
        (
            "cache.evicted_per_write",
            per(phase.evicted.iter().sum::<u64>() as f64, phase.evicted.len() as u64),
            "count",
        ),
        ("det.us_per_target", per(layers.det_ns as f64 / 1e3, t), "us"),
        ("det.joints_per_target", per(layers.joints as f64, t), "count"),
        ("det.ns_per_joint", per(layers.det_ns as f64, layers.det_joints), "ns"),
        ("sampler.us_per_target", per(layers.sam_ns as f64 / 1e3, t), "us"),
        ("sampler.samples_per_target", per(layers.samples as f64, t), "count"),
        ("sampler.ns_per_world", per(layers.sam_ns as f64, layers.samples), "ns"),
        ("engine.prepare_ms", phase.stats.prepare_nanos as f64 / 1e6 / n_reads, "ms"),
        ("engine.plan_ms", phase.stats.plan_nanos as f64 / 1e6 / n_reads, "ms"),
        ("engine.execute_ms", phase.stats.execute_nanos as f64 / 1e6 / n_reads, "ms"),
        (
            "engine.plan_exact",
            if workload == Workload::AllSky {
                phase.stats.plan_exact as f64 / n_reads
            } else {
                engine.plan_exact as f64
            },
            "count",
        ),
        (
            "engine.plan_sample",
            if workload == Workload::AllSky {
                phase.stats.plan_sample as f64 / n_reads
            } else {
                engine.plan_sample as f64
            },
            "count",
        ),
        ("service.queue_wait_ms", ladder.as_ref().map_or(0.0, |l| l.queue_ms), "ms"),
        ("service.sustained_rps", ladder.as_ref().map_or(0.0, |l| l.sustained_rps), "1/s"),
        ("service.open_read_p50_ms", ladder.as_ref().map_or(0.0, |l| l.reads.p50), "ms"),
        ("service.open_read_tail_ms", ladder.as_ref().map_or(0.0, |l| l.reads.tail), "ms"),
        (
            "service.overhead_ms",
            per(phase.overhead_ms.iter().sum::<f64>(), phase.overhead_ms.len() as u64),
            "ms",
        ),
        ("service.coalesced_fraction", phase.coalesced_fraction, "ratio"),
        ("service.shed", phase.shed as f64, "count"),
        ("service.commit_ms", Summary::of(&phase.writes_ms).map_or(0.0, |s| s.p50), "ms"),
        ("trace.read_p50_ms", traced_reads.p50, "ms"),
        ("trace.untraced_read_p50_ms", plain_reads.p50, "ms"),
        ("trace.untraced_read_tail_ms", plain_reads.tail, "ms"),
        ("trace.overhead_ms", traced_reads.p50 - plain_reads.p50, "ms"),
        ("process.peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Report { tally, metrics: m }
}
