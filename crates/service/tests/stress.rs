//! Service-layer stress tests: one resident [`Engine`], many threads, a
//! mixed workload — and the two contracts that make the service usable:
//!
//! 1. **bit-identity** — concurrent answers are bit-for-bit the answers
//!    the same requests get serially (the cache and the metrics are the
//!    only shared mutable state, and neither may influence values);
//! 2. **budget honesty** — a deadline-bounded request terminates near its
//!    budget and returns only slots identical to the unbudgeted run.

use std::time::{Duration, Instant};

use presky_core::preference::SeededPreferences;
use presky_datagen::car::car_projected;
use presky_service::prelude::*;
use presky_service::Outcome;

fn car_engine(opts: EngineOptions) -> Engine<SeededPreferences> {
    let table = car_projected(4).unwrap();
    Engine::new(table, SeededPreferences::complementary(7), opts).unwrap()
}

/// The mixed workload: every request shape, inner parallelism pinned to
/// one thread so the outer stress threads provide all the concurrency.
fn workload(n: usize) -> Vec<Request> {
    use presky_core::types::ObjectId;
    vec![
        Request::sky_one(ObjectId(0), QueryOptions::default().with_threads(Some(1))),
        Request::sky_one(ObjectId((n / 2) as u32), QueryOptions::default().with_threads(Some(1))),
        Request::all_sky(QueryOptions::default().with_threads(Some(1))),
        Request::threshold(0.05, ThresholdOptions::default().with_threads(Some(1))),
        Request::top_k(5, TopKOptions::default().with_threads(Some(1))),
    ]
}

#[test]
fn eight_thread_mixed_workload_is_bit_identical_to_serial() {
    const THREADS: usize = 8;
    let engine = car_engine(EngineOptions::default());
    let requests = workload(engine.n_objects());

    // Serial reference pass (also warms the component cache).
    let reference: Vec<Value> =
        requests.iter().map(|r| engine.run(r.clone()).unwrap().outcome.value().clone()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                let reference = &reference;
                scope.spawn(move || {
                    // Each thread walks the workload from a different
                    // offset so distinct shapes overlap in time.
                    for i in 0..requests.len() {
                        let idx = (i + t) % requests.len();
                        let resp = engine.run(requests[idx].clone()).unwrap();
                        assert!(resp.outcome.complete(), "unlimited budget must not truncate");
                        assert_eq!(
                            *resp.outcome.value(),
                            reference[idx],
                            "thread {t} diverged from the serial answer on request {idx}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let m = engine.metrics();
    let total = (requests.len() * (THREADS + 1)) as u64;
    // Identical concurrent submissions may share one execution under
    // single-flight coalescing; every submission is still answered and
    // counted exactly once.
    assert_eq!(m.requests, total);
    assert_eq!(m.completed + m.coalesced, total);
    assert_eq!(m.admitted, m.completed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.deadline_misses, 0);
    assert_eq!(m.shed(), 0);
    assert_eq!(m.in_flight, 0);
    assert!(m.cache_hit_rate() > 0.0, "cross-request cache must be warm on the car workload");
    assert!(m.cache_entries > 0);
}

#[test]
fn deadline_bounded_requests_terminate_in_budget_and_never_lie() {
    let engine = car_engine(EngineOptions::default());
    let full = engine.run(Request::all_sky(QueryOptions::default().with_threads(Some(1)))).unwrap();
    let want = full.outcome.value().as_all_sky().unwrap().to_vec();

    // From "already expired" up to "tight but real", on one batch worker
    // and on two concurrent ones: every budget must terminate promptly
    // and only ever withhold slots, never alter them.
    for (threads, micros) in [1usize, 2]
        .into_iter()
        .flat_map(|t| [0u64, 50, 500, 5_000].into_iter().map(move |us| (t, us)))
    {
        let deadline = Duration::from_micros(micros);
        let started = Instant::now();
        let resp = engine
            .run(
                Request::all_sky(QueryOptions::default().with_threads(Some(threads)))
                    .with_budget(Budget::default().with_deadline(Some(deadline))),
            )
            .unwrap();
        // Budget + one chunk of slack (the DFS checks every 8192 joints,
        // the samplers every 64-world block); a generous absolute bound
        // keeps this robust on loaded CI machines.
        assert!(
            started.elapsed() < deadline + Duration::from_secs(5),
            "a {micros}µs deadline on {threads} threads must terminate the request promptly"
        );
        let got = resp.outcome.value().as_all_sky().unwrap();
        assert_eq!(got.len(), want.len());
        let mut truncated = 0u64;
        for (g, w) in got.iter().zip(&want) {
            match g {
                Some(g) => {
                    let w = w.expect("unbudgeted run completed every slot");
                    assert_eq!(g.sky.to_bits(), w.sky.to_bits(), "budget altered a value");
                    assert_eq!(g.exact, w.exact);
                }
                None => truncated += 1,
            }
        }
        match resp.outcome {
            Outcome::DeadlineExceeded { truncated: t, .. } => {
                assert_eq!(t, truncated, "truncation count must match the missing slots");
                assert!(t > 0);
            }
            _ => assert_eq!(truncated, 0, "complete outcomes must have every slot present"),
        }
    }
    let m = engine.metrics();
    assert_eq!(m.completed, m.admitted);
    assert_eq!(m.in_flight, 0);
}

#[test]
fn overload_shedding_is_accounted_exactly_under_concurrency() {
    const THREADS: usize = 8;
    let engine = car_engine(EngineOptions::default().with_max_in_flight(2));
    let requests = workload(engine.n_objects());

    let (ok, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let requests = &requests;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for i in 0..requests.len() {
                        let idx = (i + t) % requests.len();
                        match engine.run(requests[idx].clone()) {
                            Ok(_) => ok += 1,
                            Err(ServiceError::Overloaded { .. }) => shed += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    });

    let m = engine.metrics();
    let total = (requests.len() * THREADS) as u64;
    assert_eq!(ok + shed, total);
    assert_eq!(m.requests, total);
    // A coalesced follower is answered without occupying an in-flight
    // slot, so successes split into executed-and-completed vs coalesced.
    assert_eq!(m.completed + m.coalesced, ok);
    assert_eq!(m.admitted, m.completed);
    assert_eq!(m.shed_overload, shed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
}

#[test]
fn invalid_requests_fail_cleanly_without_wedging_the_engine() {
    let engine = car_engine(EngineOptions::default());
    assert!(matches!(
        engine.run(Request::threshold(-0.5, ThresholdOptions::default())),
        Err(ServiceError::Query(_))
    ));
    assert!(matches!(
        engine.run(Request::top_k(0, TopKOptions::default())),
        Err(ServiceError::Query(_))
    ));
    let resp = engine
        .run(Request::threshold(0.05, ThresholdOptions::default().with_threads(Some(1))))
        .unwrap();
    assert!(resp.outcome.complete());
    assert_eq!(engine.metrics().in_flight, 0);
}
