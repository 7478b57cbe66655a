//! Load generators: a closed loop of clients that each wait for their
//! reply, and an open loop that serves a fixed arrival schedule.
//!
//! Both call `exec(i)` for submission `i` of a seeded stream and time it
//! on the caller's side. The open loop times each request from when it was
//! *due*, so a stall also charges the requests queued behind it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How a submission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered.
    Ok,
    /// Refused by admission control.
    Shed,
    /// Returned an error.
    Failed,
}

/// What `exec` reports about one submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exec {
    /// Whether the submission was a read (writes are timed separately).
    pub read: bool,
    /// How it ended.
    pub status: Status,
    /// The engine's own admission-to-answer time (0 when not reported).
    pub service_ms: f64,
}

/// One timed submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Stream index.
    pub index: u64,
    /// What `exec` reported.
    pub exec: Exec,
    /// Client-side latency: from send (closed loop) or due time (open
    /// loop) to answer.
    pub latency_ms: f64,
    /// How late the request started against its due time (0 in a closed
    /// loop).
    pub queue_ms: f64,
    /// When the answer arrived, in seconds from the loop start.
    pub done_s: f64,
}

/// The records of one loop, in completion order per worker.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Every timed submission.
    pub records: Vec<Record>,
    /// Wall time from loop start to the last answer, in seconds.
    pub wall_s: f64,
    /// How late the last tenth of an open loop's schedule started, as a
    /// median (the backlog left at the end), in ms.
    pub final_lag_ms: f64,
}

impl Run {
    /// Read latencies, failures and sheds as `f64::INFINITY`.
    pub fn read_latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.exec.read)
            .map(|r| if r.exec.status == Status::Ok { r.latency_ms } else { f64::INFINITY })
            .collect()
    }

    /// `(completion time, latency)` of every read, failures and sheds as
    /// infinitely late.
    pub fn read_samples(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter(|r| r.exec.read)
            .map(|r| {
                let ms = if r.exec.status == Status::Ok { r.latency_ms } else { f64::INFINITY };
                (r.done_s, ms)
            })
            .collect()
    }

    /// Reads answered.
    pub fn reads_ok(&self) -> usize {
        self.records.iter().filter(|r| r.exec.read && r.exec.status == Status::Ok).count()
    }
}

/// How long before a due time an idle open-loop worker stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(200);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `clients` threads each submit the next stream index, wait for the
/// answer, and repeat until `duration` has passed.
pub fn closed_loop<F>(clients: usize, duration: Duration, exec: F) -> Run
where
    F: Fn(u64) -> Exec + Sync,
{
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let parts: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut records = Vec::new();
                    while start.elapsed() < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let exec = exec(index);
                        records.push(Record {
                            index,
                            exec,
                            latency_ms: ms(sent.elapsed()),
                            queue_ms: 0.0,
                            done_s: start.elapsed().as_secs_f64(),
                        });
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    Run { records: parts.into_iter().flatten().collect(), wall_s, final_lag_ms: 0.0 }
}

/// `workers` threads serve the schedule `due` (offsets in seconds from the
/// loop start, ascending): each takes the next request, waits until it is
/// due if it is early, and runs it. Submission `k` of the schedule is
/// stream index `first + k`.
pub fn open_loop<F>(workers: usize, due: &[f64], first: u64, exec: F) -> Run
where
    F: Fn(u64) -> Exec + Sync,
{
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let parts: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut records = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(&offset) = due.get(k) else { break };
                        let due_at = start + Duration::from_secs_f64(offset);
                        // Sleep to just short of the due time, then spin:
                        // a sleep alone wakes tens of microseconds late,
                        // which would show up as latency of the program.
                        let now = Instant::now();
                        if let Some(wait) = due_at.checked_duration_since(now) {
                            if wait > SPIN {
                                std::thread::sleep(wait - SPIN);
                            }
                            while Instant::now() < due_at {
                                std::hint::spin_loop();
                            }
                        }
                        let began = Instant::now();
                        let exec = exec(first + k as u64);
                        records.push(Record {
                            index: first + k as u64,
                            exec,
                            latency_ms: ms(Instant::now().saturating_duration_since(due_at)),
                            queue_ms: ms(began.saturating_duration_since(due_at)),
                            done_s: start.elapsed().as_secs_f64(),
                        });
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut records: Vec<Record> = parts.into_iter().flatten().collect();
    records.sort_by_key(|r| r.index);
    let last = &records[records.len() - records.len().div_ceil(10)..];
    let final_lag_ms = if last.is_empty() {
        0.0
    } else {
        crate::stats::median(&last.iter().map(|r| r.queue_ms).collect::<Vec<_>>())
    };
    Run { records, wall_s, final_lag_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok() -> Exec {
        Exec { read: true, status: Status::Ok, service_ms: 0.0 }
    }

    #[test]
    fn open_loop_times_from_the_due_time_so_a_stall_delays_the_queue() {
        // Twenty requests due 1 ms apart; the first stalls for 60 ms.
        let due: Vec<f64> = (0..20).map(|k| k as f64 * 1e-3).collect();
        let run = open_loop(1, &due, 0, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            ok()
        });
        assert_eq!(run.records.len(), 20);
        for r in &run.records[1..] {
            // Each queued request waited out the rest of the stall: its
            // latency counts from its due time, not from when it started.
            let waited = 60.0 - r.index as f64;
            assert!(r.queue_ms >= waited - 1.0, "request {} queued {}", r.index, r.queue_ms);
            assert!(r.latency_ms >= r.queue_ms);
        }
        assert!(run.final_lag_ms >= 35.0, "backlog at the end: {}", run.final_lag_ms);

        // Without the stall the same schedule runs on time.
        let calm = open_loop(1, &due, 0, |_| ok());
        let worst = calm.records.iter().map(|r| r.latency_ms).fold(0.0, f64::max);
        assert!(worst < 40.0, "an unstalled schedule kept up: {worst}");
    }

    #[test]
    fn closed_loop_waits_for_each_reply() {
        let run = closed_loop(2, Duration::from_millis(50), |_| {
            std::thread::sleep(Duration::from_millis(5));
            ok()
        });
        // Two clients, 5 ms per request, 50 ms: about 20 requests, never
        // more than the clients can complete one at a time.
        assert!(run.records.len() <= 2 * (50 / 5 + 1), "{} requests", run.records.len());
        assert!(run.records.iter().all(|r| r.latency_ms >= 5.0 && r.queue_ms == 0.0));
        let mut seen: Vec<u64> = run.records.iter().map(|r| r.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..run.records.len() as u64).collect::<Vec<_>>());
    }
}
