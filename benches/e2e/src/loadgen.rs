//! The load generator: a closed loop (each client keeps a fixed number of
//! requests in flight and sends the next one when its oldest is answered)
//! and an open loop (requests are sent on a fixed schedule whatever the
//! system does).
//!
//! The open loop uses two threads: a pacer that submits each request when
//! it is due, and a collector that redeems the tickets in submission
//! order and stamps completion. Latency runs from the instant a request
//! was *due* — not from when it was actually sent — so a stall in the
//! system (or in the pacer) is charged to every request it delays. How
//! late the pacer itself ran is reported separately (`late_us`), so a run
//! whose generator could not keep its schedule can be told from one whose
//! system was slow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use amcad_retrieval::{Request, RetrievalError, RetrievalResponse, ServingRuntime, Ticket};

use crate::deploy::RETRIEVAL;
use crate::stats::percentile;

/// A request answered later than this after it was due misses the
/// service-level objective.
pub const SLO: Duration = Duration::from_millis(5);

/// The pacer sleeps while its next send is further away than this and
/// yields in a loop below it: a sleeping thread wakes tens of
/// microseconds late, more than a send interval at the higher rates.
const SPIN_BELOW: Duration = Duration::from_micros(200);

/// What one load phase sent and got back. A request that was shed at
/// submit, shed at dequeue, answered with any other error or answered
/// implausibly is `sent` but not `ok`, and has no latency sample.
#[derive(Debug, Default)]
pub struct PhaseReport {
    pub sent: u64,
    pub ok: u64,
    pub within_slo: u64,
    pub elapsed_s: f64,
    /// Due → completion of every `ok` request (closed loop: sent →
    /// completion).
    pub latencies_ms: Vec<f64>,
    /// Due → actual submit of every request (open loop only).
    pub late_us: Vec<f64>,
}

impl PhaseReport {
    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile_of(&self.latencies_ms, p)
    }

    pub fn late_us(&self, p: f64) -> f64 {
        percentile_of(&self.late_us, p)
    }
}

fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// The checks cheap enough to make on every response under load; the
/// full comparison against the oracle runs on a sample afterwards.
fn plausible(result: &Result<RetrievalResponse, RetrievalError>) -> bool {
    matches!(result, Ok(r) if !r.ads.is_empty() && r.ads.len() <= RETRIEVAL.final_top_n)
}

/// `clients` threads each keep `in_flight` requests outstanding over the
/// pool, from slot `offset` on, for `duration`: submit until the window is
/// full, redeem the oldest ticket, submit the next.
pub fn closed_loop(
    runtime: &ServingRuntime,
    pool: &[Request],
    offset: usize,
    clients: usize,
    in_flight: usize,
    duration: Duration,
) -> PhaseReport {
    let next = AtomicUsize::new(offset);
    let started = Instant::now();
    let deadline = started + duration;
    let mut report = PhaseReport::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let (mut sent, mut ok) = (0u64, 0u64);
                    let mut latencies_ms = Vec::new();
                    let mut window = VecDeque::with_capacity(in_flight);
                    loop {
                        while window.len() < in_flight && Instant::now() < deadline {
                            // Relaxed: the counter only hands out distinct pool slots
                            let request = &pool[next.fetch_add(1, Ordering::Relaxed) % pool.len()];
                            window.push_back((Instant::now(), runtime.submit(request.clone())));
                        }
                        // the window drains once the deadline has passed
                        let Some((sent_at, submitted)) = window.pop_front() else {
                            break;
                        };
                        let result = submitted.and_then(Ticket::wait);
                        sent += 1;
                        if plausible(&result) {
                            ok += 1;
                            latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (sent, ok, latencies_ms)
                })
            })
            .collect();
        for worker in workers {
            let (sent, ok, latencies_ms) = worker.join().expect("closed-loop client panicked");
            report.sent += sent;
            report.ok += ok;
            report.latencies_ms.extend(latencies_ms);
        }
    });
    let slo_ms = SLO.as_secs_f64() * 1e3;
    report.within_slo = report
        .latencies_ms
        .iter()
        .filter(|&&ms| ms <= slo_ms)
        .count() as u64;
    report.elapsed_s = started.elapsed().as_secs_f64();
    report
}

/// Submit the pool at `rate` requests per second, starting at pool slot
/// `offset`, until `limit` has passed or `stop` is set.
pub fn open_loop(
    runtime: &ServingRuntime,
    pool: &[Request],
    offset: usize,
    rate: f64,
    limit: Duration,
    stop: &AtomicBool,
) -> PhaseReport {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let planned = (limit.as_secs_f64() * rate).round() as u32;
    let (tx, rx) = mpsc::channel::<(Instant, Result<Ticket, RetrievalError>)>();
    let started = Instant::now();
    let mut report = PhaseReport::default();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let (mut ok, mut within_slo) = (0u64, 0u64);
            let mut latencies_ms = Vec::new();
            for (due, submitted) in rx {
                let result = submitted.and_then(Ticket::wait);
                let latency = Instant::now().saturating_duration_since(due);
                if plausible(&result) {
                    ok += 1;
                    within_slo += u64::from(latency <= SLO);
                    latencies_ms.push(latency.as_secs_f64() * 1e3);
                }
            }
            (ok, within_slo, latencies_ms)
        });
        for i in 0..planned {
            // Relaxed: the flag carries no data, only "stop sending"
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let due = started + interval * i;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if due - now > SPIN_BELOW {
                    std::thread::sleep(due - now - SPIN_BELOW);
                } else {
                    std::thread::yield_now();
                }
            }
            let request = pool[(offset + i as usize) % pool.len()].clone();
            let late = Instant::now().saturating_duration_since(due);
            let submitted = runtime.submit(request);
            report.late_us.push(late.as_secs_f64() * 1e6);
            report.sent += 1;
            tx.send((due, submitted))
                .expect("collector outlives the pacer");
        }
        drop(tx);
        let (ok, within_slo, latencies_ms) = collector.join().expect("collector panicked");
        report.ok = ok;
        report.within_slo = within_slo;
        report.latencies_ms = latencies_ms;
    });
    report.elapsed_s = started.elapsed().as_secs_f64();
    report
}
