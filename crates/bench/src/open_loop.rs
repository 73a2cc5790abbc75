//! The open-loop load driver behind Fig. 9: response time versus
//! offered QPS.
//!
//! The paper reports ad-retrieval response time as the offered load grows
//! from 1K to 50K queries per second. The same *shape* — response time
//! grows slowly with offered QPS until the workers saturate — is
//! reproduced here by a plain client of [`ServingRuntime::submit`]:
//! [`run_phase`] submits requests on a fixed-rate schedule that
//! completions never slow down (open loop — overload cannot hold the
//! arrivals back, exactly the regime admission control exists for) and
//! reports one [`LoadReport`]. A request's latency runs from its
//! scheduled arrival to the instant the runtime resolved its ticket
//! ([`Ticket::wait_timed`](amcad_retrieval::Ticket::wait_timed)), so it
//! includes queueing delay and overload shows up as a steep latency
//! increase. Phases run back to back on one runtime carry its queue
//! across: a flash crowd is three calls, and the spike's backlog drains
//! into the recovery phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use amcad_retrieval::{Request, RetrievalError, Retrieve, RuntimeConfig, ServingRuntime};
use rand::{Rng, SeedableRng};

/// Latency statistics of one load level.
///
/// The tail is reported at p90 / p95 / p99, not p50 → p99 alone: the
/// saturation knee of the Fig. 9 curve shows up in the intermediate
/// percentiles first (queueing delay hits the slowest decile long before
/// it moves the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Offered load in requests per second.
    pub offered_qps: f64,
    /// Number of requests completed (including no-coverage responses).
    pub completed: usize,
    /// Requests answered with [`RetrievalError::NoCoverage`].
    pub no_coverage: usize,
    /// Mean response time (including queueing) in milliseconds.
    pub mean_ms: f64,
    /// Median response time in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile response time in milliseconds.
    pub p90_ms: f64,
    /// 95th-percentile response time in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response time in milliseconds.
    pub p99_ms: f64,
    /// Achieved throughput in requests per second.
    pub achieved_qps: f64,
    /// Requests shed by admission control or deadline enforcement
    /// ([`RetrievalError::Overloaded`]).
    pub shed: usize,
    /// Requests that completed but only after their deadline had passed
    /// (late answers — completed, but not goodput).
    pub timed_out: usize,
    /// Throughput counting only requests answered within their deadline,
    /// in requests per second.
    pub goodput_qps: f64,
}

/// Nearest-rank percentile over an ascending sample:
/// `idx = round((n - 1) · p)`, 0 for an empty sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Template picker that cycles through `templates` in order: the `i`-th
/// request of a phase uses template `i % templates` (every template
/// equally hot).
pub fn round_robin(templates: usize) -> impl FnMut(usize) -> usize {
    move |i| i % templates
}

/// Template picker with Zipf-distributed popularity over `templates`:
/// the template at rank `r` (0-indexed) is drawn with weight
/// `1 / (r + 1)^exponent`, whatever the request's index. Production ad
/// traffic is skewed like this — a few hot queries dominate — which is
/// the load shape that makes cross-request batch dedup pay off. The same
/// `seed` replays the same draws; pass the picker by `&mut` to continue
/// one stream across phases.
pub fn zipf(templates: usize, exponent: f64, seed: u64) -> impl FnMut(usize) -> usize {
    let cumulative: Vec<f64> = (1..=templates)
        .scan(0.0, |total, rank| {
            *total += 1.0 / (rank as f64).powf(exponent);
            Some(*total)
        })
        .collect();
    let total = *cumulative.last().expect("need a template");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    move |_| {
        let u = rng.gen_range(0.0..total);
        cumulative
            .partition_point(|&c| c <= u)
            .min(cumulative.len() - 1)
    }
}

/// Offer `requests` requests to `runtime` at a constant `offered_qps`,
/// open-loop, the `i`-th using `templates[pick(i)]`, and report the
/// phase once every admitted ticket has resolved. A request the runtime
/// sheds — at admission or at its deadline — counts toward `shed`; an
/// answer later than the runtime's deadline counts toward `timed_out`
/// instead of goodput.
pub fn run_phase(
    runtime: &ServingRuntime,
    templates: &[Request],
    offered_qps: f64,
    requests: usize,
    mut pick: impl FnMut(usize) -> usize,
) -> LoadReport {
    assert!(!templates.is_empty(), "need at least one request template");
    assert!(offered_qps > 0.0, "offered QPS must be positive");
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let deadline = runtime.config().deadline;

    let start = Instant::now();
    let mut pending = Vec::with_capacity(requests);
    let mut shed = 0usize;
    for i in 0..requests {
        // f64 multiply, not `interval * i as u32`: the cast would
        // silently truncate the request index and the u32 multiply can
        // panic on Duration overflow at low QPS × many requests
        let scheduled = interval.mul_f64(i as f64);
        let now = start.elapsed();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        match runtime.submit(templates[pick(i)].clone()) {
            Ok(ticket) => pending.push((scheduled, ticket)),
            Err(_) => shed += 1, // admission-shed: Overloaded by construction
        }
    }

    let mut ms: Vec<f64> = Vec::with_capacity(pending.len());
    let mut no_coverage = 0usize;
    let mut timed_out = 0usize;
    let mut good = 0usize;
    for (scheduled, ticket) in pending {
        let (result, finished) = ticket.wait_timed();
        match result {
            Err(RetrievalError::Overloaded { .. }) => {
                // deadline-shed while queued: no answer was produced
                shed += 1;
                continue;
            }
            Err(RetrievalError::NoCoverage { .. }) => no_coverage += 1,
            _ => {}
        }
        // latency from scheduled arrival to this request's own
        // completion: queueing + service
        let latency = finished.duration_since(start).saturating_sub(scheduled);
        if latency <= deadline {
            good += 1;
        } else {
            timed_out += 1;
        }
        ms.push(latency.as_secs_f64() * 1000.0);
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    ms.sort_by(|a, b| a.total_cmp(b));
    let completed = ms.len();
    LoadReport {
        offered_qps,
        completed,
        no_coverage,
        mean_ms: if completed == 0 {
            0.0
        } else {
            ms.iter().sum::<f64>() / completed as f64
        },
        p50_ms: percentile(&ms, 0.50),
        p90_ms: percentile(&ms, 0.90),
        p95_ms: percentile(&ms, 0.95),
        p99_ms: percentile(&ms, 0.99),
        achieved_qps: completed as f64 / wall,
        shed,
        timed_out,
        goodput_qps: good as f64 / wall,
    }
}

/// Drive `engine` through a sustained open-loop ladder — one
/// [`LoadReport`] per offered-QPS level, `requests_per_level` requests
/// each, templates round-robin — on a [`ServingRuntime`] sized so that
/// nothing sheds: the queue holds a whole level and the deadline outlasts
/// any of them, so the ladder measures latency versus offered load
/// (Fig. 9) rather than admission control.
pub fn sustained_ladder(
    engine: Arc<dyn Retrieve>,
    requests: &[Request],
    qps_levels: &[f64],
    requests_per_level: usize,
) -> Vec<LoadReport> {
    let runtime = ServingRuntime::new(
        engine,
        RuntimeConfig {
            workers: 4,
            queue_depth: requests_per_level,
            deadline: Duration::from_secs(3600),
            batch_size: 8,
        },
    )
    .expect("a positive worker count and level size are a valid runtime config");
    qps_levels
        .iter()
        .map(|&qps| {
            run_phase(
                &runtime,
                requests,
                qps,
                requests_per_level,
                round_robin(requests.len()),
            )
        })
        .collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test doubles record the requests they see behind a std Mutex"
)]
mod tests {
    use std::sync::Mutex;

    use amcad_manifold::{ProductManifold, SubspaceSpec};
    use amcad_mnn::MixedPointSet;
    use amcad_retrieval::{
        EngineHandle, IndexBuildInputs, RetrievalEngine, RetrievalResponse, ShardedEngine,
    };
    use rand::rngs::StdRng;

    use super::*;

    fn random_points(ids: std::ops::Range<u32>, seed: u64) -> MixedPointSet {
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let mut set = MixedPointSet::new(manifold.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for id in ids {
            let tangent: Vec<f64> = (0..4).map(|_| rng.gen_range(-0.3..0.3)).collect();
            set.push(id, &manifold.exp0(&tangent), &[0.5, 0.5]);
        }
        set
    }

    /// A tiny deterministic world through public constructors only:
    /// queries 0..10, items 100..140, ads 200..220.
    fn tiny_inputs() -> IndexBuildInputs {
        let shared = |ids, seed| Arc::new(random_points(ids, seed));
        IndexBuildInputs {
            queries_qq: shared(0..10, 1),
            queries_qi: shared(0..10, 2),
            items_qi: shared(100..140, 3),
            queries_qa: shared(0..10, 4),
            ads_qa: random_points(200..220, 5),
            items_ii: shared(100..140, 6),
            items_ia: shared(100..140, 7),
            ads_ia: random_points(200..220, 8),
        }
    }

    fn engine() -> Arc<RetrievalEngine> {
        Arc::new(
            RetrievalEngine::builder()
                .top_k(8)
                .threads(1)
                .build(&tiny_inputs())
                .expect("tiny inputs build a valid engine"),
        )
    }

    fn requests() -> Vec<Request> {
        (0..10u32)
            .map(|q| Request {
                query: q,
                preclick_items: vec![100 + q, 110 + q],
            })
            .collect()
    }

    fn runtime(
        engine: Arc<dyn Retrieve>,
        workers: usize,
        queue_depth: usize,
        deadline: Duration,
        batch_size: usize,
    ) -> ServingRuntime {
        let config = RuntimeConfig {
            workers,
            queue_depth,
            deadline,
            batch_size,
        };
        ServingRuntime::new(engine, config).expect("a valid runtime config")
    }

    #[test]
    fn percentile_helper_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    /// Pins the percentile *convention*: nearest rank over the sorted
    /// sample by `idx = round((n - 1) · p)`, 0-indexed, rounding half
    /// away from zero. If the convention ever drifts (interpolation,
    /// ceil-based nearest rank, 1-indexed ranks) these hand-computed
    /// ladders catch it.
    #[test]
    fn percentile_follows_the_rounded_nearest_rank_convention() {
        // 100-rung ladder 1..=100: idx = round(99 p)
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 51.0); // round(49.5)  = 50
        assert_eq!(percentile(&hundred, 0.90), 90.0); // round(89.1)  = 89
        assert_eq!(percentile(&hundred, 0.99), 99.0); // round(98.01) = 98

        // 10-rung ladder 1..=10: idx = round(9 p)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.50), 6.0); // round(4.5)  = 5
        assert_eq!(percentile(&ten, 0.90), 9.0); // round(8.1)  = 8
        assert_eq!(percentile(&ten, 0.99), 10.0); // round(8.91) = 9

        // 5-rung ladder with uneven gaps: values, not interpolations
        let gaps = vec![1.0, 1.5, 2.0, 50.0, 1000.0];
        assert_eq!(percentile(&gaps, 0.50), 2.0); // round(2.0) = 2
        assert_eq!(percentile(&gaps, 0.90), 1000.0); // round(3.6) = 4
        assert_eq!(percentile(&gaps, 0.99), 1000.0); // round(3.96) = 4
    }

    #[test]
    fn zipf_picker_is_deterministic_and_skewed() {
        let mut a = zipf(20, 1.2, 7);
        let mut b = zipf(20, 1.2, 7);
        let draws_a: Vec<usize> = (0..500).map(&mut a).collect();
        let draws_b: Vec<usize> = (0..500).map(&mut b).collect();
        assert_eq!(draws_a, draws_b, "same seed must replay the same stream");
        assert!(draws_a.iter().all(|&t| t < 20));
        // rank 0 must dominate: with s=1.2 over 20 templates its weight is
        // ~30% of the total — far above the 5% a uniform draw would give
        let top = draws_a.iter().filter(|&&t| t == 0).count();
        let mid = draws_a.iter().filter(|&&t| t == 10).count();
        assert!(top > 100, "rank 0 drew {top}/500 — not Zipf-skewed");
        assert!(top > mid, "rank 0 ({top}) must outdraw rank 10 ({mid})");
    }

    #[test]
    fn round_robin_picker_cycles_through_the_templates() {
        let draws: Vec<usize> = (0..7).map(round_robin(3)).collect();
        assert_eq!(draws, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn flash_crowd_sheds_at_the_spike_and_recovers() {
        let runtime = runtime(engine(), 1, 16, Duration::from_secs(1), 4);
        let templates = requests();
        // base phases arrive 10 ms apart (far slower than tiny-world
        // service, with headroom for a descheduled worker when the whole
        // suite runs in parallel); the spike offers requests faster than
        // the producer can even enqueue them, so the depth-16 queue must
        // overflow
        let reports: Vec<LoadReport> = [(100.0, 30), (5_000_000.0, 2_000), (100.0, 30)]
            .into_iter()
            .map(|(qps, n)| run_phase(&runtime, &templates, qps, n, round_robin(10)))
            .collect();
        let (base, spike, recovery) = (&reports[0], &reports[1], &reports[2]);
        assert_eq!(base.shed, 0, "base load must serve without shedding");
        assert_eq!(base.completed, 30);
        assert!(
            spike.shed > 0,
            "the flash crowd must shed against the depth-16 queue (completed {}, shed {})",
            spike.completed,
            spike.shed
        );
        assert_eq!(
            spike.completed + spike.shed,
            2_000,
            "every spike request is accounted for, served or shed"
        );
        assert_eq!(recovery.shed, 0, "the load drop restores zero-shed serving");
        assert_eq!(recovery.completed, 30);
        // goodput never exceeds achieved throughput
        for r in &reports {
            assert!(r.goodput_qps <= r.achieved_qps + 1e-9);
        }
        let stats = runtime.stats();
        assert_eq!(
            stats.shed_queue_full + stats.shed_deadline,
            spike.shed as u64,
            "runtime counters agree with the report"
        );
    }

    #[test]
    fn zipf_phase_completes_and_counts_every_request() {
        let runtime = runtime(engine(), 2, 256, Duration::from_secs(5), 8);
        let report = run_phase(&runtime, &requests(), 20_000.0, 300, zipf(10, 1.1, 42));
        assert_eq!(report.completed, 300);
        assert_eq!(report.shed, 0);
        assert_eq!(report.no_coverage, 0);
        assert!(report.p50_ms <= report.p99_ms + 1e-9);
    }

    /// The driver serves every engine flavour through `dyn Retrieve`: a
    /// single engine, a sharded fan-out and a hot-swappable handle all
    /// complete every request and report a sane latency ladder.
    #[test]
    fn run_phase_serves_every_engine_flavour_through_the_trait() {
        let sharded = ShardedEngine::builder()
            .shards(2)
            .top_k(8)
            .threads(1)
            .build(&tiny_inputs())
            .expect("tiny inputs build a valid sharded engine");
        let flavours: Vec<Arc<dyn Retrieve>> = vec![
            engine(),
            Arc::new(sharded.clone()),
            Arc::new(EngineHandle::new(sharded)),
        ];
        for flavour in flavours {
            let runtime = runtime(flavour, 2, 256, Duration::from_secs(5), 4);
            let report = run_phase(&runtime, &requests(), 10_000.0, 120, round_robin(10));
            assert_eq!(report.offered_qps, 10_000.0);
            assert_eq!(report.completed, 120);
            assert_eq!(report.no_coverage, 0);
            assert_eq!(report.shed, 0);
            assert!(report.mean_ms >= 0.0);
            // the percentile ladder must be monotone
            assert!(report.p50_ms <= report.p90_ms + 1e-9);
            assert!(report.p90_ms <= report.p95_ms + 1e-9);
            assert!(report.p95_ms <= report.p99_ms + 1e-9);
            assert!(report.achieved_qps > 0.0);
        }
    }

    #[test]
    fn uncovered_requests_are_counted_not_dropped() {
        let runtime = runtime(engine(), 2, 64, Duration::from_secs(5), 4);
        let uncovered = [Request {
            query: 99_999,
            preclick_items: vec![],
        }];
        let report = run_phase(&runtime, &uncovered, 10_000.0, 50, round_robin(1));
        assert_eq!(report.completed, 50);
        assert_eq!(report.no_coverage, 50);
        assert_eq!(report.shed, 0);
    }

    /// Round-robin offers the templates in order: one worker drains the
    /// FIFO queue in submission order, so the engine sees exactly the
    /// cycle.
    #[test]
    fn round_robin_phase_offers_the_templates_in_order() {
        struct Recorder {
            inner: Arc<RetrievalEngine>,
            seen: Mutex<Vec<u32>>,
        }
        impl Retrieve for Recorder {
            fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
                self.seen.lock().unwrap().push(request.query);
                self.inner.retrieve(request)
            }
        }
        let recorder = Arc::new(Recorder {
            inner: engine(),
            seen: Mutex::new(Vec::new()),
        });
        let runtime = runtime(recorder.clone(), 1, 64, Duration::from_secs(5), 4);
        let report = run_phase(&runtime, &requests()[..3], 10_000.0, 7, round_robin(3));
        assert_eq!(report.completed, 7);
        assert_eq!(*recorder.seen.lock().unwrap(), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn open_loop_schedule_survives_low_qps_and_large_request_indices() {
        // arrivals 1000 s apart: the first is due immediately, so a
        // one-request phase completes without ever sleeping an interval
        let runtime = ServingRuntime::new(engine(), RuntimeConfig::default()).unwrap();
        let report = run_phase(&runtime, &requests(), 0.001, 1, round_robin(10));
        assert_eq!(report.completed, 1);
        // the schedule expression itself: `interval * i as u32` panicked on
        // Duration overflow once interval × index exceeded Duration::MAX
        // (and silently truncated the index first); mul_f64 must keep the
        // schedule monotone
        let interval = Duration::from_secs_f64(1.0 / 0.001);
        let far = interval.mul_f64(10_000_000.0);
        assert!(far > interval.mul_f64(9_999_999.0));
        assert_eq!(interval.mul_f64(0.0), Duration::ZERO);
    }
}
