//! The persistent serving runtime: admission control, deadlines and load
//! shedding in front of any [`Retrieve`] implementation.
//!
//! This module *is* the serving tier. A [`ServingRuntime`] owns a bounded
//! admission queue and a [`PersistentPool`] of exactly
//! [`RuntimeConfig::workers`] resident threads — spawned once, parked in
//! the pool when idle, reused for every request. The runtime's workers
//! *are* pool workers: every resident thread in this crate is a
//! [`PersistentPool`] worker, so the one park/wake protocol lives in
//! [`park_pool`]. A submit that finds fewer than `workers` drains
//! scheduled spawns one on the pool; a drain serves the queue batch by
//! batch until it is empty. The caller waits on its [`Ticket`], a
//! one-slot channel the drain sends the outcome through.
//!
//! * **Admission control** — [`ServingRuntime::submit`] rejects a request
//!   with the typed [`RetrievalError::Overloaded`] the moment the queue
//!   is at its configured depth, instead of letting queueing delay grow
//!   without bound. Under overload the runtime answers a subset of
//!   requests inside the SLO rather than answering all of them
//!   arbitrarily late.
//! * **Per-request deadlines** — a queued request that ages past
//!   [`RuntimeConfig::deadline`] before a drain picks it up is shed with
//!   the same typed error; its ticket resolves immediately rather than
//!   wasting service capacity on an answer nobody is waiting for.
//! * **Batch dedup for free** — a drain takes up to
//!   [`RuntimeConfig::batch_size`] queued requests at a time and serves
//!   them through [`Retrieve::retrieve_batch`] — always, because an
//!   engine's batch of one *is* its `retrieve` (the one that hedges on a
//!   hedged deployment) — so the engine-level cross-request scan dedup
//!   engages exactly when load (and therefore key overlap) is highest.
//! * **Traffic scenarios** — [`ServingRuntime::run_scenario`] drives the
//!   runtime with open-loop [`Scenario`]s (sustained load, flash crowds,
//!   Zipf-skewed template popularity) and reports
//!   [`LoadReport`]s extended with shed / timeout / hedge counters and
//!   goodput.
//! * **Hedged requests** —
//!   [`ShardedEngineBuilder::hedge_delay`](crate::ShardedEngineBuilder::hedge_delay)
//!   composes with the runtime: attach the engine's [`HedgeControl`] via
//!   [`ServingRuntime::with_hedge_metrics`] and scenario reports carry
//!   hedge counts.
//!
//! The pool type — which also runs hedged shard gathers — lives in
//! [`park_pool`].

pub mod park_pool;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use self::park_pool::PersistentPool;
use crate::engine::{Request, RetrievalResponse, Retrieve};
use crate::error::RetrievalError;
use crate::serving::{percentile, LoadReport, Scenario, ScenarioPhase, TemplateSampler};
use crate::shard::HedgeControl;

/// Configuration of a [`ServingRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Resident serving worker threads (must be positive).
    pub workers: usize,
    /// Admission-queue depth: a request arriving while this many are
    /// already queued is shed with [`RetrievalError::Overloaded`]
    /// (must be positive).
    pub queue_depth: usize,
    /// Per-request deadline: a request still queued this long after
    /// submission is shed instead of served, and a completion later than
    /// this counts toward `timed_out` rather than goodput (must be
    /// positive).
    pub deadline: Duration,
    /// Requests a drain takes from the queue at a time and serves
    /// through one [`Retrieve::retrieve_batch`] call; several live
    /// requests engage the engine-level cross-request scan dedup.
    pub batch_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            queue_depth: 256,
            deadline: Duration::from_millis(25),
            batch_size: 8,
        }
    }
}

/// Observability counters of a [`ServingRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests served to completion (including no-coverage answers).
    pub completed: u64,
    /// Requests shed at admission because the queue was full.
    pub shed_queue_full: u64,
    /// Requests shed at dequeue because they aged past their deadline.
    pub shed_deadline: u64,
    /// Requests currently queued.
    pub queue_len: usize,
}

/// What a ticket resolves to: the result, and when it was produced.
type Outcome = (Result<RetrievalResponse, RetrievalError>, Instant);

/// A handle to one admitted request: redeem it with [`Ticket::wait`] for
/// the response. Every admitted ticket resolves — served, deadline-shed,
/// or shed at runtime shutdown — or, if the engine panicked serving it,
/// makes `wait` panic: waiting can never hang.
pub struct Ticket {
    outcome: Receiver<Outcome>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the request resolves.
    ///
    /// # Panics
    ///
    /// If the engine panicked while serving this request: the ticket can
    /// then never resolve, and a panic beats blocking forever.
    pub fn wait(self) -> Result<RetrievalResponse, RetrievalError> {
        self.wait_full().0
    }

    /// Block until the request resolves; also return the completion
    /// timestamp the drain stamped (the scenario driver computes
    /// per-request latency from it).
    pub(crate) fn wait_full(self) -> Outcome {
        self.outcome
            .recv()
            .expect("the request's serving panicked before resolving its ticket")
    }
}

/// Resolve a ticket, stamping the completion time. The channel has one
/// slot and gets one send, so this never blocks; a caller that dropped
/// its [`Ticket`] has nobody to tell.
fn fulfil(ticket: SyncSender<Outcome>, result: Result<RetrievalResponse, RetrievalError>) {
    let _ = ticket.send((result, Instant::now()));
}

/// One queued request.
struct QueuedRequest {
    request: Request,
    enqueued: Instant,
    ticket: SyncSender<Outcome>,
}

struct RuntimeQueue {
    items: VecDeque<QueuedRequest>,
    /// Drains scheduled on the pool, at most `workers`. Counted under
    /// the same lock as `items`: a submit either sees a drain that will
    /// still reach its request or schedules a new one — no lost wake-up.
    drains: usize,
}

struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_queue: AtomicU64,
    shed_deadline: AtomicU64,
}

struct RuntimeShared {
    engine: Arc<dyn Retrieve>,
    queue: Mutex<RuntimeQueue>,
    config: RuntimeConfig,
    counters: Counters,
}

impl RuntimeShared {
    /// The typed shed error, for every way a request can be shed.
    fn overloaded(&self) -> RetrievalError {
        RetrievalError::Overloaded {
            queue_depth: self.config.queue_depth,
            deadline: self.config.deadline,
        }
    }
}

/// A persistent serving tier around any [`Retrieve`] engine: a bounded
/// admission queue drained on resident pool workers, with per-request
/// deadlines and SLO-driven load shedding (see the module docs).
pub struct ServingRuntime {
    shared: Arc<RuntimeShared>,
    /// Dropped after [`ServingRuntime`]'s own `drop` has emptied the
    /// queue, so joining the workers waits only for in-flight batches.
    pool: PersistentPool,
    hedge: Option<Arc<HedgeControl>>,
}

impl std::fmt::Debug for ServingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingRuntime")
            .field("config", &self.shared.config)
            .field("hedged", &self.hedge.is_some())
            .finish()
    }
}

impl ServingRuntime {
    /// Spawn the runtime's resident workers around `engine`.
    pub fn new(engine: Arc<dyn Retrieve>, config: RuntimeConfig) -> Result<Self, RetrievalError> {
        if config.workers == 0 {
            return Err(RetrievalError::InvalidConfig(
                "serving runtime needs at least one worker".into(),
            ));
        }
        if config.queue_depth == 0 {
            return Err(RetrievalError::InvalidConfig(
                "admission queue depth must be positive".into(),
            ));
        }
        // every dequeued request would already be past a zero deadline,
        // so the runtime would shed everything it admits
        if config.deadline.is_zero() {
            return Err(RetrievalError::InvalidConfig(
                "request deadline must be positive".into(),
            ));
        }
        let config = RuntimeConfig {
            batch_size: config.batch_size.max(1),
            ..config
        };
        let shared = Arc::new(RuntimeShared {
            engine,
            queue: Mutex::new(RuntimeQueue {
                items: VecDeque::new(),
                drains: 0,
            }),
            config,
            counters: Counters {
                admitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                shed_queue: AtomicU64::new(0),
                shed_deadline: AtomicU64::new(0),
            },
        });
        Ok(ServingRuntime {
            shared,
            pool: PersistentPool::new(config.workers),
            hedge: None,
        })
    }

    /// Attach the serving engine's [`HedgeControl`] so scenario reports
    /// carry hedge issue/win counts (see
    /// [`crate::ShardedEngine::hedge_control`]).
    pub fn with_hedge_metrics(mut self, control: Arc<HedgeControl>) -> Self {
        self.hedge = Some(control);
        self
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// Current observability counters.
    pub fn stats(&self) -> RuntimeStats {
        let c = &self.shared.counters;
        RuntimeStats {
            // monotonic telemetry counters: a momentarily stale read is a
            // correct (slightly older) snapshot, so Relaxed throughout
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            queue_len: self.shared.queue.lock().items.len(),
        }
    }

    /// Admit one request. `Err(Overloaded)` when the admission queue is
    /// at its configured depth — the request was *not* queued and will
    /// never be served.
    pub fn submit(&self, request: Request) -> Result<Ticket, RetrievalError> {
        let shared = &self.shared;
        let (ticket, outcome) = mpsc::sync_channel(1);
        let schedule_drain = {
            let mut queue = shared.queue.lock();
            if queue.items.len() >= shared.config.queue_depth {
                shared.counters.shed_queue.fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
                return Err(shared.overloaded());
            }
            queue.items.push_back(QueuedRequest {
                request,
                enqueued: Instant::now(),
                ticket,
            });
            let idle_slot = queue.drains < shared.config.workers;
            queue.drains += usize::from(idle_slot);
            idle_slot
        };
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
        if schedule_drain {
            let shared = Arc::clone(shared);
            self.pool.spawn(move || drain_queue(&shared));
        }
        Ok(Ticket { outcome })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn retrieve_blocking(
        &self,
        request: &Request,
    ) -> Result<RetrievalResponse, RetrievalError> {
        self.submit(request.clone())?.wait()
    }

    /// Drive the runtime with an open-loop traffic [`Scenario`]: one
    /// [`LoadReport`] per phase. Requests arrive on each phase's
    /// fixed-rate schedule regardless of completions (open loop —
    /// overload cannot slow the arrivals down, exactly the regime
    /// admission control exists for); the template sampler persists
    /// across phases, so Zipf popularity spans the whole scenario.
    /// Queue state also carries across phases: a flash crowd's backlog
    /// drains into the recovery phase.
    pub fn run_scenario(&self, templates: &[Request], scenario: &Scenario) -> Vec<LoadReport> {
        assert!(!templates.is_empty(), "need at least one request template");
        let mut sampler = scenario.pattern.sampler(templates.len());
        scenario
            .phases
            .iter()
            .map(|phase| self.run_phase(templates, &mut sampler, phase))
            .collect()
    }

    /// One constant-rate open-loop phase (see
    /// [`ServingRuntime::run_scenario`]).
    fn run_phase(
        &self,
        templates: &[Request],
        sampler: &mut TemplateSampler,
        phase: &ScenarioPhase,
    ) -> LoadReport {
        assert!(phase.offered_qps > 0.0, "offered QPS must be positive");
        let interval = Duration::from_secs_f64(1.0 / phase.offered_qps);
        let deadline = self.shared.config.deadline;
        let hedge_before = self.hedge.as_ref().map(|h| (h.issued(), h.wins()));

        let start = Instant::now();
        let mut pending: Vec<(Duration, Ticket)> = Vec::with_capacity(phase.requests);
        let mut shed = 0usize;
        for i in 0..phase.requests {
            // f64 multiply, not `interval * i as u32`: the cast would
            // silently truncate the request index and the u32 multiply can
            // panic on Duration overflow at low QPS × many requests
            let scheduled = interval.mul_f64(i as f64);
            let now = start.elapsed();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let template = &templates[sampler.next(i)];
            match self.submit(template.clone()) {
                Ok(ticket) => pending.push((scheduled, ticket)),
                Err(_) => shed += 1, // admission-shed: Overloaded by construction
            }
        }

        let mut ms: Vec<f64> = Vec::with_capacity(pending.len());
        let mut no_coverage = 0usize;
        let mut timed_out = 0usize;
        let mut good = 0usize;
        for (scheduled, ticket) in pending {
            let (result, finished) = ticket.wait_full();
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
        let (hedges, hedge_wins) = match (hedge_before, &self.hedge) {
            (Some((i0, w0)), Some(h)) => (h.issued() - i0, h.wins() - w0),
            _ => (0, 0),
        };
        LoadReport {
            offered_qps: phase.offered_qps,
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
            hedges,
            hedge_wins,
            goodput_qps: good as f64 / wall,
        }
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        // resolve every still-queued ticket so no waiter hangs on a
        // runtime that shut down under it; a drain mid-batch then finds
        // the queue empty and returns, and the pool joins its worker
        let leftovers = std::mem::take(&mut self.shared.queue.lock().items);
        for item in leftovers {
            self.shared
                .counters
                .shed_queue
                .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
            fulfil(item.ticket, Err(self.shared.overloaded()));
        }
    }
}

/// One drain, run as a task on the runtime's pool: take up to
/// `batch_size` requests, shed the ones past their deadline, serve the
/// rest with one `retrieve_batch`, fulfil their tickets — until the
/// queue is empty.
fn drain_queue(shared: &RuntimeShared) {
    // scratch pre-sized to the batch cap and reused for every batch of
    // this drain: only the engine call does real work
    let batch_cap = shared.config.batch_size;
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(batch_cap);
    let mut requests: Vec<Request> = Vec::with_capacity(batch_cap);
    let mut tickets: Vec<SyncSender<Outcome>> = Vec::with_capacity(batch_cap);
    // amcad-lint: allow(unbounded-fanout) — drain loop: returns once the admission queue (at most queue_depth deep) is empty; each iteration removes up to batch_size requests from it
    loop {
        {
            let mut queue = shared.queue.lock();
            if queue.items.is_empty() {
                queue.drains -= 1;
                return;
            }
            let n = queue.items.len().min(batch_cap);
            batch.extend(queue.items.drain(..n));
        }
        // deadline check at dequeue: a request that aged out while
        // queued is shed — serving it would waste capacity on an answer
        // its caller has already given up on
        let now = Instant::now();
        for item in batch.drain(..) {
            if now.duration_since(item.enqueued) > shared.config.deadline {
                shared
                    .counters
                    .shed_deadline
                    .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
                fulfil(item.ticket, Err(shared.overloaded()));
            } else {
                requests.push(item.request);
                tickets.push(item.ticket);
            }
        }
        if requests.is_empty() {
            continue;
        }
        // one path whatever the count: the engine's batch of one *is* its
        // single-request path, and several live requests engage its
        // cross-request scan dedup
        let results = catch_unwind(AssertUnwindSafe(|| shared.engine.retrieve_batch(&requests)));
        requests.clear();
        // a panicking engine fails only its batch: the dropped tickets
        // make those waiters panic instead of hanging, and the drain goes
        // on. Unwinding out of the drain instead would leave its slot
        // counted, stranding the requests queued behind the batch.
        let Ok(results) = results else {
            tickets.clear();
            continue;
        };
        debug_assert_eq!(results.len(), tickets.len());
        for (ticket, result) in tickets.drain(..).zip(results) {
            // monotonic telemetry only; the channel carries the actual
            // result synchronisation
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            fulfil(ticket, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetrievalEngine;
    use crate::serving::TrafficPattern;
    use crate::test_fixtures::tiny_inputs;
    use crate::{EngineHandle, ShardedEngine};

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

    /// A [`Retrieve`] double whose calls block on a gate until the test
    /// opens it — makes queue-occupancy tests deterministic.
    struct GatedEngine {
        inner: Arc<RetrievalEngine>,
        /// (gate open, requests that entered the engine)
        state: std::sync::Mutex<(bool, usize)>,
        changed: std::sync::Condvar,
    }

    impl GatedEngine {
        fn new(inner: Arc<RetrievalEngine>) -> Self {
            GatedEngine {
                inner,
                state: std::sync::Mutex::new((false, 0)),
                changed: std::sync::Condvar::new(),
            }
        }

        fn open_gate(&self) {
            self.state.lock().unwrap().0 = true;
            self.changed.notify_all();
        }

        /// Requests that have entered the engine so far.
        fn entered(&self) -> usize {
            self.state.lock().unwrap().1
        }

        /// Block until `n` requests have entered the engine (i.e. were
        /// dequeued by a drain and are now parked on the gate).
        fn wait_entered(&self, n: usize) {
            let state = self.state.lock().unwrap();
            drop(self.changed.wait_while(state, |s| s.1 < n).unwrap());
        }
    }

    impl Retrieve for GatedEngine {
        fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.changed.notify_all();
            drop(self.changed.wait_while(state, |s| !s.0).unwrap());
            self.inner.retrieve(request)
        }
    }

    #[test]
    fn invalid_runtime_configs_are_rejected() {
        let e = engine();
        let invalid = [
            RuntimeConfig {
                workers: 0,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                queue_depth: 0,
                ..RuntimeConfig::default()
            },
            // would shed every request at dequeue
            RuntimeConfig {
                deadline: Duration::ZERO,
                ..RuntimeConfig::default()
            },
        ];
        for config in invalid {
            assert!(
                matches!(
                    ServingRuntime::new(e.clone(), config).unwrap_err(),
                    RetrievalError::InvalidConfig(_)
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn runtime_serves_singles_batches_and_counts() {
        let runtime = ServingRuntime::new(
            engine(),
            RuntimeConfig {
                workers: 2,
                queue_depth: 64,
                deadline: Duration::from_secs(5),
                batch_size: 4,
            },
        )
        .unwrap();
        let templates = requests();
        let tickets: Vec<Ticket> = templates
            .iter()
            .map(|r| runtime.submit(r.clone()).expect("queue is not full"))
            .collect();
        for ticket in tickets {
            let response = ticket.wait().expect("tiny world covers every template");
            assert!(!response.ads.is_empty());
        }
        // the blocking path answers identically to the engine itself
        let direct = engine().retrieve(&templates[3]).unwrap();
        let through = runtime.retrieve_blocking(&templates[3]).unwrap();
        assert_eq!(direct, through);
        let stats = runtime.stats();
        assert_eq!(stats.admitted, 11);
        assert_eq!(stats.completed, 11);
        assert_eq!(stats.shed_queue_full, 0);
        assert_eq!(stats.shed_deadline, 0);
        assert_eq!(stats.queue_len, 0);
    }

    /// The admission-control acceptance test: a saturated queue sheds
    /// with the typed `Overloaded` error, and a load drop restores
    /// zero-shed serving. Run at one and two workers, it also pins the
    /// drain-slot accounting: exactly `workers` drains take a request.
    #[test]
    fn saturated_admission_queue_sheds_and_recovers() {
        for workers in [1usize, 2] {
            let gated = Arc::new(GatedEngine::new(engine()));
            let runtime = ServingRuntime::new(
                gated.clone() as Arc<dyn Retrieve>,
                RuntimeConfig {
                    workers,
                    queue_depth: 2,
                    deadline: Duration::from_secs(30),
                    batch_size: 1,
                },
            )
            .unwrap();
            let templates = requests();
            // one request per worker is dequeued and parks on the gate ...
            let mut tickets: Vec<Ticket> = templates[..workers]
                .iter()
                .map(|r| runtime.submit(r.clone()).unwrap())
                .collect();
            gated.wait_entered(workers);
            // ... so the next two fill the depth-2 queue exactly ...
            for r in &templates[workers..workers + 2] {
                tickets.push(runtime.submit(r.clone()).unwrap());
            }
            // ... and the one after must shed with the typed error
            let err = runtime.submit(templates[workers + 2].clone()).unwrap_err();
            assert_eq!(
                err,
                RetrievalError::Overloaded {
                    queue_depth: 2,
                    deadline: Duration::from_secs(30),
                }
            );
            assert_eq!(runtime.stats().shed_queue_full, 1);
            assert_eq!(runtime.stats().queue_len, 2);
            assert_eq!(gated.entered(), workers, "no drain beyond `workers`");
            // open the gate: everything admitted completes
            gated.open_gate();
            for ticket in tickets {
                assert!(ticket.wait().is_ok());
            }
            // load drop: the queue is empty again, submissions sail through
            for template in &templates {
                assert!(runtime.retrieve_blocking(template).is_ok());
            }
            let stats = runtime.stats();
            assert_eq!(stats.shed_queue_full, 1, "no new sheds after the drop");
            assert_eq!(stats.completed, workers as u64 + 12);
        }
    }

    /// An engine that panics serving one query fails that request's
    /// waiter instead of hanging it, and costs the runtime no worker: on
    /// a one-worker runtime the request queued behind the panicking one
    /// is served without another submit, and so is the next request. The
    /// scenario runs on a helper thread so a hang fails by timeout
    /// rather than hanging the suite.
    #[test]
    fn a_panicking_engine_fails_its_waiter_and_keeps_serving() {
        struct PanicsOnQuery(Arc<GatedEngine>, u32);
        impl Retrieve for PanicsOnQuery {
            fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
                let response = self.0.retrieve(request);
                assert_ne!(request.query, self.1, "engine failure injected by the test");
                response
            }
        }
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let gated = Arc::new(GatedEngine::new(engine()));
            let runtime = ServingRuntime::new(
                Arc::new(PanicsOnQuery(Arc::clone(&gated), 3)),
                RuntimeConfig {
                    workers: 1,
                    queue_depth: 8,
                    deadline: Duration::from_secs(30),
                    batch_size: 1,
                },
            )
            .unwrap();
            let templates = requests();
            let doomed = runtime.submit(templates[3].clone()).unwrap();
            gated.wait_entered(1);
            let behind = runtime.submit(templates[0].clone()).unwrap();
            gated.open_gate();
            let waited = std::panic::catch_unwind(|| doomed.wait());
            let message = waited
                .as_ref()
                .err()
                .and_then(|p| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let served = [behind.wait(), runtime.retrieve_blocking(&templates[1])];
            done.send((waited.is_err(), message, served.iter().all(Result::is_ok)))
                .unwrap();
        });
        let (wait_panicked, message, rest_served) = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("a waiter hung on a request whose serving panicked");
        assert!(wait_panicked, "wait must panic, not return");
        assert!(message.contains("serving panicked"), "got: {message}");
        assert!(rest_served, "the one worker must survive the panic");
    }

    #[test]
    fn queued_requests_past_their_deadline_are_shed_not_served() {
        let gated = Arc::new(GatedEngine::new(engine()));
        let runtime = ServingRuntime::new(
            gated.clone() as Arc<dyn Retrieve>,
            RuntimeConfig {
                workers: 1,
                queue_depth: 8,
                deadline: Duration::from_millis(5),
                batch_size: 1,
            },
        )
        .unwrap();
        let templates = requests();
        let t1 = runtime.submit(templates[0].clone()).unwrap();
        gated.wait_entered(1); // the worker is inside the engine, gated
        let t2 = runtime.submit(templates[1].clone()).unwrap();
        // let r2 age past its 5 ms deadline while queued
        std::thread::sleep(Duration::from_millis(25));
        gated.open_gate();
        // r1 was dequeued before its deadline passed — it is served
        assert!(t1.wait().is_ok());
        // r2 aged out in the queue — shed with the typed error
        assert!(matches!(
            t2.wait().unwrap_err(),
            RetrievalError::Overloaded { .. }
        ));
        let stats = runtime.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn dropping_the_runtime_resolves_leftover_tickets() {
        let gated = Arc::new(GatedEngine::new(engine()));
        let runtime = ServingRuntime::new(
            gated.clone() as Arc<dyn Retrieve>,
            RuntimeConfig {
                workers: 1,
                queue_depth: 8,
                deadline: Duration::from_secs(30),
                batch_size: 1,
            },
        )
        .unwrap();
        let templates = requests();
        let t1 = runtime.submit(templates[0].clone()).unwrap();
        gated.wait_entered(1);
        let t2 = runtime.submit(templates[1].clone()).unwrap();
        gated.open_gate();
        drop(runtime); // joins the worker; t2 may be served or shut down
        assert!(t1.wait().is_ok());
        // whichever way the race went, the ticket resolved — no hang
        let _ = t2.wait();
    }

    #[test]
    fn flash_crowd_scenario_sheds_at_the_spike_and_recovers() {
        let runtime = ServingRuntime::new(
            engine(),
            RuntimeConfig {
                workers: 1,
                queue_depth: 16,
                deadline: Duration::from_secs(1),
                batch_size: 4,
            },
        )
        .unwrap();
        // base phases arrive 10 ms apart (far slower than tiny-world
        // service, with headroom for a descheduled worker when the whole
        // suite runs in parallel); the spike offers requests faster than
        // the producer can even enqueue them, so the depth-16 queue must
        // overflow
        let scenario = Scenario::flash_crowd(100.0, 5_000_000.0, 30, 2_000);
        let reports = runtime.run_scenario(&requests(), &scenario);
        assert_eq!(reports.len(), 3);
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
    fn zipf_scenario_completes_and_counts_every_request() {
        let runtime = ServingRuntime::new(
            engine(),
            RuntimeConfig {
                workers: 2,
                queue_depth: 256,
                deadline: Duration::from_secs(5),
                batch_size: 8,
            },
        )
        .unwrap();
        let scenario = Scenario::sustained(20_000.0, 300).with_pattern(TrafficPattern::Zipf {
            exponent: 1.1,
            seed: 42,
        });
        let reports = runtime.run_scenario(&requests(), &scenario);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].completed, 300);
        assert_eq!(reports[0].shed, 0);
        assert_eq!(reports[0].no_coverage, 0);
        assert!(reports[0].p50_ms <= reports[0].p99_ms + 1e-9);
    }

    /// The runtime is the one load driver for every engine flavour: a
    /// single engine, a sharded fan-out and a hot-swappable handle all
    /// serve a scenario through `dyn Retrieve`, complete every request and
    /// report a sane latency ladder.
    #[test]
    fn run_scenario_serves_every_engine_flavour_through_the_trait() {
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
            let runtime = ServingRuntime::new(
                flavour,
                RuntimeConfig {
                    workers: 2,
                    queue_depth: 256,
                    deadline: Duration::from_secs(5),
                    batch_size: 4,
                },
            )
            .unwrap();
            let reports = runtime.run_scenario(&requests(), &Scenario::sustained(10_000.0, 120));
            assert_eq!(reports.len(), 1);
            let report = &reports[0];
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
        let runtime = ServingRuntime::new(
            engine(),
            RuntimeConfig {
                workers: 2,
                queue_depth: 64,
                deadline: Duration::from_secs(5),
                batch_size: 4,
            },
        )
        .unwrap();
        let uncovered = vec![Request {
            query: 99_999,
            preclick_items: vec![],
        }];
        let reports = runtime.run_scenario(&uncovered, &Scenario::sustained(10_000.0, 50));
        assert_eq!(reports[0].completed, 50);
        assert_eq!(reports[0].no_coverage, 50);
        assert_eq!(reports[0].shed, 0);
    }

    /// The uniform pattern offers the templates round-robin: one worker
    /// drains the FIFO queue in submission order, so the engine sees
    /// exactly the cycle.
    #[test]
    fn uniform_scenario_cycles_through_the_templates_in_order() {
        struct Recorder {
            inner: Arc<RetrievalEngine>,
            seen: Mutex<Vec<u32>>,
        }
        impl Retrieve for Recorder {
            fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
                self.seen.lock().push(request.query);
                self.inner.retrieve(request)
            }
        }
        let recorder = Arc::new(Recorder {
            inner: engine(),
            seen: Mutex::new(Vec::new()),
        });
        let runtime = ServingRuntime::new(
            recorder.clone() as Arc<dyn Retrieve>,
            RuntimeConfig {
                workers: 1,
                queue_depth: 64,
                deadline: Duration::from_secs(5),
                batch_size: 4,
            },
        )
        .unwrap();
        let templates = &requests()[..3];
        let reports = runtime.run_scenario(templates, &Scenario::sustained(10_000.0, 7));
        assert_eq!(reports[0].completed, 7);
        assert_eq!(*recorder.seen.lock(), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn open_loop_schedule_survives_low_qps_and_large_request_indices() {
        // arrivals 1000 s apart: the first is due immediately, so a
        // one-request phase completes without ever sleeping an interval
        let runtime = ServingRuntime::new(engine(), RuntimeConfig::default()).unwrap();
        let reports = runtime.run_scenario(&requests(), &Scenario::sustained(0.001, 1));
        assert_eq!(reports[0].completed, 1);
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
