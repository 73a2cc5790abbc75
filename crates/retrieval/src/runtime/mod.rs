//! The persistent serving runtime: admission control, deadlines, load
//! shedding and warm generation rollout in front of any [`Retrieve`]
//! implementation.
//!
//! This module *is* the serving tier. A [`ServingRuntime`] owns a bounded
//! admission queue and a fixed set of resident worker threads (parked on
//! a condvar when idle — spawned once, reused for every request):
//!
//! * **Admission control** — [`ServingRuntime::submit`] rejects a request
//!   with the typed [`RetrievalError::Overloaded`] the moment the queue
//!   is at its configured depth, instead of letting queueing delay grow
//!   without bound. Under overload the runtime answers a subset of
//!   requests inside the SLO rather than answering all of them
//!   arbitrarily late.
//! * **Per-request deadlines** — a queued request that ages past
//!   [`RuntimeConfig::deadline`] before a worker picks it up is shed with
//!   the same typed error; its ticket resolves immediately rather than
//!   wasting service capacity on an answer nobody is waiting for.
//! * **Batch dedup for free** — workers drain up to
//!   [`RuntimeConfig::batch_size`] queued requests per wakeup and serve
//!   them through [`Retrieve::retrieve_batch`] — always, because an
//!   engine's batch of one *is* its `retrieve` (the one that hedges on a
//!   hedged deployment) — so the engine-level cross-request scan dedup
//!   engages exactly when load (and therefore key overlap) is highest.
//! * **Traffic scenarios** — [`ServingRuntime::run_scenario`] drives the
//!   runtime with open-loop [`Scenario`]s (sustained load, flash crowds,
//!   Zipf-skewed template popularity) and reports
//!   [`LoadReport`]s extended with shed / timeout / hedge counters and
//!   goodput.
//! * **Warm generation rollout** — [`warm_rollout`] models the
//!   replica-by-replica bring-up of a snapshot generation over a serving
//!   [`ShardedEngine`]: each replica is drained (weight 0, siblings keep
//!   serving generation G), labeled with the incoming generation, and
//!   restored; data visibility then flips atomically at the
//!   [`EngineHandle`] publish. Hedged requests
//!   ([`ShardedEngineBuilder::hedge_delay`](crate::ShardedEngineBuilder::hedge_delay))
//!   compose with the runtime: attach the engine's
//!   [`HedgeControl`] via
//!   [`ServingRuntime::with_hedge_metrics`] and scenario reports carry
//!   hedge counts.
//!
//! The parked pool hedged shard gathers (and cold builds) run on lives in
//! [`park_pool`].

pub mod park_pool;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
// amcad-lint: allow(no-std-sync-primitives) — the admission queue parks workers on std::sync::Condvar, which only pairs with std MutexGuard; poison is recovered manually in lock() below
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{Request, RetrievalResponse, Retrieve};
use crate::error::RetrievalError;
use crate::serving::{percentile, LoadReport, Scenario, ScenarioPhase, TemplateSampler};
use crate::shard::{HedgeControl, ShardedEngine};
use crate::snapshot::EngineHandle;

/// Lock a mutex, recovering from a poisoned guard (runtime invariants
/// live in atomics, not the data under the mutexes).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// this counts toward `timed_out` rather than goodput.
    pub deadline: Duration,
    /// Requests a worker drains per wakeup and serves through one
    /// [`Retrieve::retrieve_batch`] call; several live requests engage
    /// the engine-level cross-request scan dedup.
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

/// The pending outcome of one admitted request.
struct TicketState {
    outcome: Mutex<Option<(Result<RetrievalResponse, RetrievalError>, Instant)>>,
    done: Condvar,
}

impl TicketState {
    fn new() -> Self {
        TicketState {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Resolve the ticket (first resolution wins; later ones are
    /// impossible by construction but harmless).
    fn fulfill(&self, result: Result<RetrievalResponse, RetrievalError>) {
        let mut slot = lock(&self.outcome);
        if slot.is_none() {
            *slot = Some((result, Instant::now()));
            self.done.notify_all();
        }
    }
}

/// A handle to one admitted request: redeem it with [`Ticket::wait`] for
/// the response. Every admitted ticket resolves — served, deadline-shed,
/// or shed at runtime shutdown — so waiting can never hang.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = lock(&self.state.outcome).is_some();
        f.debug_struct("Ticket")
            .field("resolved", &resolved)
            .finish()
    }
}

impl Ticket {
    /// Block until the request resolves.
    pub fn wait(self) -> Result<RetrievalResponse, RetrievalError> {
        self.wait_full().0
    }

    /// Block until the request resolves; also return the completion
    /// timestamp the worker stamped (the scenario driver computes
    /// per-request latency from it).
    pub(crate) fn wait_full(self) -> (Result<RetrievalResponse, RetrievalError>, Instant) {
        let mut guard = lock(&self.state.outcome);
        // amcad-lint: allow(unbounded-fanout) — condvar wait loop: bounded by ticket fulfilment (or shed); spurious wakeups re-check the outcome slot
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One queued request.
struct QueuedRequest {
    request: Request,
    enqueued: Instant,
    ticket: Arc<TicketState>,
}

struct RuntimeQueue {
    items: VecDeque<QueuedRequest>,
    /// Inside the mutex (see `park_pool::PoolQueue`): a flag outside it
    /// can miss the shutdown wakeup and park a worker forever.
    shutdown: bool,
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
    ready: Condvar,
    config: RuntimeConfig,
    counters: Counters,
}

/// A persistent serving tier around any [`Retrieve`] engine: a bounded
/// admission queue drained by resident parked workers, with per-request
/// deadlines and SLO-driven load shedding (see the module docs).
pub struct ServingRuntime {
    shared: Arc<RuntimeShared>,
    workers: Vec<JoinHandle<()>>,
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
        let config = RuntimeConfig {
            batch_size: config.batch_size.max(1),
            ..config
        };
        let shared = Arc::new(RuntimeShared {
            engine,
            queue: Mutex::new(RuntimeQueue {
                items: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            config,
            counters: Counters {
                admitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                shed_queue: AtomicU64::new(0),
                shed_deadline: AtomicU64::new(0),
            },
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(ServingRuntime {
            shared,
            workers,
            hedge: None,
        })
    }

    /// Attach the serving engine's [`HedgeControl`] so scenario reports
    /// carry hedge issue/win counts (see
    /// [`ShardedEngine::hedge_control`]).
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
            queue_len: lock(&self.shared.queue).items.len(),
        }
    }

    /// Admit one request. `Err(Overloaded)` when the admission queue is
    /// at its configured depth (or the runtime is shutting down) — the
    /// request was *not* queued and will never be served.
    pub fn submit(&self, request: Request) -> Result<Ticket, RetrievalError> {
        let overloaded = || RetrievalError::Overloaded {
            queue_depth: self.shared.config.queue_depth,
            deadline: self.shared.config.deadline,
        };
        let ticket = Arc::new(TicketState::new());
        {
            let mut queue = lock(&self.shared.queue);
            if queue.shutdown || queue.items.len() >= self.shared.config.queue_depth {
                self.shared
                    .counters
                    .shed_queue
                    .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
                return Err(overloaded());
            }
            queue.items.push_back(QueuedRequest {
                request,
                enqueued: Instant::now(),
                ticket: Arc::clone(&ticket),
            });
        }
        self.shared
            .counters
            .admitted
            .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
        self.shared.ready.notify_one();
        Ok(Ticket { state: ticket })
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
        let leftovers: Vec<QueuedRequest> = {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
            queue.items.drain(..).collect()
        };
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // resolve every still-queued ticket so no waiter hangs on a
        // runtime that shut down under it
        for item in leftovers {
            self.shared
                .counters
                .shed_queue
                .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
            item.ticket.fulfill(Err(RetrievalError::Overloaded {
                queue_depth: self.shared.config.queue_depth,
                deadline: self.shared.config.deadline,
            }));
        }
    }
}

fn worker_loop(shared: &RuntimeShared) {
    // all dispatch-shell scratch is pre-sized to the batch cap and reused
    // for the worker's lifetime: the steady-state loop below allocates
    // nothing of its own — only the engine call does real work
    let batch_cap = shared.config.batch_size.max(1);
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(batch_cap);
    let mut live: Vec<QueuedRequest> = Vec::with_capacity(batch_cap);
    let mut requests: Vec<Request> = Vec::with_capacity(batch_cap);
    let mut tickets: Vec<Arc<TicketState>> = Vec::with_capacity(batch_cap);
    // amcad-lint: allow(unbounded-fanout) — worker lifetime loop: exits via the shutdown flag checked under the queue lock; each iteration serves one admission-bounded batch
    loop {
        batch.clear();
        {
            let mut queue = lock(&shared.queue);
            // amcad-lint: allow(unbounded-fanout) — condvar wait loop: re-checks the queue predicate on spurious wakeups; bounded by request arrival or shutdown
            while queue.items.is_empty() {
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let n = queue.items.len().min(shared.config.batch_size);
            batch.extend(queue.items.drain(..n));
        }
        // deadline check at dequeue: a request that aged out while
        // queued is shed — serving it would waste capacity on an answer
        // its caller has already given up on
        let now = Instant::now();
        live.clear();
        for item in batch.drain(..) {
            if now.duration_since(item.enqueued) > shared.config.deadline {
                shared
                    .counters
                    .shed_deadline
                    .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
                item.ticket.fulfill(Err(RetrievalError::Overloaded {
                    queue_depth: shared.config.queue_depth,
                    deadline: shared.config.deadline,
                }));
            } else {
                live.push(item);
            }
        }
        if live.is_empty() {
            continue;
        }
        // one path whatever the count: the engine's batch of one *is* its
        // single-request path, and several live requests engage its
        // cross-request scan dedup. Move the requests out of the queued
        // items (instead of cloning them) — after dispatch only the
        // tickets are needed to fulfil, so the split is free.
        requests.clear();
        tickets.clear();
        for item in live.drain(..) {
            requests.push(item.request);
            tickets.push(item.ticket);
        }
        let results = shared.engine.retrieve_batch(&requests);
        debug_assert_eq!(results.len(), tickets.len());
        for (ticket, result) in tickets.drain(..).zip(results) {
            // monotonic telemetry only; the ticket fulfil carries the
            // actual result synchronisation
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            ticket.fulfill(result);
        }
    }
}

/// Roll a serving [`ShardedEngine`] forward to a snapshot generation,
/// replica by replica, without interrupting serving.
///
/// The rollout models the paper's warm replica bring-up over the PR 6
/// snapshot store:
///
/// 1. the snapshot is decoded into the next-generation engine (the
///    expensive part — no index rebuild, but a full file read),
/// 2. each replica of the *current* deployment is drained
///    ([`crate::ReplicatedShard::begin_warmup`]: weight 0 — siblings keep
///    serving generation G), labeled with the incoming data generation
///    and restored ([`crate::ReplicatedShard::finish_warmup`]);
///    `on_stage(shard, replica)` runs while the replica is drained, which
///    is where tests issue probe requests to prove old-generation serving
///    continues,
/// 3. the new engine is published atomically through the handle.
///
/// In this in-process model data visibility flips at the publish — there
/// are no torn generations, which is *stronger* than a real cluster where
/// replicas restart one at a time. The per-replica generation labels
/// record bring-up progress; the returned value is the handle's new
/// publish generation (the labels carry the snapshot's own data
/// generation, which advances independently).
pub fn warm_rollout(
    handle: &EngineHandle,
    current: &ShardedEngine,
    snapshot: impl AsRef<std::path::Path>,
    mut on_stage: impl FnMut(usize, usize),
) -> Result<u64, RetrievalError> {
    let (generation, builder) = crate::store::read_snapshot(snapshot.as_ref())?;
    let next = builder.engine()?;
    next.label_generations(generation);
    for shard in 0..current.active_shards() {
        for replica in 0..current.replicas() {
            current.shard(shard).begin_warmup(replica);
            on_stage(shard, replica);
            current.shard(shard).finish_warmup(replica, generation);
        }
    }
    Ok(handle.publish_arc(Arc::new(next)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetrievalEngine;
    use crate::serving::TrafficPattern;
    use crate::test_fixtures::tiny_inputs;

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
        open: Mutex<bool>,
        gate: Condvar,
        entered: Mutex<usize>,
        entered_cv: Condvar,
    }

    impl GatedEngine {
        fn new(inner: Arc<RetrievalEngine>) -> Self {
            GatedEngine {
                inner,
                open: Mutex::new(false),
                gate: Condvar::new(),
                entered: Mutex::new(0),
                entered_cv: Condvar::new(),
            }
        }

        fn open_gate(&self) {
            *lock(&self.open) = true;
            self.gate.notify_all();
        }

        /// Block until `n` requests have entered the engine (i.e. were
        /// dequeued by a worker and are now parked on the gate).
        fn wait_entered(&self, n: usize) {
            let mut entered = lock(&self.entered);
            while *entered < n {
                entered = self
                    .entered_cv
                    .wait(entered)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl Retrieve for GatedEngine {
        fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
            {
                let mut entered = lock(&self.entered);
                *entered += 1;
                self.entered_cv.notify_all();
            }
            {
                let mut open = lock(&self.open);
                while !*open {
                    open = self.gate.wait(open).unwrap_or_else(PoisonError::into_inner);
                }
            }
            self.inner.retrieve(request)
        }
    }

    #[test]
    fn invalid_runtime_configs_are_rejected() {
        let e = engine();
        assert!(matches!(
            ServingRuntime::new(
                e.clone(),
                RuntimeConfig {
                    workers: 0,
                    ..RuntimeConfig::default()
                }
            )
            .unwrap_err(),
            RetrievalError::InvalidConfig(_)
        ));
        assert!(matches!(
            ServingRuntime::new(
                e,
                RuntimeConfig {
                    queue_depth: 0,
                    ..RuntimeConfig::default()
                }
            )
            .unwrap_err(),
            RetrievalError::InvalidConfig(_)
        ));
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
    /// zero-shed serving.
    #[test]
    fn saturated_admission_queue_sheds_and_recovers() {
        let gated = Arc::new(GatedEngine::new(engine()));
        let runtime = ServingRuntime::new(
            gated.clone() as Arc<dyn Retrieve>,
            RuntimeConfig {
                workers: 1,
                queue_depth: 2,
                deadline: Duration::from_secs(30),
                batch_size: 1,
            },
        )
        .unwrap();
        let templates = requests();
        // r1 is dequeued by the single worker and parks on the gate ...
        let t1 = runtime.submit(templates[0].clone()).unwrap();
        gated.wait_entered(1);
        // ... so r2 and r3 fill the depth-2 queue exactly ...
        let t2 = runtime.submit(templates[1].clone()).unwrap();
        let t3 = runtime.submit(templates[2].clone()).unwrap();
        // ... and r4 must shed with the typed error
        let err = runtime.submit(templates[3].clone()).unwrap_err();
        assert_eq!(
            err,
            RetrievalError::Overloaded {
                queue_depth: 2,
                deadline: Duration::from_secs(30),
            }
        );
        assert_eq!(runtime.stats().shed_queue_full, 1);
        assert_eq!(runtime.stats().queue_len, 2);
        // open the gate: everything admitted completes
        gated.open_gate();
        for ticket in [t1, t2, t3] {
            assert!(ticket.wait().is_ok());
        }
        // load drop: the queue is empty again, submissions sail through
        for template in &templates {
            assert!(runtime.retrieve_blocking(template).is_ok());
        }
        let stats = runtime.stats();
        assert_eq!(stats.shed_queue_full, 1, "no new sheds after the drop");
        assert_eq!(stats.completed, 13);
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
                lock(&self.seen).push(request.query);
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
        assert_eq!(*lock(&recorder.seen), vec![0, 1, 2, 0, 1, 2, 0]);
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

    /// Warm rollout over the snapshot store: replicas drain one at a
    /// time while serving continues from generation G, and the publish
    /// flips the deployment to the snapshot generation atomically.
    #[test]
    fn warm_rollout_keeps_serving_and_relabels_generations() {
        use crate::delta::ShardedDeltaBuilder;

        let inputs = tiny_inputs();
        let topology = ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .top_k(8)
            .threads(1)
            .build_threads(1);
        let builder = ShardedDeltaBuilder::new(&inputs, topology.clone()).unwrap();
        let handle = EngineHandle::new(builder.engine().unwrap());
        let dir = std::env::temp_dir().join(format!(
            "amcad-warm-rollout-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rollout.snap");
        handle.save_snapshot(&builder, &path).unwrap();
        let saved_generation = handle.generation();

        // the engine currently serving (shared with the handle)
        let current = builder.engine().unwrap();
        let serving = EngineHandle::new(current.clone());
        let templates = requests();
        let baseline: Vec<_> = templates
            .iter()
            .map(|r| serving.retrieve(r).map(RetrievalResponse::logical))
            .collect();
        assert!(current
            .replica_generations()
            .iter()
            .all(|shard| shard.iter().all(|&g| g == 0)));

        let mut stages = Vec::new();
        let new_generation = warm_rollout(&serving, &current, &path, |shard, replica| {
            stages.push((shard, replica));
            // the replica is drained right now: its weight is 0, its
            // siblings keep serving, and rankings never change
            assert_eq!(current.replica_weights()[shard][replica], 0);
            for (request, expected) in templates.iter().zip(&baseline) {
                let got = serving.retrieve(request).map(RetrievalResponse::logical);
                assert_eq!(&got, expected, "serving changed mid-rollout");
            }
        })
        .unwrap();

        // every replica of every shard was staged exactly once
        let mut expected_stages = Vec::new();
        for s in 0..current.active_shards() {
            for r in 0..current.replicas() {
                expected_stages.push((s, r));
            }
        }
        assert_eq!(stages, expected_stages);
        // weights restored, generations labeled with the snapshot's own
        assert!(current
            .replica_weights()
            .iter()
            .all(|shard| shard.iter().all(|&w| w == 1)));
        assert!(current
            .replica_generations()
            .iter()
            .all(|shard| shard.iter().all(|&g| g == saved_generation)));
        // the publish advanced the handle and serving still matches
        assert_eq!(serving.generation(), new_generation);
        assert!(new_generation > saved_generation);
        for (request, expected) in templates.iter().zip(&baseline) {
            let got = serving.retrieve(request).map(RetrievalResponse::logical);
            assert_eq!(&got, expected, "the rolled-out generation diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
