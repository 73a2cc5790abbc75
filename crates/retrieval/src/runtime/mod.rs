//! The persistent serving runtime: admission control, deadlines and load
//! shedding in front of any [`Retrieve`] implementation.
//!
//! This module *is* the serving tier. A [`ServingRuntime`] owns a bounded
//! admission queue and exactly [`RuntimeConfig::workers`] resident
//! threads — spawned once, parked on that queue when it is empty, reused
//! for every request. The queue is the only one between `submit` and the
//! engine: a submit pushes under its lock and wakes a worker only if one
//! is parked, and a worker serves the queue batch by batch until it is
//! empty, then parks again. The park/wake protocol lives in
//! [`park_pool`]. The caller waits on its [`Ticket`], a one-slot channel
//! the worker sends the outcome through.
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
//! * **Batch dedup for free** — a worker takes up to
//!   [`RuntimeConfig::batch_size`] queued requests at a time and serves
//!   them through [`Retrieve::retrieve_batch`] — always, because an
//!   engine's batch of one *is* its `retrieve` — so the engine-level
//!   cross-request scan dedup engages exactly when load (and therefore
//!   key overlap) is highest.
//! * **Completion stamps** — [`Ticket::wait_timed`] returns the instant
//!   the worker resolved the ticket alongside the result, so a load
//!   generator measures queueing plus service without timing its own
//!   wake-up; the open-loop driver that offers Fig. 9's load is a plain
//!   client of [`ServingRuntime::submit`] in the `amcad-bench` crate.

pub mod park_pool;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use self::park_pool::AdmissionQueue;
use crate::engine::{Request, RetrievalResponse, Retrieve};
use crate::error::RetrievalError;

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
    /// Requests a worker takes from the queue at a time and serves
    /// through one [`Retrieve::retrieve_batch`] call; several live
    /// requests engage the engine-level cross-request scan dedup (must
    /// be positive).
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
    /// Requests accepted into the queue. Each one ends counted once in
    /// `completed`, `failed` or `shed_deadline`, or is resolved by the
    /// runtime's shutdown.
    pub admitted: u64,
    /// Requests the engine answered with a ranking (`Ok`).
    pub completed: u64,
    /// Requests the engine answered with an error — no coverage, a shard
    /// without a replica up — or whose batch panicked in the engine.
    pub failed: u64,
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
        self.wait_timed().0
    }

    /// [`Ticket::wait`], plus the instant the ticket was resolved: when
    /// the worker finished serving the request, or shed it at its
    /// deadline or at runtime shutdown. A waiter that wakes late still
    /// reads when the answer was ready.
    ///
    /// # Panics
    ///
    /// As [`Ticket::wait`].
    pub fn wait_timed(self) -> (Result<RetrievalResponse, RetrievalError>, Instant) {
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

struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_queue: AtomicU64,
    shed_deadline: AtomicU64,
}

struct RuntimeShared {
    engine: Arc<dyn Retrieve>,
    queue: AdmissionQueue,
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
/// admission queue served by resident workers parked on it, with
/// per-request deadlines and SLO-driven load shedding (see the module
/// docs).
pub struct ServingRuntime {
    shared: Arc<RuntimeShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingRuntime")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
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
        if config.batch_size == 0 {
            return Err(RetrievalError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        let shared = Arc::new(RuntimeShared {
            engine,
            queue: AdmissionQueue::default(),
            config,
            counters: Counters {
                admitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                shed_queue: AtomicU64::new(0),
                shed_deadline: AtomicU64::new(0),
            },
        });
        let workers = park_pool::spawn_workers(config.workers, {
            let shared = Arc::clone(&shared);
            move || serve(&shared)
        });
        Ok(ServingRuntime { shared, workers })
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
            failed: c.failed.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            queue_len: self.shared.queue.len(),
        }
    }

    /// Admit one request. `Err(Overloaded)` when the admission queue is
    /// at its configured depth — the request was *not* queued and will
    /// never be served.
    pub fn submit(&self, request: Request) -> Result<Ticket, RetrievalError> {
        let shared = &self.shared;
        let (ticket, outcome) = mpsc::sync_channel(1);
        let item = QueuedRequest {
            request,
            enqueued: Instant::now(),
            ticket,
        };
        if !shared.queue.push(item, shared.config.queue_depth) {
            shared.counters.shed_queue.fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
            return Err(shared.overloaded());
        }
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
        Ok(Ticket { outcome })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn retrieve_blocking(
        &self,
        request: &Request,
    ) -> Result<RetrievalResponse, RetrievalError> {
        self.submit(request.clone())?.wait()
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        // resolve every still-queued ticket so no waiter hangs on a
        // runtime that shut down under it; a worker mid-batch finishes
        // it, finds the queue closed and exits, so joining waits only
        // for in-flight batches
        for item in self.shared.queue.close() {
            self.shared
                .counters
                .shed_queue
                .fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
            fulfil(item.ticket, Err(self.shared.overloaded()));
        }
        for worker in self.workers.drain(..) {
            // engine panics are caught, so a worker never panics;
            // joining its handle only waits for it
            let _ = worker.join();
        }
    }
}

/// One resident worker's life: take up to `batch_size` requests, shed
/// the ones past their deadline, serve the rest with one
/// `retrieve_batch`, fulfil their tickets — parking whenever the queue
/// is empty, until the runtime closes it.
fn serve(shared: &RuntimeShared) {
    // scratch pre-sized to the batch cap and reused for every batch this
    // worker serves: only the engine call does real work
    let batch_cap = shared.config.batch_size;
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(batch_cap);
    let mut requests: Vec<Request> = Vec::with_capacity(batch_cap);
    let mut tickets: Vec<SyncSender<Outcome>> = Vec::with_capacity(batch_cap);
    // worker loop: returns once the runtime closes the queue; each
    // iteration removes up to batch_size requests
    while shared.queue.next_batch(batch_cap, &mut batch) {
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
        // make those waiters panic instead of hanging, and the worker
        // goes on. Unwinding out of the worker instead would end its
        // thread, leaving the runtime a worker short for good.
        let Ok(results) = results else {
            let failed = tickets.len() as u64;
            shared.counters.failed.fetch_add(failed, Ordering::Relaxed); // monotonic telemetry only
            tickets.clear();
            continue;
        };
        debug_assert_eq!(results.len(), tickets.len());
        for (ticket, result) in tickets.drain(..).zip(results) {
            let counter = match result {
                Ok(_) => &shared.counters.completed,
                Err(_) => &shared.counters.failed,
            };
            // monotonic telemetry only; the channel carries the actual
            // result synchronisation
            counter.fetch_add(1, Ordering::Relaxed);
            fulfil(ticket, result);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test probes: a gated engine double parks on a std Condvar, and concurrent submitters run on threads of their own"
)]
mod tests {
    use super::*;
    use crate::engine::RetrievalEngine;
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

    /// Run a test body on a thread of its own and wait at most 30 s for
    /// it: a wait that never resolves (a lost wake-up) then fails the
    /// test under its own name instead of hanging the suite. A panic in
    /// `body` is re-raised here.
    fn within_timeout(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let test = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if finished.recv_timeout(Duration::from_secs(30)) == Err(mpsc::RecvTimeoutError::Timeout) {
            panic!("the test did not finish within 30 s: a runtime wait never resolved");
        }
        if let Err(payload) = test.join() {
            std::panic::resume_unwind(payload);
        }
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
        /// dequeued by a worker and are now parked on the gate).
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
            RuntimeConfig {
                batch_size: 0,
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
        within_timeout(|| {
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
            // a request the world does not cover is answered, with an
            // error: it counts as failed, not completed
            let uncovered = Request {
                query: 9_999,
                preclick_items: Vec::new(),
            };
            assert!(matches!(
                runtime.retrieve_blocking(&uncovered),
                Err(RetrievalError::NoCoverage { .. })
            ));
            let stats = runtime.stats();
            assert_eq!(stats.admitted, 12);
            assert_eq!(stats.completed, 11);
            assert_eq!(stats.failed, 1);
            assert_eq!(stats.shed_queue_full, 0);
            assert_eq!(stats.shed_deadline, 0);
            assert_eq!(stats.queue_len, 0);
        });
    }

    /// The admission-control acceptance test: a saturated queue sheds
    /// with the typed `Overloaded` error, and a load drop restores
    /// zero-shed serving. Run at one and two workers, it also pins the
    /// drain-slot accounting: exactly `workers` drains take a request.
    #[test]
    fn saturated_admission_queue_sheds_and_recovers() {
        within_timeout(|| {
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
        });
    }

    /// An engine that panics serving one query fails that request's
    /// waiter instead of hanging it, and costs the runtime no worker: on
    /// a one-worker runtime the request queued behind the panicking one
    /// is served without another submit, and so is the next request.
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
        within_timeout(|| {
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
            assert!(waited.is_err(), "wait must panic, not return");
            assert!(message.contains("serving panicked"), "got: {message}");
            assert!(
                behind.wait().is_ok(),
                "the one worker must survive the panic"
            );
            assert!(runtime.retrieve_blocking(&templates[1]).is_ok());
            let stats = runtime.stats();
            assert_eq!((stats.completed, stats.failed), (2, 1));
        });
    }

    #[test]
    fn queued_requests_past_their_deadline_are_shed_not_served() {
        within_timeout(|| {
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
        });
    }

    /// The stamp `wait_timed` returns is the instant the ticket was
    /// resolved: after the submit, before `wait_timed` returns — for a
    /// served request, one shed at its deadline and one shed at shutdown.
    #[test]
    fn wait_timed_stamps_every_resolution_between_submit_and_return() {
        within_timeout(|| {
            let in_window = |submitted: Instant, ticket: Ticket| {
                let (result, stamp) = ticket.wait_timed();
                assert!(submitted <= stamp && stamp <= Instant::now());
                result
            };
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
            let served_at = Instant::now();
            let served = runtime.submit(templates[0].clone()).unwrap();
            gated.wait_entered(1);
            let shed_at = Instant::now();
            let shed = runtime.submit(templates[1].clone()).unwrap();
            std::thread::sleep(Duration::from_millis(25));
            gated.open_gate();
            assert!(in_window(served_at, served).is_ok());
            assert!(matches!(
                in_window(shed_at, shed),
                Err(RetrievalError::Overloaded { .. })
            ));
            assert_eq!(runtime.stats().shed_deadline, 1);

            // shutdown: the one worker is parked on a closed gate, so only
            // the runtime's drop can resolve the queued ticket; the drop then
            // blocks joining that worker until the gate opens, and the
            // in-flight request is still served
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
            let blocking = runtime.submit(templates[0].clone()).unwrap();
            gated.wait_entered(1);
            let queued_at = Instant::now();
            let queued = runtime.submit(templates[1].clone()).unwrap();
            std::thread::scope(|s| {
                s.spawn(move || drop(runtime));
                assert!(matches!(
                    in_window(queued_at, queued),
                    Err(RetrievalError::Overloaded { .. })
                ));
                gated.open_gate();
            });
            assert!(blocking.wait().is_ok());
        });
    }

    /// A submit to an idle runtime wakes a worker parked on the empty
    /// queue: every worker is seen parked before the one request goes in,
    /// so only the submit's wake-up can serve it (a lost one fails the
    /// test under `within_timeout`).
    #[test]
    fn a_submit_to_a_parked_worker_wakes_it() {
        within_timeout(|| {
            for workers in [1usize, 2] {
                let config = RuntimeConfig {
                    workers,
                    deadline: Duration::from_secs(5),
                    ..RuntimeConfig::default()
                };
                let runtime = ServingRuntime::new(engine(), config).unwrap();
                while runtime.shared.queue.parked() < workers {
                    std::thread::yield_now();
                }
                assert!(runtime.retrieve_blocking(&requests()[0]).is_ok());
            }
        });
    }

    /// No wake-up is lost to racing submitters: four closed-loop clients
    /// keep the queue flipping between empty and not, so workers park
    /// and wake on almost every request, and every ticket must resolve.
    #[test]
    fn concurrent_submitters_lose_no_wake_up() {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 500;
        within_timeout(|| {
            let engine = engine();
            let templates = requests();
            for workers in [1, 2] {
                for batch_size in [1, 8] {
                    let runtime = ServingRuntime::new(
                        engine.clone(),
                        RuntimeConfig {
                            workers,
                            queue_depth: CLIENTS,
                            deadline: Duration::from_secs(30),
                            batch_size,
                        },
                    )
                    .unwrap();
                    let all_ok = std::thread::scope(|s| {
                        let clients: Vec<_> = (0..CLIENTS)
                            .map(|c| {
                                let (runtime, templates) = (&runtime, &templates);
                                s.spawn(move || {
                                    (0..PER_CLIENT).all(|i| {
                                        let request = &templates[(c + i) % templates.len()];
                                        runtime.retrieve_blocking(request).is_ok()
                                    })
                                })
                            })
                            .collect();
                        clients.into_iter().all(|c| c.join().unwrap())
                    });
                    let stats = runtime.stats();
                    let case = format!("workers={workers} batch_size={batch_size}");
                    assert!(all_ok, "{case}: a request failed");
                    assert_eq!(stats.admitted, (CLIENTS * PER_CLIENT) as u64, "{case}");
                    assert_eq!(stats.completed, stats.admitted, "{case}");
                }
            }
        });
    }
}
