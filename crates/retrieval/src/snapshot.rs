//! Zero-downtime index updates: [`EngineHandle`] and [`EngineSnapshot`].
//!
//! The paper retrains incrementally every day and refreshes the serving
//! indices without taking traffic down (Section V-C). The serving-side
//! primitive that makes that safe is the *snapshot swap*: the live engine
//! sits behind an atomically replaceable [`Arc`], worker threads pin the
//! current snapshot for the duration of a request (or a batch), and a
//! rebuild publishes a new snapshot with one pointer swap. In-flight
//! requests keep the generation they pinned — no locks are held while
//! serving, no request ever observes a half-replaced index, and the old
//! generation is freed exactly when its last in-flight request finishes.
//!
//! ```no_run
//! use amcad_retrieval::{EngineHandle, Retrieve, Request};
//! # fn rebuild() -> amcad_retrieval::RetrievalEngine { unimplemented!() }
//!
//! let handle = EngineHandle::new(rebuild());
//! // worker threads: pin a snapshot per request
//! let snapshot = handle.snapshot();
//! let response = snapshot.retrieve(&Request { query: 7, preclick_items: vec![] })?;
//! println!("served by generation {}", snapshot.generation());
//! // control plane: swap in tonight's rebuild — zero downtime
//! let generation = handle.publish(rebuild());
//! assert_eq!(handle.generation(), generation);
//! # Ok::<(), amcad_retrieval::RetrievalError>(())
//! ```
//!
//! Any [`Retrieve`] implementation can sit behind a handle — a single
//! [`crate::RetrievalEngine`], a [`crate::ShardedEngine`], even another
//! handle (though one level is all a deployment needs).

use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::delta::{IndexDelta, ShardedDeltaBuilder};
use crate::engine::{Request, RetrievalResponse, Retrieve};
use crate::error::RetrievalError;

/// One immutable published generation of the serving engine. Cheap to
/// clone (an [`Arc`] bump), safe to serve from concurrently, and
/// permanently attributable: every response obtained through a snapshot
/// came from exactly this generation's indices.
pub struct EngineSnapshot {
    engine: Arc<dyn Retrieve>,
    generation: u64,
}

impl EngineSnapshot {
    /// The publish counter this snapshot was installed at (the initial
    /// engine is generation 1).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine behind this snapshot.
    pub fn engine(&self) -> &dyn Retrieve {
        self.engine.as_ref()
    }
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl Retrieve for EngineSnapshot {
    fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        self.engine.retrieve(request)
    }

    fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        self.engine.retrieve_batch(requests)
    }
}

/// The hot-swappable serving entry point: holds the current
/// [`EngineSnapshot`] behind a reader-writer lock that is only ever held
/// long enough to clone or replace an [`Arc`] — never while serving.
///
/// Workers either call [`EngineHandle::retrieve`] directly (each request
/// pins the then-current snapshot) or call [`EngineHandle::snapshot`] to
/// pin one generation across several requests. [`EngineHandle::publish`]
/// installs a new engine build with a single pointer swap; concurrent
/// retrievals are never blocked behind index construction because the
/// build happens entirely before `publish` is called.
pub struct EngineHandle {
    current: RwLock<Arc<EngineSnapshot>>,
}

impl EngineHandle {
    /// Create a handle serving `engine` as generation 1.
    pub fn new(engine: impl Retrieve + 'static) -> Self {
        Self::from_arc(Arc::new(engine))
    }

    /// Create a handle around an already-shared engine (generation 1).
    pub fn from_arc(engine: Arc<dyn Retrieve>) -> Self {
        Self::from_arc_at(engine, 1)
    }

    /// Create a handle serving `engine` at an explicit generation — the
    /// warm-restart constructor: a handle restored from a snapshot taken
    /// at generation G resumes counting publishes from G, so the
    /// generation sequence after a restart is indistinguishable from the
    /// never-restarted process.
    pub(crate) fn from_arc_at(engine: Arc<dyn Retrieve>, generation: u64) -> Self {
        EngineHandle {
            current: RwLock::new(Arc::new(EngineSnapshot { engine, generation })),
        }
    }

    /// Persist the deployment `builder` maintains — and this handle
    /// serves — to `path` as a durable snapshot stamped with the current
    /// generation (returned on success). The snapshot captures the full
    /// serving state (see [`crate::store`]); pair with
    /// [`EngineHandle::load`] for the warm restart, replaying any
    /// [`IndexDelta`]s newer than the returned generation through
    /// [`EngineHandle::publish_delta`] to catch up.
    ///
    /// The caller is responsible for `builder` being the one whose
    /// generations this handle publishes — the snapshot pairs the
    /// builder's state with this handle's generation counter.
    pub fn save_snapshot(
        &self,
        builder: &ShardedDeltaBuilder,
        path: impl AsRef<Path>,
    ) -> Result<u64, RetrievalError> {
        let generation = self.generation();
        crate::store::write_snapshot(path.as_ref(), builder, generation)?;
        Ok(generation)
    }

    /// Warm-restart a deployment from a snapshot written by
    /// [`EngineHandle::save_snapshot`]: reconstruct the
    /// [`ShardedDeltaBuilder`] (no index rebuild — the decoded indices
    /// are served as-is) and a handle already at the snapshot's
    /// generation. Applying the deltas published after the snapshot, in
    /// order, through [`EngineHandle::publish_delta`] yields a process
    /// byte-identical to one that never restarted — rankings, logical
    /// stats and generation numbers alike (property-tested in
    /// [`crate::store`]).
    pub fn load(
        path: impl AsRef<Path>,
    ) -> Result<(EngineHandle, ShardedDeltaBuilder), RetrievalError> {
        let (generation, builder) = crate::store::read_snapshot(path.as_ref())?;
        let engine = builder.engine()?;
        Ok((
            EngineHandle::from_arc_at(Arc::new(engine), generation),
            builder,
        ))
    }

    /// Pin the current snapshot. The returned [`Arc`] keeps that
    /// generation alive (and attributable) for as long as the caller
    /// holds it, regardless of how many publishes happen meanwhile.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.read())
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Atomically replace the serving engine with a freshly built one —
    /// the zero-downtime index update. Returns the new generation.
    /// In-flight requests finish on the snapshot they pinned; new
    /// requests observe the new generation immediately.
    pub fn publish(&self, engine: impl Retrieve + 'static) -> u64 {
        self.publish_arc(Arc::new(engine))
    }

    /// The incremental flavour of [`EngineHandle::publish`]: apply
    /// `delta` through `builder` — touched shards update their ad-side
    /// indices in place, untouched shards reuse their [`Arc`]'d index
    /// storage — and atomically publish the resulting generation. Returns
    /// the new generation on success; on `Err` (invalid delta, or a delta
    /// retiring the entire corpus) neither the builder nor the currently
    /// served generation changes, so readers are never exposed to a
    /// rejected delta. Like every publish, readers pin whole snapshots:
    /// a request observes either the pre-delta or the post-delta
    /// generation in full, never a torn mix.
    pub fn publish_delta(
        &self,
        builder: &mut ShardedDeltaBuilder,
        delta: &IndexDelta,
    ) -> Result<u64, RetrievalError> {
        Ok(self.publish(builder.apply(delta)?))
    }

    /// [`EngineHandle::publish`] for an already-shared engine.
    ///
    /// The retired snapshot is dropped after the write lock is released:
    /// when the handle held its last reference, freeing that generation's
    /// indices inside the critical section would stall every reader's
    /// [`EngineHandle::snapshot`] behind the free.
    pub fn publish_arc(&self, engine: Arc<dyn Retrieve>) -> u64 {
        let mut guard = self.current.write();
        let generation = guard.generation + 1;
        let retired =
            std::mem::replace(&mut *guard, Arc::new(EngineSnapshot { engine, generation }));
        drop(guard);
        drop(retired);
        generation
    }

    fn read(&self) -> parking_lot::RwLockReadGuard<'_, Arc<EngineSnapshot>> {
        self.current.read()
    }
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl Retrieve for EngineHandle {
    /// Serve through the currently published snapshot (pinned per call).
    fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        self.snapshot().retrieve(request)
    }

    /// A batch pins ONE snapshot for all its requests, so a publish
    /// landing mid-batch cannot produce a mixed-generation response set.
    fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        self.snapshot().retrieve_batch(requests)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test probes: readers and publishers race on threads of their own"
)]
mod tests {
    use super::*;
    use crate::engine::RetrievalEngine;
    use crate::test_fixtures::tiny_inputs;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, OnceLock, Weak};
    use std::time::Duration;

    fn engine(top_k: usize) -> RetrievalEngine {
        RetrievalEngine::builder()
            .top_k(top_k)
            .threads(1)
            .build(&tiny_inputs())
            .unwrap()
    }

    #[test]
    fn publish_bumps_the_generation_and_swaps_the_engine() {
        let handle = EngineHandle::new(engine(8));
        assert_eq!(handle.generation(), 1);
        let pinned = handle.snapshot();
        assert_eq!(handle.publish(engine(3)), 2);
        assert_eq!(handle.generation(), 2);
        // the pinned snapshot still serves generation 1
        assert_eq!(pinned.generation(), 1);
        let request = Request {
            query: 3,
            preclick_items: vec![101],
        };
        let old = pinned.retrieve(&request).unwrap();
        let new = handle.retrieve(&request).unwrap();
        // top_k 8 vs 3 produce different posting depths — outputs differ
        assert_ne!(old, new, "generations must actually differ for this test");
    }

    /// A retired generation is freed outside the handle's write lock: an
    /// engine whose `Drop` reads the handle — as any reader does while a
    /// big generation is being freed — sees the new generation instead
    /// of deadlocking on the lock its own publish still holds.
    #[test]
    fn a_retired_generation_is_freed_after_the_write_lock_is_released() {
        struct ReadsHandleOnDrop {
            engine: RetrievalEngine,
            handle: Arc<OnceLock<Weak<EngineHandle>>>,
            seen: mpsc::Sender<u64>,
        }
        impl Retrieve for ReadsHandleOnDrop {
            fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
                self.engine.retrieve(request)
            }
        }
        impl Drop for ReadsHandleOnDrop {
            fn drop(&mut self) {
                if let Some(handle) = self.handle.get().and_then(Weak::upgrade) {
                    // the receiver may have timed out and gone
                    let _ = self.seen.send(handle.generation());
                }
            }
        }
        let (seen, observed) = mpsc::channel();
        let publisher = std::thread::spawn(move || {
            let slot = Arc::new(OnceLock::new());
            let handle = Arc::new(EngineHandle::new(ReadsHandleOnDrop {
                engine: engine(8),
                handle: Arc::clone(&slot),
                seen,
            }));
            slot.set(Arc::downgrade(&handle)).unwrap();
            // the handle holds generation 1's last reference
            assert_eq!(handle.publish(engine(3)), 2);
        });
        let generation = observed
            .recv_timeout(Duration::from_secs(30))
            .expect("the retired engine's drop blocked on the handle's lock");
        assert_eq!(generation, 2);
        publisher
            .join()
            .expect("the publish returned the new generation");
    }

    #[test]
    fn handle_serves_any_retrieve_implementation() {
        let sharded = crate::ShardedEngine::builder()
            .shards(2)
            .top_k(8)
            .threads(1)
            .build(&tiny_inputs())
            .unwrap();
        let handle = EngineHandle::new(sharded);
        let response = handle
            .retrieve(&Request {
                query: 1,
                preclick_items: vec![120],
            })
            .unwrap();
        assert!(!response.ads.is_empty());
        let batch = handle.retrieve_batch(&[Request {
            query: 1,
            preclick_items: vec![120],
        }]);
        assert_eq!(batch[0].as_ref().unwrap(), &response);
    }

    #[test]
    fn publish_delta_bumps_the_generation_and_errors_leave_it_untouched() {
        use crate::delta::IndexDelta;
        use crate::test_fixtures::random_points;

        let inputs = tiny_inputs();
        let mut builder = crate::ShardedDeltaBuilder::new(
            &inputs,
            crate::ShardedEngine::builder()
                .shards(2)
                .top_k(8)
                .threads(1),
        )
        .unwrap();
        let handle = EngineHandle::new(builder.engine().unwrap());
        assert_eq!(handle.generation(), 1);
        let delta = IndexDelta {
            added_ads_qa: random_points(300..303, 1),
            added_ads_ia: random_points(300..303, 2),
            retired_ads: vec![200],
        };
        assert_eq!(handle.publish_delta(&mut builder, &delta).unwrap(), 2);
        assert_eq!(handle.generation(), 2);
        // a rejected delta bumps nothing and the handle keeps serving
        let bad = IndexDelta::retire_only(&inputs, vec![9999]);
        assert_eq!(
            handle.publish_delta(&mut builder, &bad).unwrap_err(),
            RetrievalError::UnknownAd { ad: 9999 }
        );
        assert_eq!(handle.generation(), 2);
        assert!(handle
            .retrieve(&Request {
                query: 3,
                preclick_items: vec![103],
            })
            .is_ok());
    }

    /// The delta flavour of the hot-swap acceptance test: worker threads
    /// retrieve concurrently while the control plane publishes delta
    /// after delta (retiring and re-adding one distinguishing ad). Every
    /// response must equal one generation's expected output in full — a
    /// torn delta (a request seeing the retired ad in one index but not
    /// the other, or a half-swapped shard) would match neither — and
    /// generations stay strictly sequential.
    #[test]
    fn concurrent_readers_never_observe_a_torn_delta() {
        use crate::delta::IndexDelta;

        let inputs = tiny_inputs();
        let topology = crate::ShardedEngine::builder()
            .shards(2)
            .top_k(8)
            .threads(1);
        let mut builder = crate::ShardedDeltaBuilder::new(&inputs, topology).unwrap();
        let request = Request {
            query: 3,
            preclick_items: vec![101, 115],
        };
        // the toggled ad: the top ad of the initial response, so its
        // retirement visibly changes the ranking
        let with_ad = builder.engine().unwrap().retrieve(&request).unwrap();
        let toggled = with_ad.ads[0].ad;
        let held_out_qa = inputs.ads_qa.filtered(|id| id == toggled);
        let held_out_ia = inputs.ads_ia.filtered(|id| id == toggled);
        let retire = IndexDelta::retire_only(&inputs, vec![toggled]);
        let re_add = IndexDelta {
            added_ads_qa: held_out_qa,
            added_ads_ia: held_out_ia,
            retired_ads: Vec::new(),
        };
        // delta exactness makes expected outputs reproducible: re-adding
        // the identical points restores the original response exactly
        let without_ad = {
            let mut probe = builder.clone();
            let engine = probe.apply(&retire).unwrap();
            engine.retrieve(&request).unwrap()
        };
        assert_ne!(with_ad, without_ad);
        assert_ne!(without_ad.ads[0].ad, toggled);

        let handle = EngineHandle::new(builder.engine().unwrap());
        let stop = AtomicBool::new(false);
        let served = AtomicU64::new(0);
        let publishes = 30u64;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = handle.snapshot();
                        let generation = snapshot.generation();
                        let response = snapshot
                            .retrieve(&request)
                            .expect("a delta publish must never surface an error");
                        // odd generations hold the ad, even ones do not;
                        // anything else is a torn delta
                        let expected = if generation % 2 == 1 {
                            &with_ad
                        } else {
                            &without_ad
                        };
                        assert_eq!(
                            &response, expected,
                            "generation {generation} served a torn or foreign response"
                        );
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..publishes {
                let delta = if i % 2 == 0 { &retire } else { &re_add };
                let generation = handle
                    .publish_delta(&mut builder, delta)
                    .expect("toggling one ad is always a valid delta");
                assert_eq!(generation, i + 2, "generations are strictly sequential");
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(handle.generation(), publishes + 1);
        assert!(
            served.load(Ordering::Relaxed) > 0,
            "workers must have served during the delta storm"
        );
    }

    /// The acceptance-criterion hot-swap test: worker threads retrieve
    /// concurrently while the control plane publishes snapshot after
    /// snapshot. No request may error, no torn read may surface (every
    /// response must equal one generation's expected output), and every
    /// response must be attributable to exactly one generation.
    #[test]
    fn concurrent_retrievals_observe_whole_generations_only() {
        let request = Request {
            query: 3,
            preclick_items: vec![101, 115],
        };
        // two engine builds with distinguishable outputs
        let (a, b) = (engine(8), engine(3));
        let expected_a = a.retrieve(&request).unwrap();
        let expected_b = b.retrieve(&request).unwrap();
        assert_ne!(expected_a, expected_b);

        let handle = EngineHandle::new(a);
        let stop = AtomicBool::new(false);
        let served = AtomicU64::new(0);
        let publishes = 40u64;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = handle.snapshot();
                        let generation = snapshot.generation();
                        let response = snapshot
                            .retrieve(&request)
                            .expect("hot swap must never surface an error");
                        // attribution: odd generations serve build A,
                        // even generations build B — a torn read would
                        // match neither expected output
                        let expected = if generation % 2 == 1 {
                            &expected_a
                        } else {
                            &expected_b
                        };
                        assert_eq!(
                            &response, expected,
                            "generation {generation} served a foreign response"
                        );
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..publishes {
                let next = if i % 2 == 0 { engine(3) } else { engine(8) };
                let generation = handle.publish(next);
                assert_eq!(generation, i + 2, "generations are strictly sequential");
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(handle.generation(), publishes + 1);
        assert!(
            served.load(Ordering::Relaxed) > 0,
            "workers must have served during the publish storm"
        );
    }
}
