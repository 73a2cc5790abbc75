//! Durable snapshot store: versioned on-disk persistence of the full
//! serving state, with generation-aware warm restart and delta catch-up.
//!
//! Everything the cluster serves is otherwise process-lifetime: a
//! restart at production corpus sizes means re-running the full
//! O(keys × ads) index build, which defeats the zero-downtime publish
//! machinery. This module makes restarts I/O-bound instead of
//! rebuild-bound:
//!
//! * [`format`](self) — a versioned, checksummed, little-endian binary
//!   envelope with hand-rolled encode/decode. `f64`s are stored as
//!   bit patterns, so distances reproduce bit-for-bit.
//! * [`SnapshotManifest`] — generation metadata plus the sharded
//!   deployment's shape, readable without decoding the index payload.
//! * writer/reader — persist a [`crate::ShardedDeltaBuilder`]'s full
//!   state: its one key side (the key point sets and key-side indices,
//!   written once as the builder holds them once), each shard's ad
//!   slices and ad-side indices, and the topology + backend + retrieval
//!   configuration.
//!
//! ## Lifecycle: save → restart → catch up
//!
//! ```no_run
//! use amcad_retrieval::{EngineHandle, ShardedDeltaBuilder, ShardedEngine};
//! # fn deltas_since(g: u64) -> Vec<amcad_retrieval::IndexDelta> { vec![] }
//! # let inputs = unimplemented!();
//! let mut builder = ShardedDeltaBuilder::new(&inputs, ShardedEngine::builder().shards(4))?;
//! let handle = EngineHandle::new(builder.engine()?);
//! // ... serve, publish deltas ... then persist the current generation:
//! let generation = handle.save_snapshot(&builder, "/var/amcad/serving.snap")?;
//!
//! // after a crash or planned restart — no index rebuild:
//! let (handle, mut builder) = EngineHandle::load("/var/amcad/serving.snap")?;
//! assert_eq!(handle.generation(), generation);
//! for delta in deltas_since(generation) {
//!     handle.publish_delta(&mut builder, &delta)?; // catch up
//! }
//! # Ok::<(), amcad_retrieval::RetrievalError>(())
//! ```
//!
//! The restarted process is **byte-identical** to one that never
//! restarted: rankings, logical stats and generation numbers alike,
//! property-tested across all four ANN backends and shard counts
//! 1 / 2 / 4 in this module's test suite. Corrupt files — truncated,
//! bit-flipped, wrong magic — surface as the typed
//! [`crate::RetrievalError::SnapshotCorrupt`] /
//! [`crate::RetrievalError::SnapshotVersion`] errors, never as panics.

mod format;
mod manifest;
mod reader;
mod writer;

pub use format::FORMAT_VERSION;
pub use manifest::SnapshotManifest;

pub(crate) use reader::read_snapshot;
#[cfg(test)]
pub(crate) use writer::snapshot_bytes;
pub(crate) use writer::write_snapshot;

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use amcad_mnn::{HnswConfig, IndexBackend, InvertedIndex, IvfConfig, QuantConfig};

    use super::*;
    use crate::delta::{KeySide, Slot};
    use crate::engine::{Request, RetrievalResponse};
    use crate::error::RetrievalError;
    use crate::test_fixtures::{
        assert_one_key_side, random_points, shard_slice, tiny_inputs,
        tiny_inputs_leaving_shard_adless,
    };
    use crate::{EngineHandle, IndexDelta, IndexSet, Retrieve, ShardedDeltaBuilder, ShardedEngine};

    /// A scratch file that cleans up after itself (no tempfile crate).
    struct TmpFile(PathBuf);

    impl TmpFile {
        fn new(name: &str) -> Self {
            TmpFile(
                std::env::temp_dir()
                    .join(format!("amcad-store-{}-{name}.snap", std::process::id())),
            )
        }

        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TmpFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// All four backends, deliberately *not* at their exact-equivalent
    /// saturation points: restart parity must hold for genuinely
    /// approximate configurations too, because the restarted process
    /// re-runs the same deterministic computation on the same state.
    fn backends() -> [IndexBackend; 4] {
        [
            IndexBackend::Exact,
            IndexBackend::Ivf(IvfConfig {
                num_clusters: 4,
                kmeans_iters: 3,
                nprobe: 2,
                seed: 7,
            }),
            IndexBackend::Hnsw(HnswConfig {
                m: 4,
                ef_construction: 12,
                ef_search: 8,
                seed: 3,
            }),
            IndexBackend::Quant(QuantConfig {
                ksub: 8,
                train_iters: 4,
                rerank_k: 10,
                seed: 5,
            }),
        ]
    }

    fn make_delta(ids: std::ops::Range<u32>, seed: u64, retired: Vec<u32>) -> IndexDelta {
        IndexDelta {
            added_ads_qa: random_points(ids.clone(), seed),
            added_ads_ia: random_points(ids, seed + 1),
            retired_ads: retired,
        }
    }

    fn requests() -> Vec<Request> {
        (0..10u32)
            .map(|q| Request {
                query: q,
                preclick_items: vec![100 + q, 110 + q],
            })
            .collect()
    }

    fn serve_all(engine: &dyn Retrieve) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        requests().iter().map(|r| engine.retrieve(r)).collect()
    }

    /// The acceptance-criterion property: a sharded deployment saved to
    /// disk, reloaded in fresh process state, and caught up via the
    /// deltas published after the snapshot serves **byte-identically**
    /// to the never-restarted deployment — rankings, full stats and
    /// generation numbers — across all four backends and shard counts
    /// 1 / 2 / 4.
    #[test]
    fn warm_restart_plus_delta_catch_up_is_byte_identical_to_never_restarting() {
        for backend in backends() {
            for shards in [1usize, 2, 4] {
                let file = TmpFile::new(&format!("restart-{}-{shards}", backend.label()));
                let topology = ShardedEngine::builder()
                    .shards(shards)
                    .top_k(6)
                    .threads(1)
                    .build_threads(1)
                    .backend(backend);
                let mut live = ShardedDeltaBuilder::new(&tiny_inputs(), topology).unwrap();
                let handle = EngineHandle::new(live.engine().unwrap());
                // generations 2 and 3: corpus churn before the snapshot
                handle
                    .publish_delta(&mut live, &make_delta(300..305, 11, vec![200, 207]))
                    .unwrap();
                handle
                    .publish_delta(&mut live, &make_delta(310..313, 21, vec![301, 215]))
                    .unwrap();
                let saved = handle.save_snapshot(&live, file.path()).unwrap();
                assert_eq!(saved, 3, "snapshot records the current generation");
                // generations 4 and 5: the deltas a restarted process
                // must catch up on (one exercises the retire backfill)
                let catch_up = [
                    make_delta(320..326, 31, vec![304, 210]),
                    make_delta(330..332, 41, vec![320, 202, 219]),
                ];
                for delta in &catch_up {
                    handle.publish_delta(&mut live, delta).unwrap();
                }
                // the restarted process: fresh state from disk + replay
                let (restarted, mut rebuilt) = EngineHandle::load(file.path()).unwrap();
                assert_eq!(
                    restarted.generation(),
                    saved,
                    "the restored handle resumes at the snapshot generation"
                );
                for delta in &catch_up {
                    restarted.publish_delta(&mut rebuilt, delta).unwrap();
                }
                assert_eq!(restarted.generation(), handle.generation());
                assert_eq!(
                    serve_all(&restarted),
                    serve_all(&handle),
                    "{} backend, {shards} shards: restart diverged",
                    backend.label()
                );
                // and the rebuilt builder keeps tracking: one more delta
                // applied to both sides stays identical
                let more = make_delta(340..343, 51, vec![330]);
                handle.publish_delta(&mut live, &more).unwrap();
                restarted.publish_delta(&mut rebuilt, &more).unwrap();
                assert_eq!(serve_all(&restarted), serve_all(&handle));
            }
        }
    }

    /// Crash-recovery flavour: snapshot at generation G, lose the
    /// process, reload, apply deltas G+1..G+k — the recovered engine
    /// serves exactly what a process that never crashed would, and a
    /// cold [`EngineHandle::load`] start (no delta replayed) matches the
    /// snapshot-time engine, topology included.
    #[test]
    fn cold_start_from_snapshot_serves_the_snapshot_generation_exactly() {
        let file = TmpFile::new("cold-start");
        let topology = ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .top_k(8)
            .threads(1)
            .build_threads(1);
        let mut live = ShardedDeltaBuilder::new(&tiny_inputs(), topology).unwrap();
        let handle = EngineHandle::new(live.engine().unwrap());
        handle
            .publish_delta(&mut live, &make_delta(400..404, 9, vec![211]))
            .unwrap();
        let before = serve_all(&handle);
        handle.save_snapshot(&live, file.path()).unwrap();
        let (cold, reloaded) = EngineHandle::load(file.path()).unwrap();
        assert_eq!(reloaded.topology().shards, 2);
        assert_eq!(reloaded.topology().replicas, 2);
        assert_eq!(serve_all(&cold), before);
    }

    /// Save → load → save is byte-identical: a reloaded builder re-seals
    /// to the very bytes on disk, topology included — the inert
    /// `fanout_threads` value too, which is why the v1 manifest still
    /// carries it.
    #[test]
    fn save_load_save_round_trips_the_snapshot_bytes_exactly() {
        let file = TmpFile::new("resave");
        let topology = ShardedEngine::builder()
            .shards(4)
            .replicas(3)
            .top_k(6)
            .threads(1)
            .build_threads(2)
            .fanout_threads(3);
        let mut live = ShardedDeltaBuilder::new(&tiny_inputs(), topology).unwrap();
        let handle = EngineHandle::new(live.engine().unwrap());
        handle
            .publish_delta(&mut live, &make_delta(600..604, 13, vec![205, 212]))
            .unwrap();
        let g = handle.save_snapshot(&live, file.path()).unwrap();
        let (_, reloaded) = EngineHandle::load(file.path()).unwrap();
        let resaved = writer::snapshot_bytes(&reloaded, g);
        assert!(
            resaved == writer::snapshot_bytes(&live, g),
            "the reloaded builder seals to different bytes"
        );
        assert!(
            resaved == std::fs::read(file.path()).unwrap(),
            "re-saving differs from the file it was loaded from"
        );
        assert_eq!(
            SnapshotManifest::read(file.path()).unwrap().fanout_threads,
            3
        );
    }

    /// The v1 bytes themselves, pinned across commits: a round trip
    /// cannot see a writer and a reader that change the format together.
    /// Three exact-backend deployments of the tiny world after one delta
    /// each — one shard, four shards, and four shards with shard 1 left
    /// adless — hash to constants computed on x86-64 Linux, the only
    /// platform CI runs (`ubuntu-latest`). The test is not gated by
    /// target: elsewhere the transcendentals that generate the points and
    /// distances could round differently and move the bytes with no format
    /// change. ROADMAP item 7's `FORMAT_VERSION` bump changes these bytes
    /// on purpose and re-pins the constants.
    #[test]
    fn v1_snapshot_bytes_are_pinned() {
        let cases = [
            ("1 shard", tiny_inputs(), 1, 1, 0x34cd_e208_0f8d_b0a4_u64),
            ("4 shards", tiny_inputs(), 4, 4, 0xee26_e9f4_004e_d7a0),
            (
                "4 shards, 1 adless",
                tiny_inputs_leaving_shard_adless(4, 1),
                4,
                3,
                0x09bf_2d8f_e43a_745d,
            ),
        ];
        for (name, inputs, shards, active, pinned) in cases {
            let topology = ShardedEngine::builder()
                .shards(shards)
                .top_k(6)
                .threads(1)
                .backend(IndexBackend::Exact);
            let mut live = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
            live.apply(&make_delta(604..610, 13, vec![205, 212]))
                .unwrap();
            assert_eq!(live.engine().unwrap().active_shards(), active, "{name}");
            let bytes = writer::snapshot_bytes(&live, 2);
            assert_eq!(
                format::fnv1a64(&bytes),
                pinned,
                "{name}: the v1 bytes moved"
            );
        }
    }

    /// A save that dies mid-write leaves at most a torn temp file beside
    /// the snapshot: loading still returns the last good generation, and
    /// the next save replaces the snapshot and leaves no temp file.
    #[test]
    fn a_torn_temp_file_beside_a_good_snapshot_changes_nothing() {
        let file = TmpFile::new("torn");
        let tmp = writer::temp_path(file.path());
        let topology = ShardedEngine::builder()
            .shards(2)
            .top_k(6)
            .threads(1)
            .build_threads(1);
        let mut live = ShardedDeltaBuilder::new(&tiny_inputs(), topology).unwrap();
        let handle = EngineHandle::new(live.engine().unwrap());
        let saved = handle.save_snapshot(&live, file.path()).unwrap();
        assert!(!tmp.exists(), "a finished save leaves no temp file");
        let good = std::fs::read(file.path()).unwrap();
        let (before, _) = EngineHandle::load(file.path()).unwrap();
        let served = serve_all(&before);

        handle
            .publish_delta(&mut live, &make_delta(500..504, 17, vec![203]))
            .unwrap();
        let next = writer::snapshot_bytes(&live, handle.generation());
        for torn_at in [0, next.len() / 2, next.len() - 1] {
            std::fs::write(&tmp, &next[..torn_at]).unwrap();
            let (after, _) = EngineHandle::load(file.path()).unwrap();
            assert_eq!(after.generation(), saved, "torn at byte {torn_at}");
            assert_eq!(serve_all(&after), served, "torn at byte {torn_at}");
            assert!(std::fs::read(file.path()).unwrap() == good);
        }

        let resaved = handle.save_snapshot(&live, file.path()).unwrap();
        assert_eq!(resaved, saved + 1);
        assert!(!tmp.exists(), "the save replaced the torn temp file");
        let (reloaded, _) = EngineHandle::load(file.path()).unwrap();
        assert_eq!(reloaded.generation(), resaved);
        assert_eq!(serve_all(&reloaded), serve_all(&handle));
    }

    /// One copy of the key side per deployment, before and after a
    /// restart: a cold build serves every shard over the deployment's one
    /// key side, the writer persists that one copy, and the reader
    /// re-establishes the sharing — which a delta applied after the
    /// reload keeps, the adless shard it populates included.
    #[test]
    fn reload_shares_key_side_state_across_shards_instead_of_duplicating_it() {
        let file = TmpFile::new("arc-sharing");
        // shard 3 starts adless; ads 303 and 304 hash to it
        let mut live = ShardedDeltaBuilder::new(
            &tiny_inputs_leaving_shard_adless(4, 3),
            ShardedEngine::builder().shards(4).top_k(6).threads(1),
        )
        .unwrap();
        assert!(live.slots()[3].indexes().is_none());
        assert_one_key_side(&live, "cold build");
        let handle = EngineHandle::new(live.engine().unwrap());
        // ad 200 lives on shard 1: a delta confined to one shard
        let retire = IndexDelta::retire_only(&tiny_inputs(), vec![200]);
        handle.publish_delta(&mut live, &retire).unwrap();
        assert_one_key_side(&live, "after a one-shard delta");
        handle.save_snapshot(&live, file.path()).unwrap();
        let (restarted, mut rebuilt) = EngineHandle::load(file.path()).unwrap();
        assert_eq!(rebuilt.slots().len(), 4, "one slot per shard");
        assert_one_key_side(&rebuilt, "after the reload");
        restarted
            .publish_delta(&mut rebuilt, &make_delta(303..305, 9, Vec::new()))
            .unwrap();
        let populated = rebuilt.slots()[3].indexes();
        assert!(populated.is_some_and(|indexes| !indexes.q2a.is_empty()));
        assert_one_key_side(&rebuilt, "after populating the adless shard");
    }

    /// What keeps `snapshot_mb` exact: a cold-built deployment — key side
    /// built once, every index its own pool task — seals to the very bytes
    /// of a deployment assembled from independent full builds of every
    /// shard (whose key sides agree bit for bit, see the cold-build parity
    /// test in `delta.rs`; shard 0's is the one the reference keeps).
    #[test]
    fn cold_build_snapshot_bytes_equal_those_of_independent_per_shard_full_builds() {
        for inputs in [tiny_inputs(), tiny_inputs_leaving_shard_adless(4, 3)] {
            for backend in backends() {
                for shards in [1usize, 2, 4] {
                    let topology = ShardedEngine::builder()
                        .shards(shards)
                        .top_k(6)
                        .threads(1)
                        .build_threads(4)
                        .backend(backend);
                    let cold = ShardedDeltaBuilder::new(&inputs, topology.clone()).unwrap();
                    let fulls: Vec<_> = (0..shards)
                        .map(|s| {
                            let own = shard_slice(&inputs, shards, s);
                            let full = IndexSet::build(&own, topology.index).unwrap();
                            (own, full)
                        })
                        .collect();
                    // shard 0's full build supplies the key-side indices
                    let no_ads = InvertedIndex::default;
                    let keys = KeySide {
                        queries_qq: Arc::clone(&inputs.queries_qq),
                        queries_qi: Arc::clone(&inputs.queries_qi),
                        items_qi: Arc::clone(&inputs.items_qi),
                        queries_qa: Arc::clone(&inputs.queries_qa),
                        items_ii: Arc::clone(&inputs.items_ii),
                        items_ia: Arc::clone(&inputs.items_ia),
                        indexes: fulls[0].1.with_ad_side(no_ads(), no_ads()),
                    };
                    let slots = fulls
                        .into_iter()
                        .map(|(own, full)| {
                            let (ads, ad_side) =
                                ((own.ads_qa, own.ads_ia), ((full.q2a, full.i2a), None));
                            Slot::new(ads, ad_side, &keys, &topology).unwrap()
                        })
                        .collect();
                    let reference = ShardedDeltaBuilder::assemble(topology, keys, slots).unwrap();
                    assert!(
                        writer::snapshot_bytes(&cold, 1) == writer::snapshot_bytes(&reference, 1),
                        "{} backend, {shards} shards: snapshot bytes differ",
                        backend.label()
                    );
                }
            }
        }
    }

    #[test]
    fn the_manifest_describes_the_deployment_without_decoding_indices() {
        let file = TmpFile::new("manifest");
        let mut live = ShardedDeltaBuilder::new(
            &tiny_inputs(),
            ShardedEngine::builder()
                .shards(4)
                .replicas(3)
                .top_k(6)
                .threads(1),
        )
        .unwrap();
        let handle = EngineHandle::new(live.engine().unwrap());
        handle
            .publish_delta(&mut live, &make_delta(500..503, 5, vec![204]))
            .unwrap();
        handle.save_snapshot(&live, file.path()).unwrap();
        let manifest = SnapshotManifest::read(file.path()).unwrap();
        assert_eq!(manifest.format_version, FORMAT_VERSION);
        assert_eq!(manifest.generation, 2);
        assert_eq!(manifest.shards, 4);
        assert_eq!(manifest.replicas, 3);
        assert_eq!(manifest.backend(), "exact");
        assert_eq!(manifest.queries, 10);
        assert_eq!(manifest.items, 40);
        // 20 seed ads - 1 retired + 3 added, spread over the shards
        assert_eq!(manifest.ads_per_shard.iter().sum::<usize>(), 22);
        assert_eq!(manifest.ads_per_shard.len(), 4);
    }

    /// Decoder safety through the public entry points: truncated files,
    /// bit flips, foreign magic and foreign versions all surface as the
    /// typed snapshot errors — never as a panic.
    #[test]
    fn corrupt_snapshot_files_yield_typed_errors_never_panics() {
        let file = TmpFile::new("corrupt");
        let live = ShardedDeltaBuilder::new(
            &tiny_inputs(),
            ShardedEngine::builder().shards(2).top_k(6).threads(1),
        )
        .unwrap();
        let handle = EngineHandle::new(live.engine().unwrap());
        handle.save_snapshot(&live, file.path()).unwrap();
        let good = std::fs::read(file.path()).unwrap();

        let expect_corrupt = |bytes: &[u8], what: &str| {
            std::fs::write(file.path(), bytes).unwrap();
            for err in [
                EngineHandle::load(file.path()).unwrap_err(),
                SnapshotManifest::read(file.path()).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        RetrievalError::SnapshotCorrupt { .. }
                            | RetrievalError::SnapshotVersion { .. }
                    ),
                    "{what}: expected a typed snapshot error, got {err}"
                );
            }
        };

        // truncation at a spread of cut points, including mid-envelope
        for cut in [0, 7, 19, good.len() / 3, good.len() / 2, good.len() - 1] {
            expect_corrupt(&good[..cut], "truncated");
        }
        // single bit flips across the payload break the checksum
        for byte in [24, good.len() / 2, good.len() - 9] {
            let mut flipped = good.clone();
            flipped[byte] ^= 0x10;
            expect_corrupt(&flipped, "bit-flipped");
        }
        // wrong magic
        let mut foreign = good.clone();
        foreign[..8].copy_from_slice(b"NOTASNAP");
        expect_corrupt(&foreign, "wrong magic");
        // future format version (intact otherwise) is its own error
        let mut future = good.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(file.path(), &future).unwrap();
        assert_eq!(
            EngineHandle::load(file.path()).unwrap_err(),
            RetrievalError::SnapshotVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
        // a missing file is reported, not panicked on
        let gone = TmpFile::new("never-written");
        assert!(matches!(
            EngineHandle::load(gone.path()).unwrap_err(),
            RetrievalError::SnapshotCorrupt { .. }
        ));
        // and the intact bytes still load after all that abuse
        std::fs::write(file.path(), &good).unwrap();
        assert!(EngineHandle::load(file.path()).is_ok());
    }

    /// A shard whose two ad slices hold different ids cannot come from a
    /// save (every build and delta keeps them equal), so the reader refuses
    /// it as corrupt instead of restoring an ad that could never retire.
    #[test]
    fn a_shard_whose_ad_slices_hold_different_ids_is_a_corrupt_snapshot() {
        let live = ShardedDeltaBuilder::new(
            &tiny_inputs(),
            ShardedEngine::builder().shards(2).top_k(6).threads(1),
        )
        .unwrap();
        let mut slots = live.slots().to_vec();
        let ads_ia = &mut slots[1].layouts.1;
        let dropped = ads_ia.corpus_order()[0].0;
        ads_ia.retire(|id| id == dropped);
        let skewed =
            ShardedDeltaBuilder::assemble(live.topology().clone(), live.keys().clone(), slots)
                .unwrap();
        match reader::decode_snapshot(&writer::snapshot_bytes(&skewed, 1)) {
            Err(RetrievalError::SnapshotCorrupt { detail }) => assert!(
                detail.contains("shard 1's ads_qa and ads_ia hold different ad ids"),
                "rejected for another reason: {detail}"
            ),
            other => panic!("expected SnapshotCorrupt, got {:?}", other.map(|(g, _)| g)),
        }
        assert!(reader::decode_snapshot(&writer::snapshot_bytes(&live, 1)).is_ok());
    }

    /// Exhaustive single-byte damage to a 2-shard snapshot of the tiny
    /// world. Flipped in place, every byte breaks the envelope — magic,
    /// version, declared length or checksum — so the load is a typed
    /// error. Each payload byte flipped and resealed with a valid
    /// checksum gets past the envelope to the decoder proper, which must
    /// return a typed snapshot error or a deployment, and never panic.
    #[test]
    fn every_single_byte_mutation_is_a_typed_error_or_a_clean_decode() {
        let live = ShardedDeltaBuilder::new(
            &tiny_inputs(),
            ShardedEngine::builder().shards(2).top_k(6).threads(1),
        )
        .unwrap();
        let good = writer::snapshot_bytes(&live, 1);
        let typed = |err: &RetrievalError| {
            matches!(
                err,
                RetrievalError::SnapshotCorrupt { .. } | RetrievalError::SnapshotVersion { .. }
            )
        };

        let mut bytes = good.clone();
        for at in 0..bytes.len() {
            bytes[at] ^= 0xFF;
            match reader::decode_snapshot(&bytes) {
                Err(err) if typed(&err) => {}
                Err(err) => panic!("byte {at} flipped: untyped error {err}"),
                Ok(_) => panic!("byte {at} flipped: the envelope let it through"),
            }
            bytes[at] ^= 0xFF;
        }

        // the resealed decodes dominate the run time (a debug build spends
        // about a millisecond and a half on each), so they fan out
        let payload = &good[20..good.len() - 8];
        let outcomes = amcad_mnn::fork_join(4, payload.len(), |at| {
            let mut damaged = payload.to_vec();
            damaged[at] ^= 0xFF;
            let sealed = format::seal(format::MAGIC_SNAPSHOT, damaged);
            std::panic::catch_unwind(|| reader::decode_snapshot(&sealed).map(|(g, _)| g))
                .map_err(|_| at)
        });
        let (mut decoded, mut rejected, mut panicked) = (0usize, 0usize, Vec::new());
        for (at, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Ok(_)) => decoded += 1,
                Ok(Err(err)) if typed(&err) => rejected += 1,
                Ok(Err(err)) => panic!("payload byte {at} resealed: untyped error {err}"),
                Err(at) => panicked.push(at),
            }
        }
        assert!(
            panicked.is_empty(),
            "the decoder panicked on resealed payload bytes {panicked:?}"
        );
        // both outcomes occur: a flipped coordinate decodes, a flipped
        // count or tag does not
        assert!(
            decoded > 0 && rejected > 0,
            "{decoded} decoded, {rejected} rejected"
        );
    }
}
