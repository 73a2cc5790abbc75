//! Reconstructing a deployment from snapshot bytes.
//!
//! The reader is the warm-restart path: it decodes the key-side state
//! once, re-establishes the [`Arc`] sharing the writer collapsed (every
//! reconstructed shard's key sets and key indices point at the *same*
//! allocations, exactly as a cold [`ShardedDeltaBuilder::new`] shares
//! them), and hands the per-shard parts to
//! [`ShardedDeltaBuilder::from_slot_parts`] — which only re-wraps the
//! decoded indices in serving engines, skipping the O(keys × ads)
//! neighbour build entirely. That skip is what makes a restart I/O-bound
//! instead of rebuild-bound.

use std::path::Path;
use std::sync::Arc;

use amcad_mnn::InvertedIndex;

use crate::delta::ShardedDeltaBuilder;
use crate::error::RetrievalError;
use crate::index_set::{IndexBuildInputs, IndexSet};
use crate::shard::{ad_shard, ShardedEngineBuilder};

use super::format::{decode_index, decode_point_set, unseal, Decoder, MAGIC_SNAPSHOT};
use super::manifest::SnapshotManifest;

fn read_file(path: &Path) -> Result<Vec<u8>, RetrievalError> {
    std::fs::read(path).map_err(|e| RetrievalError::SnapshotCorrupt {
        detail: format!("cannot read {}: {e}", path.display()),
    })
}

/// Read a deployment snapshot: the generation it was taken at plus the
/// reconstructed [`ShardedDeltaBuilder`], ready to serve and to apply
/// newer deltas.
pub(crate) fn read_snapshot(path: &Path) -> Result<(u64, ShardedDeltaBuilder), RetrievalError> {
    decode_snapshot(&read_file(path)?)
}

/// Decode a full deployment snapshot from sealed bytes.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(u64, ShardedDeltaBuilder), RetrievalError> {
    let payload = unseal(MAGIC_SNAPSHOT, bytes)?;
    let mut dec = Decoder::new(payload);
    let manifest = SnapshotManifest::decode(&mut dec)?;
    // key-side state, decoded once and Arc-shared across every shard
    let queries_qq = Arc::new(decode_point_set(&mut dec)?);
    let queries_qi = Arc::new(decode_point_set(&mut dec)?);
    let items_qi = Arc::new(decode_point_set(&mut dec)?);
    let queries_qa = Arc::new(decode_point_set(&mut dec)?);
    let items_ii = Arc::new(decode_point_set(&mut dec)?);
    let items_ia = Arc::new(decode_point_set(&mut dec)?);
    let key_side = IndexSet {
        q2q: Arc::new(decode_index(&mut dec)?),
        q2i: Arc::new(decode_index(&mut dec)?),
        i2q: Arc::new(decode_index(&mut dec)?),
        i2i: Arc::new(decode_index(&mut dec)?),
        q2a: InvertedIndex::default(),
        i2a: InvertedIndex::default(),
    };
    let mut parts: Vec<(IndexBuildInputs, IndexSet)> = Vec::with_capacity(manifest.shards);
    for s in 0..manifest.shards {
        let ads_qa = decode_point_set(&mut dec)?;
        let ads_ia = decode_point_set(&mut dec)?;
        let q2a = decode_index(&mut dec)?;
        let i2a = decode_index(&mut dec)?;
        // placement integrity: every ad of this slice must hash to this
        // shard, or later deltas would route updates to the wrong slot
        for &ad in ads_qa.ids().iter().chain(ads_ia.ids()) {
            let home = ad_shard(ad, manifest.shards);
            if home != s {
                return Err(RetrievalError::SnapshotCorrupt {
                    detail: format!(
                        "ad {ad} is stored on shard {s} but hashes to shard {home} of {}",
                        manifest.shards
                    ),
                });
            }
        }
        let recorded = manifest.ads_per_shard.get(s).copied().ok_or_else(|| {
            RetrievalError::SnapshotCorrupt {
                detail: format!(
                    "manifest records {} per-shard ad counts but declares {} shards",
                    manifest.ads_per_shard.len(),
                    manifest.shards
                ),
            }
        })?;
        if ads_qa.len() != recorded {
            return Err(RetrievalError::SnapshotCorrupt {
                detail: format!(
                    "shard {s} holds {} ads but the manifest recorded {recorded}",
                    ads_qa.len(),
                ),
            });
        }
        let inputs = IndexBuildInputs {
            queries_qq: Arc::clone(&queries_qq),
            queries_qi: Arc::clone(&queries_qi),
            items_qi: Arc::clone(&items_qi),
            queries_qa: Arc::clone(&queries_qa),
            ads_qa,
            items_ii: Arc::clone(&items_ii),
            items_ia: Arc::clone(&items_ia),
            ads_ia,
        };
        parts.push((inputs, key_side.with_ad_side(q2a, i2a)));
    }
    dec.finish()?;
    let topology = ShardedEngineBuilder::default()
        .shards(manifest.shards)
        .replicas(manifest.replicas)
        .build_threads(manifest.build_threads)
        .fanout_threads(manifest.fanout_threads)
        .index(manifest.index)
        .retrieval(manifest.retrieval);
    // every field decoded, yet the parts may still not form a deployment
    // (a damaged id duplicates another, a config knob is out of range):
    // the file is corrupt, not the caller's build input
    let builder = ShardedDeltaBuilder::from_slot_parts(topology, parts).map_err(|e| {
        RetrievalError::SnapshotCorrupt {
            detail: format!("decoded parts do not form a deployment: {e}"),
        }
    })?;
    Ok((manifest.generation, builder))
}
