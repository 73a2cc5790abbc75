//! Reconstructing a deployment from snapshot bytes.
//!
//! The reader is the warm-restart path: it decodes the deployment's one
//! key side — the six key point sets and the four key-side indices —
//! then each shard's ad slices and ad-side indices, wraps every shard
//! that holds ads in a serving engine over that key side, and assembles
//! the [`ShardedDeltaBuilder`] — skipping the O(keys × ads) neighbour
//! build entirely. That skip is what makes a restart I/O-bound instead
//! of rebuild-bound.

use std::path::Path;
use std::sync::Arc;

use amcad_mnn::InvertedIndex;

use crate::delta::{KeySide, ShardedDeltaBuilder, Slot};
use crate::error::RetrievalError;
use crate::index_set::{reject_duplicate_ids, reject_foreign_manifolds, same_ids, IndexSet};
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
    let topology = ShardedEngineBuilder::default()
        .shards(manifest.shards)
        .replicas(manifest.replicas)
        .build_threads(manifest.build_threads)
        .fanout_threads(manifest.fanout_threads)
        .index(manifest.index)
        .retrieval(manifest.retrieval);
    // a field can decode and still not fit a deployment (a damaged id
    // duplicates another, a config knob is out of range): the file is
    // corrupt, not the caller's build input
    let corrupt = |e: RetrievalError| RetrievalError::SnapshotCorrupt {
        detail: format!("decoded parts do not form a deployment: {e}"),
    };
    topology.validate().map_err(corrupt)?;
    let keys = KeySide {
        queries_qq: Arc::new(decode_point_set(&mut dec)?),
        queries_qi: Arc::new(decode_point_set(&mut dec)?),
        items_qi: Arc::new(decode_point_set(&mut dec)?),
        queries_qa: Arc::new(decode_point_set(&mut dec)?),
        items_ii: Arc::new(decode_point_set(&mut dec)?),
        items_ia: Arc::new(decode_point_set(&mut dec)?),
        indexes: IndexSet {
            q2q: Arc::new(decode_index(&mut dec)?),
            q2i: Arc::new(decode_index(&mut dec)?),
            i2q: Arc::new(decode_index(&mut dec)?),
            i2i: Arc::new(decode_index(&mut dec)?),
            q2a: InvertedIndex::default(),
            i2a: InvertedIndex::default(),
        },
    };
    reject_duplicate_ids(keys.point_sets()).map_err(corrupt)?;
    reject_foreign_manifolds([(
        ("queries_qi", &*keys.queries_qi),
        ("items_qi", &*keys.items_qi),
    )])
    .map_err(corrupt)?;
    let mut slots = Vec::with_capacity(manifest.shards);
    for s in 0..manifest.shards {
        let ads = (decode_point_set(&mut dec)?, decode_point_set(&mut dec)?);
        let ad_side = (decode_index(&mut dec)?, decode_index(&mut dec)?);
        reject_duplicate_ids([("ads_qa", &ads.0), ("ads_ia", &ads.1)]).map_err(corrupt)?;
        reject_foreign_manifolds([
            (("queries_qa", &*keys.queries_qa), ("ads_qa", &ads.0)),
            (("items_ia", &*keys.items_ia), ("ads_ia", &ads.1)),
        ])
        .map_err(corrupt)?;
        if !same_ids(&ads.0, &ads.1) {
            return Err(RetrievalError::SnapshotCorrupt {
                detail: format!("shard {s}'s ads_qa and ads_ia hold different ad ids"),
            });
        }
        // placement integrity: every ad of this slice must hash to this
        // shard, or later deltas would route updates to the wrong slot
        for &ad in ads.0.ids().iter().chain(ads.1.ids()) {
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
        if ads.0.len() != recorded {
            return Err(RetrievalError::SnapshotCorrupt {
                detail: format!(
                    "shard {s} holds {} ads but the manifest recorded {recorded}",
                    ads.0.len(),
                ),
            });
        }
        // checked, the slices move into layouts its first delta lays out
        slots.push(Slot::new(ads, (ad_side, None), &keys, &topology).map_err(corrupt)?);
    }
    dec.finish()?;
    let builder = ShardedDeltaBuilder::assemble(topology, keys, slots).map_err(corrupt)?;
    Ok((manifest.generation, builder))
}
