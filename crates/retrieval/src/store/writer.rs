//! Serialising a live deployment into the on-disk format.
//!
//! The writer persists a [`ShardedDeltaBuilder`]'s full serving state:
//! manifest first, then the six Arc-shared key-side point sets and the
//! four key-side indices **once per deployment** (every shard's copies
//! are pointer-identical, so writing them per shard would multiply the
//! file by the shard count for identical bytes), then each shard's ad
//! slices and ad-side indices in shard order. Adless shards are written
//! too — their key indices are what lets a later delta repopulate them
//! after a restart.

use std::path::Path;

use crate::delta::ShardedDeltaBuilder;
use crate::error::RetrievalError;

use super::format::{encode_index, encode_point_set, seal, Encoder, MAGIC_SNAPSHOT};
use super::manifest::SnapshotManifest;

/// The sealed bytes of a deployment snapshot at `generation`.
pub(crate) fn snapshot_bytes(
    builder: &ShardedDeltaBuilder,
    generation: u64,
) -> Result<Vec<u8>, RetrievalError> {
    let manifest = SnapshotManifest::for_builder(builder, generation);
    let parts = builder.slot_parts();
    let mut enc = Encoder::new();
    manifest.encode(&mut enc);
    // key-side state once per deployment: every shard shares shard 0's
    // Arc'd key sets and key indices
    let Some((inputs, indexes)) = parts.first() else {
        return Err(RetrievalError::SnapshotCorrupt {
            detail: "deployment has zero shards, nothing to snapshot".to_string(),
        });
    };
    debug_assert!(
        parts
            .iter()
            .all(|(i, x)| i.shares_key_side_with(inputs) && x.shares_key_side_with(indexes)),
        "a shard holds its own copy of the key side: persisting shard 0's would lose it"
    );
    encode_point_set(&mut enc, &inputs.queries_qq);
    encode_point_set(&mut enc, &inputs.queries_qi);
    encode_point_set(&mut enc, &inputs.items_qi);
    encode_point_set(&mut enc, &inputs.queries_qa);
    encode_point_set(&mut enc, &inputs.items_ii);
    encode_point_set(&mut enc, &inputs.items_ia);
    encode_index(&mut enc, &indexes.q2q);
    encode_index(&mut enc, &indexes.q2i);
    encode_index(&mut enc, &indexes.i2q);
    encode_index(&mut enc, &indexes.i2i);
    // per-shard state in shard order: the ad slices and their indices
    for (inputs, indexes) in &parts {
        encode_point_set(&mut enc, &inputs.ads_qa);
        encode_point_set(&mut enc, &inputs.ads_ia);
        encode_index(&mut enc, &indexes.q2a);
        encode_index(&mut enc, &indexes.i2a);
    }
    Ok(seal(MAGIC_SNAPSHOT, enc.into_bytes()))
}

/// Write a deployment snapshot of `builder` at `generation` to `path`.
pub(crate) fn write_snapshot(
    path: &Path,
    builder: &ShardedDeltaBuilder,
    generation: u64,
) -> Result<(), RetrievalError> {
    std::fs::write(path, snapshot_bytes(builder, generation)?).map_err(|e| {
        RetrievalError::SnapshotCorrupt {
            detail: format!("cannot write {}: {e}", path.display()),
        }
    })
}
