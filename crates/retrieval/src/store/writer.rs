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

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use amcad_mnn::fork_join;

use crate::delta::ShardedDeltaBuilder;
use crate::error::RetrievalError;

use super::format::{
    encode_index, encode_point_set, envelope_head, fnv1a64, Encoder, MAGIC_SNAPSHOT,
};
use super::manifest::SnapshotManifest;

/// The payload of a deployment snapshot at `generation`, unsealed.
fn snapshot_payload(
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
    Ok(enc.into_bytes())
}

/// The sibling file a save writes before renaming it over `path`.
pub(super) fn temp_path(path: &Path) -> PathBuf {
    path.with_extension("snap.tmp")
}

/// Write a deployment snapshot of `builder` at `generation` to `path`: a
/// synced [`temp_path`] file renamed over it, then a directory sync, so a
/// crash leaves the old snapshot or the new one, never a torn file.
pub(crate) fn write_snapshot(
    path: &Path,
    builder: &ShardedDeltaBuilder,
    generation: u64,
) -> Result<(), RetrievalError> {
    let payload = snapshot_payload(builder, generation)?;
    let tmp = temp_path(path);
    let write = || -> std::io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(&envelope_head(MAGIC_SNAPSHOT, payload.len()))?;
        // the checksum is one serial pass over every byte: it runs while
        // the payload is written and synced
        let done = fork_join(2, 2, |job| match job {
            0 => Ok(fnv1a64(&payload)),
            _ => (&file)
                .write_all(&payload)
                .and_then(|()| file.sync_all())
                .map(|()| 0),
        });
        let done = done.into_iter().collect::<std::io::Result<Vec<u64>>>()?;
        let checksum = done.first().ok_or(std::io::ErrorKind::Other)?;
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        File::open(path.with_file_name("."))?.sync_all()
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        RetrievalError::SnapshotCorrupt {
            detail: format!("cannot write {}: {e}", path.display()),
        }
    })
}

/// The bytes [`write_snapshot`] puts on disk, in memory.
#[cfg(test)]
pub(crate) fn snapshot_bytes(
    builder: &ShardedDeltaBuilder,
    generation: u64,
) -> Result<Vec<u8>, RetrievalError> {
    Ok(super::format::seal(
        MAGIC_SNAPSHOT,
        snapshot_payload(builder, generation)?,
    ))
}
