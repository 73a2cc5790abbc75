//! Serialising a live deployment into the on-disk format.
//!
//! The writer persists a [`ShardedDeltaBuilder`]'s full serving state:
//! manifest first, then the deployment's one key side — the six key point
//! sets and the four key-side indices, which every shard serves over —
//! then each shard's ad slices and ad-side indices in shard order.
//! Adless shards are written too, with empty ad indices: the key side
//! they share is what lets a later delta repopulate them after a
//! restart.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use amcad_mnn::{fork_join, InvertedIndex};

use crate::delta::ShardedDeltaBuilder;
use crate::error::RetrievalError;

use super::format::{
    encode_index, encode_point_set, envelope_head, fnv1a64, Encoder, MAGIC_SNAPSHOT,
};
use super::manifest::SnapshotManifest;

/// The payload of a deployment snapshot at `generation`, unsealed.
fn snapshot_payload(builder: &ShardedDeltaBuilder, generation: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    SnapshotManifest::for_builder(builder, generation).encode(&mut enc);
    let keys = builder.keys();
    for (_, set) in keys.point_sets() {
        let members = set.ids().iter().copied().zip(0..set.len());
        encode_point_set(&mut enc, set.blocks(), members);
    }
    let indexes = &keys.indexes;
    for index in [&indexes.q2q, &indexes.q2i, &indexes.i2q, &indexes.i2i] {
        encode_index(&mut enc, index);
    }
    // per-shard state in shard order: the ad slices (live, in corpus
    // order) and their indices
    let adless = InvertedIndex::default();
    for slot in builder.slots() {
        for layout in [&slot.layouts.0, &slot.layouts.1] {
            encode_point_set(&mut enc, layout.blocks(), layout.corpus_order());
        }
        let indexes = slot.indexes();
        encode_index(&mut enc, indexes.map_or(&adless, |x| &x.q2a));
        encode_index(&mut enc, indexes.map_or(&adless, |x| &x.i2a));
    }
    enc.into_bytes()
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
    let payload = snapshot_payload(builder, generation);
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
pub(crate) fn snapshot_bytes(builder: &ShardedDeltaBuilder, generation: u64) -> Vec<u8> {
    super::format::seal(MAGIC_SNAPSHOT, snapshot_payload(builder, generation))
}
