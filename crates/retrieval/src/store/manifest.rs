//! The sharded-deployment manifest: the metadata section at the head of
//! every snapshot payload.
//!
//! The manifest is everything an operator (or an orchestrator deciding
//! whether a snapshot is worth warm-restarting from) needs to know
//! *without* decoding point sets and indices: the generation the
//! snapshot was taken at, the cluster topology it reconstructs, the
//! backend and retrieval configuration, and the corpus shape per shard.
//! [`SnapshotManifest::read`] verifies the full envelope (magic, version
//! and checksum over the entire payload), then decodes only this head
//! section.

use std::path::Path;

use crate::delta::ShardedDeltaBuilder;
use crate::error::RetrievalError;
use crate::index_set::IndexBuildConfig;
use crate::retriever::RetrievalConfig;

use super::format::{
    decode_index_build_config, decode_pool_width, decode_retrieval_config, decode_topology,
    encode_index_build_config, encode_retrieval_config, encode_topology, unseal, Decoder, Encoder,
    FORMAT_VERSION, MAGIC_SNAPSHOT,
};

/// Generation metadata and deployment shape of one snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotManifest {
    /// The format version the file was written with.
    pub format_version: u32,
    /// The serving generation the snapshot captured. Deltas newer than
    /// this are what a warm restart replays to catch up.
    pub generation: u64,
    /// Configured shard count (including shards that currently hold no
    /// ads — they are persisted too, so a later delta can repopulate
    /// them after a restart).
    pub shards: usize,
    /// Serving replicas per shard.
    pub replicas: usize,
    /// Worker threads the per-shard builds ran on (0 = auto).
    pub build_threads: usize,
    /// The builder's inert [`crate::ShardedEngineBuilder::fanout_threads`]
    /// value: serving never reads it, but the v1 format carries it, so it
    /// is written and read back unchanged to keep snapshot bytes stable.
    pub fanout_threads: usize,
    /// The index-construction configuration every shard was built with.
    pub index: IndexBuildConfig,
    /// The two-layer retrieval configuration.
    pub retrieval: RetrievalConfig,
    /// Key-side corpus shape: queries in the Q-A space.
    pub queries: usize,
    /// Key-side corpus shape: items in the I-A space.
    pub items: usize,
    /// Ads resident on each shard at snapshot time, in shard order.
    pub ads_per_shard: Vec<usize>,
}

impl SnapshotManifest {
    /// Short label of the ANN backend the snapshot's indices were built
    /// with (`"exact"`, `"ivf"`, `"hnsw"` or `"quant"`).
    pub fn backend(&self) -> &'static str {
        self.index.backend.label()
    }

    /// Read just the manifest of a snapshot file. The whole file is
    /// still integrity-checked (the checksum covers the full payload),
    /// but point sets and indices are not decoded — this is the cheap
    /// "what is in this file?" probe.
    pub fn read(path: impl AsRef<Path>) -> Result<SnapshotManifest, RetrievalError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| RetrievalError::SnapshotCorrupt {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        let payload = unseal(MAGIC_SNAPSHOT, &bytes)?;
        let mut dec = Decoder::new(payload);
        SnapshotManifest::decode(&mut dec)
    }

    /// Capture the manifest of the deployment `builder` currently
    /// maintains, stamped with `generation`.
    pub(crate) fn for_builder(builder: &ShardedDeltaBuilder, generation: u64) -> SnapshotManifest {
        let topology = builder.topology();
        SnapshotManifest {
            format_version: FORMAT_VERSION,
            generation,
            shards: topology.shards,
            replicas: topology.replicas,
            build_threads: topology.build_threads,
            fanout_threads: topology.fanout_threads,
            index: topology.index,
            retrieval: topology.retrieval,
            queries: builder.keys().queries_qa.len(),
            items: builder.keys().items_ia.len(),
            ads_per_shard: builder.slots().iter().map(|s| s.layouts.0.live()).collect(),
        }
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.generation);
        encode_topology(enc, self.shards, self.replicas);
        enc.usize(self.build_threads);
        enc.usize(self.fanout_threads);
        encode_index_build_config(enc, &self.index);
        encode_retrieval_config(enc, &self.retrieval);
        enc.usize(self.queries);
        enc.usize(self.items);
        for &ads in &self.ads_per_shard {
            enc.usize(ads);
        }
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<SnapshotManifest, RetrievalError> {
        let generation = dec.u64("generation")?;
        let (shards, replicas) = decode_topology(dec)?;
        let build_threads = decode_pool_width(dec, "build_threads")?;
        let fanout_threads = decode_pool_width(dec, "fanout_threads")?;
        let index = decode_index_build_config(dec)?;
        let retrieval = decode_retrieval_config(dec)?;
        let queries = dec.usize_capped(u32::MAX as usize, "query count")?;
        let items = dec.usize_capped(u32::MAX as usize, "item count")?;
        let mut ads_per_shard = Vec::with_capacity(shards);
        for _ in 0..shards {
            ads_per_shard.push(dec.usize_capped(u32::MAX as usize, "per-shard ad count")?);
        }
        Ok(SnapshotManifest {
            format_version: FORMAT_VERSION,
            generation,
            shards,
            replicas,
            build_threads,
            fanout_threads,
            index,
            retrieval,
            queries,
            items,
            ads_per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_mnn::{HnswConfig, IndexBackend};

    #[test]
    fn the_manifest_section_round_trips() {
        let manifest = SnapshotManifest {
            format_version: FORMAT_VERSION,
            generation: 17,
            shards: 4,
            replicas: 2,
            build_threads: 0,
            fanout_threads: 3,
            index: IndexBuildConfig {
                top_k: 12,
                threads: 2,
                backend: IndexBackend::Hnsw(HnswConfig::default()),
            },
            retrieval: RetrievalConfig::default(),
            queries: 10,
            items: 40,
            ads_per_shard: vec![5, 0, 7, 8],
        };
        let mut enc = Encoder::new();
        manifest.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = SnapshotManifest::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.backend(), "hnsw");
    }
}
