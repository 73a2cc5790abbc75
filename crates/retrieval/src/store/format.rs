//! The on-disk byte format: a versioned, checksummed little-endian
//! envelope plus hand-rolled codecs for every persisted structure.
//!
//! The workspace has no serialization crate, so the codec is written
//! out by hand, which also pins the byte layout explicitly (field order
//! is the format, not an implementation detail) and keeps decode
//! allocation bounded by the actual file size.
//!
//! ## Envelope
//!
//! ```text
//! magic      8 bytes   b"AMCADSNP"
//! version    u32 LE    FORMAT_VERSION
//! length     u64 LE    payload byte count
//! payload    length bytes
//! checksum   u64 LE    FNV-1a 64 over the payload
//! ```
//!
//! Multi-byte integers are little-endian throughout; `f64`s are stored
//! as their IEEE-754 bit pattern ([`f64::to_bits`]), so NaN payloads and
//! signed zeros survive a round trip bit-for-bit — a requirement for the
//! byte-identical warm-restart guarantee, since distances are
//! deterministic functions of the stored bits.
//!
//! ## Decoder safety
//!
//! Every read is bounds-checked and every claimed element count is
//! validated against the bytes actually remaining before anything is
//! allocated, so truncated, bit-flipped or adversarial inputs surface as
//! [`RetrievalError::SnapshotCorrupt`] — never as a panic or an
//! unbounded allocation. Structures with internal invariants (the
//! manifold's shape) are validated here, before the constructors that
//! `assert!` those invariants ever run.

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::quant::soa::ComponentBlocks;
use amcad_mnn::{
    HnswConfig, IndexBackend, InvertedIndex, IvfConfig, MixedPointSet, Postings, QuantConfig,
};

use crate::error::RetrievalError;
use crate::index_set::IndexBuildConfig;
use crate::retriever::RetrievalConfig;

/// Magic prefix of a deployment snapshot file.
pub(crate) const MAGIC_SNAPSHOT: &[u8; 8] = b"AMCADSNP";
/// The one format version this binary reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Envelope overhead: magic + version + length + checksum.
const ENVELOPE_BYTES: usize = 8 + 4 + 8 + 8;

/// Sanity cap on decoded thread-pool widths: a corrupt (but
/// checksum-colliding) or hostile file must not make the loader spawn an
/// absurd number of OS threads.
const MAX_THREADS: usize = 1024;
/// Sanity cap on decoded shard / replica counts, same reasoning.
const MAX_SHARDS: usize = 65_536;

/// FNV-1a 64 over `bytes` — small, dependency-free, and plenty to catch
/// truncation and bit flips (integrity, not authentication).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(detail: impl Into<String>) -> RetrievalError {
    RetrievalError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

/// The envelope ahead of a `len`-byte payload: magic, version, length.
/// The payload and its [`fnv1a64`] checksum follow.
pub(crate) fn envelope_head(magic: &[u8; 8], len: usize) -> Vec<u8> {
    let mut head = magic.to_vec();
    head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    head.extend_from_slice(&(len as u64).to_le_bytes());
    head
}

/// Verify the envelope of `bytes` and return the payload slice. Checks
/// in order: minimum length, magic, version (intact files of a foreign
/// version report [`RetrievalError::SnapshotVersion`], not corruption),
/// declared length, checksum.
pub(crate) fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], RetrievalError> {
    let truncated = || {
        corrupt(format!(
            "file is {} bytes, shorter than the {ENVELOPE_BYTES}-byte envelope (truncated?)",
            bytes.len()
        ))
    };
    if bytes.len() < ENVELOPE_BYTES {
        return Err(truncated());
    }
    let found_magic = bytes.get(..8).ok_or_else(truncated)?;
    if found_magic != magic {
        return Err(corrupt(format!(
            "bad magic {found_magic:02x?} (expected {magic:02x?})"
        )));
    }
    let version = u32::from_le_bytes(array_at(bytes, 8, "format version")?);
    if version != FORMAT_VERSION {
        return Err(RetrievalError::SnapshotVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let declared = u64::from_le_bytes(array_at(bytes, 12, "payload length")?);
    let actual = (bytes.len() - ENVELOPE_BYTES) as u64;
    if declared != actual {
        return Err(corrupt(format!(
            "declared payload length {declared} but {actual} bytes present (truncated?)"
        )));
    }
    let payload = bytes.get(20..bytes.len() - 8).ok_or_else(truncated)?;
    let stored = u64::from_le_bytes(array_at(bytes, bytes.len() - 8, "envelope checksum")?);
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(corrupt(format!(
            "payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(payload)
}

/// The `N` bytes at `offset` as a fixed-size array — `Err` instead of a
/// panic when the file is shorter than the envelope layout promises.
fn array_at<const N: usize>(
    bytes: &[u8],
    offset: usize,
    what: &str,
) -> Result<[u8; N], RetrievalError> {
    offset
        .checked_add(N)
        .and_then(|end| bytes.get(offset..end))
        .and_then(|slice| <[u8; N]>::try_from(slice).ok())
        .ok_or_else(|| {
            corrupt(format!(
                "truncated envelope: {what} needs {N} bytes at offset {offset}"
            ))
        })
}

/// Append-only little-endian byte sink the writer serialises into.
#[derive(Default)]
pub(crate) struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub(crate) fn new() -> Self {
        Encoder::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Bit-pattern encoding: NaNs and signed zeros round-trip exactly.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Bounds-checked little-endian reader over an untrusted payload. Every
/// failure carries the byte offset, so a corrupt file's error message
/// localises the damage.
pub(crate) struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error when decodable bytes remain — a payload must be consumed
    /// exactly, trailing garbage is corruption.
    pub(crate) fn finish(self) -> Result<(), RetrievalError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "{} unconsumed bytes after the last decoded structure",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], RetrievalError> {
        let bytes: &'a [u8] = self.bytes;
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| bytes.get(self.pos..end));
        let Some(slice) = slice else {
            return Err(corrupt(format!(
                "truncated payload: {what} needs {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        };
        self.pos += n;
        Ok(slice)
    }

    /// The next `N` bytes as a fixed-size array — the panic-free form of
    /// `take(N)?.try_into().unwrap()`.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], RetrievalError> {
        let slice = self.take(N, what)?;
        <[u8; N]>::try_from(slice).map_err(|_| corrupt(format!("{what}: short read of {N} bytes")))
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, RetrievalError> {
        let [byte] = self.array::<1>(what)?;
        Ok(byte)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, RetrievalError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, RetrievalError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, RetrievalError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `usize` field with an explicit sanity cap (thread counts, shard
    /// counts — knobs where a huge decoded value would have side effects
    /// beyond allocation).
    pub(crate) fn usize_capped(&mut self, cap: usize, what: &str) -> Result<usize, RetrievalError> {
        let v = self.u64(what)?;
        if v > cap as u64 {
            return Err(corrupt(format!(
                "{what} is {v}, above the sanity cap {cap}"
            )));
        }
        Ok(v as usize)
    }

    /// An element count that prefixes `elem_bytes`-wide elements: valid
    /// only if the remaining payload can actually hold that many, which
    /// bounds any subsequent allocation by the file size.
    pub(crate) fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, RetrievalError> {
        let n = self.u64(what)?;
        let need = n.checked_mul(elem_bytes.max(1) as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(n as usize),
            _ => Err(corrupt(format!(
                "{what} claims {n} elements (x {elem_bytes} bytes) but only {} payload bytes remain",
                self.remaining()
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Point sets and manifolds
// ---------------------------------------------------------------------

pub(crate) fn encode_manifold(enc: &mut Encoder, blocks: &ComponentBlocks) {
    enc.usize(blocks.num_components());
    for m in 0..blocks.num_components() {
        enc.usize(blocks.dim(m));
        enc.f64(blocks.kappa(m));
    }
}

pub(crate) fn decode_manifold(dec: &mut Decoder<'_>) -> Result<ProductManifold, RetrievalError> {
    // 16 bytes per subspace: dim + kappa
    let n = dec.count(16, "manifold subspace count")?;
    if n == 0 {
        return Err(corrupt("manifold has zero subspaces"));
    }
    let mut specs = Vec::with_capacity(n);
    for _ in 0..n {
        let dim = dec.usize_capped(u32::MAX as usize, "subspace dimension")?;
        let kappa = dec.f64("subspace curvature")?;
        if dim == 0 {
            return Err(corrupt("subspace has zero dimensions"));
        }
        if !kappa.is_finite() {
            return Err(corrupt(format!("subspace curvature {kappa} is not finite")));
        }
        specs.push(SubspaceSpec::new(dim, kappa));
    }
    Ok(ProductManifold::new(specs))
}

/// The points of `blocks` that `members` names by id and position, as
/// one set: per point its id, its coordinates component after component,
/// then its weights.
pub(crate) fn encode_point_set(
    enc: &mut Encoder,
    blocks: &ComponentBlocks,
    members: impl IntoIterator<IntoIter: ExactSizeIterator<Item = (u32, usize)>>,
) {
    let members = members.into_iter();
    encode_manifold(enc, blocks);
    enc.usize(members.len());
    for (id, j) in members {
        enc.u32(id);
        for m in 0..blocks.num_components() {
            blocks.coords_of(m, j).iter().for_each(|&x| enc.f64(x));
        }
        for m in 0..blocks.num_components() {
            enc.f64(blocks.stored_weight(m, j));
        }
    }
}

pub(crate) fn decode_point_set(dec: &mut Decoder<'_>) -> Result<MixedPointSet, RetrievalError> {
    let manifold = decode_manifold(dec)?;
    let dim = manifold.total_dim();
    let subspaces = manifold.num_subspaces();
    // bytes per point: id + coordinates + per-subspace weights
    let per_point = 4usize
        .saturating_add(dim.saturating_mul(8))
        .saturating_add(subspaces.saturating_mul(8));
    let n = dec.count(per_point, "point count")?;
    let mut set = MixedPointSet::new(manifold);
    let mut point = vec![0.0f64; dim];
    let mut weight = vec![0.0f64; subspaces];
    for _ in 0..n {
        let id = dec.u32("point id")?;
        for x in point.iter_mut() {
            *x = dec.f64("point coordinate")?;
        }
        for w in weight.iter_mut() {
            *w = dec.f64("point weight")?;
        }
        set.push(id, &point, &weight);
    }
    Ok(set)
}

// ---------------------------------------------------------------------
// Inverted indices
// ---------------------------------------------------------------------

/// Keys are written in sorted order: the underlying map iterates in an
/// order that follows its insertion history (a threaded build, a delta and
/// a decode insert differently), and a canonical byte layout keeps
/// snapshots of identical indices byte-identical (and diffable).
pub(crate) fn encode_index(enc: &mut Encoder, index: &InvertedIndex) {
    let mut entries: Vec<(u32, &Postings)> = index.iter().map(|(key, list)| (*key, list)).collect();
    entries.sort_unstable_by_key(|&(key, _)| key);
    enc.usize(entries.len());
    for (key, postings) in entries {
        enc.u32(key);
        enc.usize(postings.len());
        for &(id, dist) in postings {
            enc.u32(id);
            enc.f64(dist);
        }
    }
}

pub(crate) fn decode_index(dec: &mut Decoder<'_>) -> Result<InvertedIndex, RetrievalError> {
    // minimum bytes per key: key id + posting count (an empty list)
    let n = dec.count(12, "inverted-index key count")?;
    let mut index = InvertedIndex::default();
    for _ in 0..n {
        let key = dec.u32("posting-list key")?;
        let len = dec.count(12, "posting-list length")?;
        let mut postings: Postings = Vec::with_capacity(len);
        for _ in 0..len {
            let id = dec.u32("posting candidate id")?;
            let dist = dec.f64("posting distance")?;
            postings.push((id, dist));
        }
        index.insert(key, postings);
    }
    Ok(index)
}

// ---------------------------------------------------------------------
// Backend configurations
// ---------------------------------------------------------------------

const BACKEND_EXACT: u8 = 0;
const BACKEND_IVF: u8 = 1;
const BACKEND_HNSW: u8 = 2;
const BACKEND_QUANT: u8 = 3;

fn encode_ivf_config(enc: &mut Encoder, config: &IvfConfig) {
    enc.usize(config.num_clusters);
    enc.usize(config.kmeans_iters);
    enc.usize(config.nprobe);
    enc.u64(config.seed);
}

fn decode_ivf_config(dec: &mut Decoder<'_>) -> Result<IvfConfig, RetrievalError> {
    Ok(IvfConfig {
        num_clusters: dec.usize_capped(u32::MAX as usize, "ivf num_clusters")?,
        kmeans_iters: dec.usize_capped(u32::MAX as usize, "ivf kmeans_iters")?,
        nprobe: dec.usize_capped(u32::MAX as usize, "ivf nprobe")?,
        seed: dec.u64("ivf seed")?,
    })
}

fn encode_hnsw_config(enc: &mut Encoder, config: &HnswConfig) {
    enc.usize(config.m);
    enc.usize(config.ef_construction);
    enc.usize(config.ef_search);
    enc.u64(config.seed);
}

fn decode_hnsw_config(dec: &mut Decoder<'_>) -> Result<HnswConfig, RetrievalError> {
    Ok(HnswConfig {
        m: dec.usize_capped(u32::MAX as usize, "hnsw m")?,
        ef_construction: dec.usize_capped(u32::MAX as usize, "hnsw ef_construction")?,
        ef_search: dec.usize_capped(u32::MAX as usize, "hnsw ef_search")?,
        seed: dec.u64("hnsw seed")?,
    })
}

fn encode_quant_config(enc: &mut Encoder, config: &QuantConfig) {
    enc.usize(config.ksub);
    enc.usize(config.train_iters);
    enc.usize(config.rerank_k);
    enc.u64(config.seed);
}

fn decode_quant_config(dec: &mut Decoder<'_>) -> Result<QuantConfig, RetrievalError> {
    Ok(QuantConfig {
        ksub: dec.usize_capped(u32::MAX as usize, "quant ksub")?,
        train_iters: dec.usize_capped(u32::MAX as usize, "quant train_iters")?,
        rerank_k: dec.usize_capped(u32::MAX as usize, "quant rerank_k")?,
        seed: dec.u64("quant seed")?,
    })
}

pub(crate) fn encode_index_backend(enc: &mut Encoder, backend: &IndexBackend) {
    match backend {
        IndexBackend::Exact => enc.u8(BACKEND_EXACT),
        IndexBackend::Ivf(config) => {
            enc.u8(BACKEND_IVF);
            encode_ivf_config(enc, config);
        }
        IndexBackend::Hnsw(config) => {
            enc.u8(BACKEND_HNSW);
            encode_hnsw_config(enc, config);
        }
        IndexBackend::Quant(config) => {
            enc.u8(BACKEND_QUANT);
            encode_quant_config(enc, config);
        }
    }
}

pub(crate) fn decode_index_backend(dec: &mut Decoder<'_>) -> Result<IndexBackend, RetrievalError> {
    match dec.u8("backend tag")? {
        BACKEND_EXACT => Ok(IndexBackend::Exact),
        BACKEND_IVF => Ok(IndexBackend::Ivf(decode_ivf_config(dec)?)),
        BACKEND_HNSW => Ok(IndexBackend::Hnsw(decode_hnsw_config(dec)?)),
        BACKEND_QUANT => Ok(IndexBackend::Quant(decode_quant_config(dec)?)),
        tag => Err(corrupt(format!("unknown backend tag {tag}"))),
    }
}

pub(crate) fn encode_index_build_config(enc: &mut Encoder, config: &IndexBuildConfig) {
    enc.usize(config.top_k);
    enc.usize(config.threads);
    encode_index_backend(enc, &config.backend);
}

pub(crate) fn decode_index_build_config(
    dec: &mut Decoder<'_>,
) -> Result<IndexBuildConfig, RetrievalError> {
    Ok(IndexBuildConfig {
        top_k: dec.usize_capped(u32::MAX as usize, "index top_k")?,
        threads: dec.usize_capped(MAX_THREADS, "index build threads")?,
        backend: decode_index_backend(dec)?,
    })
}

pub(crate) fn encode_retrieval_config(enc: &mut Encoder, config: &RetrievalConfig) {
    enc.usize(config.expansion_per_index);
    enc.usize(config.ads_per_key);
    enc.usize(config.final_top_n);
}

pub(crate) fn decode_retrieval_config(
    dec: &mut Decoder<'_>,
) -> Result<RetrievalConfig, RetrievalError> {
    Ok(RetrievalConfig {
        expansion_per_index: dec.usize_capped(u32::MAX as usize, "expansion_per_index")?,
        ads_per_key: dec.usize_capped(u32::MAX as usize, "ads_per_key")?,
        final_top_n: dec.usize_capped(u32::MAX as usize, "final_top_n")?,
    })
}

/// Topology knobs of a sharded deployment, in declaration order.
pub(crate) fn encode_topology(enc: &mut Encoder, shards: usize, replicas: usize) {
    enc.usize(shards);
    enc.usize(replicas);
}

pub(crate) fn decode_topology(dec: &mut Decoder<'_>) -> Result<(usize, usize), RetrievalError> {
    let shards = dec.usize_capped(MAX_SHARDS, "shard count")?;
    let replicas = dec.usize_capped(MAX_SHARDS, "replica count")?;
    Ok((shards, replicas))
}

/// Pool widths are topology too, but they sit behind the thread cap.
pub(crate) fn decode_pool_width(
    dec: &mut Decoder<'_>,
    what: &str,
) -> Result<usize, RetrievalError> {
    dec.usize_capped(MAX_THREADS, what)
}

/// Wrap `payload` in the whole envelope in memory — the bytes the
/// snapshot writer puts on disk.
#[cfg(test)]
pub(crate) fn seal(magic: &[u8; 8], payload: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a64(&payload).to_le_bytes().to_vec();
    [envelope_head(magic, payload.len()), payload, checksum].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::random_points;

    #[test]
    fn the_envelope_round_trips_and_localises_damage() {
        let sealed = seal(MAGIC_SNAPSHOT, vec![1, 2, 3, 4, 5]);
        assert_eq!(unseal(MAGIC_SNAPSHOT, &sealed).unwrap(), &[1, 2, 3, 4, 5]);
        // wrong magic
        let err = unseal(b"AMCADXXX", &sealed).unwrap_err();
        assert!(matches!(err, RetrievalError::SnapshotCorrupt { .. }));
        assert!(err.to_string().contains("magic"));
        // truncation, at every possible cut
        for cut in 0..sealed.len() {
            let err = unseal(MAGIC_SNAPSHOT, &sealed[..cut]).unwrap_err();
            assert!(
                matches!(err, RetrievalError::SnapshotCorrupt { .. }),
                "cut at {cut} must be corruption, got {err}"
            );
        }
        // a bit flip anywhere in the payload breaks the checksum
        for byte in 20..sealed.len() - 8 {
            let mut flipped = sealed.clone();
            flipped[byte] ^= 0x40;
            let err = unseal(MAGIC_SNAPSHOT, &flipped).unwrap_err();
            assert!(err.to_string().contains("checksum"), "byte {byte}: {err}");
        }
        // a foreign version is reported as such, not as corruption
        let mut future = sealed.clone();
        future[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            unseal(MAGIC_SNAPSHOT, &future).unwrap_err(),
            RetrievalError::SnapshotVersion {
                found: 9,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn point_sets_round_trip_bit_for_bit() {
        let set = random_points(10..40, 7);
        let mut enc = Encoder::new();
        encode_point_set(
            &mut enc,
            set.blocks(),
            set.ids().iter().copied().zip(0..set.len()),
        );
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_point_set(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.manifold(), set.manifold());
        assert_eq!(back.ids(), set.ids());
        for i in 0..set.len() {
            // bit-for-bit, not approximately: distances must reproduce
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back.point(i)), bits(set.point(i)));
            assert_eq!(bits(back.weight(i)), bits(set.weight(i)));
        }
    }

    #[test]
    fn indices_round_trip_through_the_canonical_sorted_layout() {
        let mut index = InvertedIndex::default();
        index.insert(9, vec![(3, 0.25), (1, f64::INFINITY)]);
        index.insert(2, vec![]);
        index.insert(700, vec![(42, -0.0)]);
        let mut enc = Encoder::new();
        encode_index(&mut enc, &index);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_index(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.len(), index.len());
        for (key, postings) in index.iter() {
            assert_eq!(back.get(*key), Some(postings));
        }
        // identical indices always serialise to identical bytes, however
        // the backing map happens to iterate
        let mut enc2 = Encoder::new();
        encode_index(&mut enc2, &back);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn configs_and_backend_tags_round_trip() {
        let backends = [
            IndexBackend::Exact,
            IndexBackend::Ivf(IvfConfig {
                num_clusters: 9,
                kmeans_iters: 3,
                nprobe: 2,
                seed: 77,
            }),
            IndexBackend::Hnsw(HnswConfig {
                m: 5,
                ef_construction: 21,
                ef_search: 13,
                seed: 0xabc,
            }),
            IndexBackend::Quant(QuantConfig {
                ksub: 32,
                train_iters: 6,
                rerank_k: 64,
                seed: 0xdef,
            }),
        ];
        for backend in backends {
            let config = IndexBuildConfig {
                top_k: 17,
                threads: 3,
                backend,
            };
            let mut enc = Encoder::new();
            encode_index_build_config(&mut enc, &config);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_index_build_config(&mut dec).unwrap(), config);
            dec.finish().unwrap();
        }
        // an unknown tag is typed corruption, not a panic
        let mut dec = Decoder::new(&[42]);
        assert!(matches!(
            decode_index_backend(&mut dec).unwrap_err(),
            RetrievalError::SnapshotCorrupt { .. }
        ));
    }

    #[test]
    fn hostile_counts_and_slots_never_panic_or_overallocate() {
        // a claimed element count far beyond the payload is rejected
        // before any allocation happens
        let mut enc = Encoder::new();
        enc.u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(decode_index(&mut dec).is_err());
        let mut dec = Decoder::new(&bytes);
        assert!(decode_manifold(&mut dec).is_err());
        // a point set checks its own count too: a valid manifold followed
        // by the same absurd point count
        let mut enc = Encoder::new();
        encode_manifold(&mut enc, random_points(0..0, 1).blocks());
        enc.u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let err = decode_point_set(&mut dec).unwrap_err();
        assert!(err.to_string().contains("point count"), "{err}");
    }
}
