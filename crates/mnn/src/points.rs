//! Storage for mixed-curvature points with precomputed attention weights.
//!
//! Points are kept in two synchronised layouts. The AoS buffer (`n ×
//! total_dim`) backs the slice accessors ([`MixedPointSet::point`]) that
//! construction and the tangent-space quantisers consume.
//! The scan paths — the exact scan, IVF probes, the HNSW beam and the
//! quantised-postings rerank — instead go through a structure-of-arrays
//! mirror ([`ComponentBlocks`]): per-curvature-component fixed-stride
//! coordinate blocks with precomputed squared norms, so every distance is
//! an allocation-free Gram-form evaluation over unit-stride dot products
//! ([`amcad_manifold::distance_gram`]). The exact scan's contiguous sweep
//! over those blocks is where the paper's SIMD (instruction-level)
//! parallelism lives: its bound loop compiles to packed SSE2 arithmetic
//! (see [`crate::quant::soa`]); the scattered and gathered evaluations
//! stay scalar.

use std::collections::HashMap;

use amcad_manifold::ProductManifold;

use crate::quant::soa::ComponentBlocks;

/// A set of points of one mixed-curvature (edge) space, with per-point
/// attention weights.
///
/// Alongside the flat buffers the set maintains an id → index map, so
/// [`MixedPointSet::index_of`] is O(1) — serving-path lookups and the
/// delta-update validation both depend on that. The map records the
/// *first* occurrence of an id (duplicate ids are a build-input error
/// upstream, but the map never silently re-points an existing id).
#[derive(Debug, Clone)]
pub struct MixedPointSet {
    manifold: ProductManifold,
    ids: Vec<u32>,
    points: Vec<f64>,
    weights: Vec<f64>,
    by_id: HashMap<u32, usize>,
    blocks: ComponentBlocks,
}

impl MixedPointSet {
    /// Create an empty set over the given manifold.
    pub fn new(manifold: ProductManifold) -> Self {
        let blocks = ComponentBlocks::new(&manifold);
        MixedPointSet {
            manifold,
            ids: Vec::new(),
            points: Vec::new(),
            weights: Vec::new(),
            by_id: HashMap::new(),
            blocks,
        }
    }

    /// The manifold of this point set.
    pub fn manifold(&self) -> &ProductManifold {
        &self.manifold
    }

    /// The SoA scan mirror: per-component coordinate blocks, precomputed
    /// squared norms and weight lanes. The backends' chunked and gathered
    /// distance sweeps run over these.
    #[inline]
    pub fn blocks(&self) -> &ComponentBlocks {
        &self.blocks
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Add a point.  `point` must have the manifold's total dimension and
    /// `weight` one entry per subspace.
    pub fn push(&mut self, id: u32, point: &[f64], weight: &[f64]) {
        assert_eq!(
            point.len(),
            self.manifold.total_dim(),
            "point dimension mismatch"
        );
        assert_eq!(
            weight.len(),
            self.manifold.num_subspaces(),
            "weight length mismatch"
        );
        self.by_id.entry(id).or_insert(self.ids.len());
        self.ids.push(id);
        self.points.extend_from_slice(point);
        self.weights.extend_from_slice(weight);
        self.blocks.push(point, weight);
    }

    /// External id of the `i`-th point.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// All ids in insertion order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The ids and the SoA blocks, moved out; the AoS copy and the id map
    /// are dropped.
    pub(crate) fn into_soa(self) -> (Vec<u32>, ComponentBlocks) {
        (self.ids, self.blocks)
    }

    /// Coordinates of the `i`-th point.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        let d = self.manifold.total_dim();
        &self.points[i * d..(i + 1) * d]
    }

    /// Attention weights of the `i`-th point.
    #[inline]
    pub fn weight(&self, i: usize) -> &[f64] {
        let m = self.manifold.num_subspaces();
        &self.weights[i * m..(i + 1) * m]
    }

    /// Index of the point with external id `id`, if present — an O(1) map
    /// lookup. With duplicate ids (a build-input error upstream) the
    /// *first* occurrence wins, matching what a linear scan would find.
    pub fn index_of(&self, id: u32) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// Whether a point with external id `id` is present.
    pub fn contains_id(&self, id: u32) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The first id that occurs more than once, if any. O(1) when the set
    /// is duplicate-free (the id map then covers every point); only a set
    /// that actually contains duplicates pays for the scan. Index builds
    /// use this to reject corrupt inputs with a typed error.
    pub fn first_duplicate_id(&self) -> Option<u32> {
        if self.by_id.len() == self.ids.len() {
            return None;
        }
        let mut seen = std::collections::HashSet::with_capacity(self.ids.len());
        self.ids.iter().find(|&&id| !seen.insert(id)).copied()
    }

    /// Append every point of `other` (same manifold), preserving order,
    /// coordinates and weights bit-for-bit — the "add" half of the delta
    /// lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if the manifolds differ.
    pub fn append(&mut self, other: &MixedPointSet) {
        assert_eq!(
            self.manifold, other.manifold,
            "appended points must live on the same manifold"
        );
        for i in 0..other.len() {
            self.push(other.id(i), other.point(i), other.weight(i));
        }
    }

    /// Remove every point whose id satisfies `drop`, preserving the order,
    /// coordinates and weights of the survivors — the "retire" half of the
    /// delta lifecycle. Returns how many points were removed.
    pub fn retire(&mut self, mut drop: impl FnMut(u32) -> bool) -> usize {
        let kept = self.filtered(|id| !drop(id));
        let removed = self.len() - kept.len();
        *self = kept;
        removed
    }

    /// Split the set into `parts` disjoint sets by assigning every point
    /// through `assign` (id → part index). Points keep their coordinates
    /// and weights bit-for-bit, so an index built over one part agrees
    /// exactly with the corresponding entries of an index built over the
    /// whole set — the property sharded index builds rely on.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or `assign` returns an out-of-range part.
    pub fn partition_by(
        &self,
        parts: usize,
        mut assign: impl FnMut(u32) -> usize,
    ) -> Vec<MixedPointSet> {
        assert!(parts > 0, "cannot partition into zero parts");
        let mut out: Vec<MixedPointSet> = (0..parts)
            .map(|_| MixedPointSet::new(self.manifold.clone()))
            .collect();
        for i in 0..self.len() {
            let id = self.id(i);
            let part = assign(id);
            assert!(
                part < parts,
                "assign({id}) returned part {part}, but there are only {parts} parts"
            );
            out[part].push(id, self.point(i), self.weight(i));
        }
        out
    }

    /// The subset of points whose id satisfies `keep`, preserving order,
    /// coordinates and weights.
    pub fn filtered(&self, mut keep: impl FnMut(u32) -> bool) -> MixedPointSet {
        let mut out = MixedPointSet::new(self.manifold.clone());
        for i in 0..self.len() {
            if keep(self.id(i)) {
                out.push(self.id(i), self.point(i), self.weight(i));
            }
        }
        out
    }

    /// Attention-weighted mixed-curvature distance between point `i` of this
    /// set and point `j` of `other` (both sets must share the manifold) —
    /// an allocation-free Gram-form evaluation over the SoA blocks with
    /// both squared norms precomputed.
    #[inline]
    pub fn distance_between(&self, i: usize, other: &MixedPointSet, j: usize) -> f64 {
        debug_assert_eq!(self.manifold.total_dim(), other.manifold.total_dim());
        self.blocks.distance_between(i, &other.blocks, j)
    }

    /// Distance of an external query point (with weights) to point `j` —
    /// one scattered allocation-free evaluation over the SoA blocks (the
    /// shape the HNSW beam uses; bulk scans go through
    /// [`MixedPointSet::blocks`]' chunked kernels).
    #[inline]
    pub fn distance_to(&self, query: &[f64], query_weight: &[f64], j: usize) -> f64 {
        self.blocks.distance_to(query, query_weight, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_manifold::SubspaceSpec;

    fn sample_set() -> MixedPointSet {
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let mut set = MixedPointSet::new(manifold.clone());
        set.push(10, &manifold.exp0(&[0.1, 0.0, 0.1, 0.0]), &[0.5, 0.5]);
        set.push(20, &manifold.exp0(&[0.0, 0.2, 0.0, 0.2]), &[0.7, 0.3]);
        set.push(30, &manifold.exp0(&[0.3, 0.3, -0.2, 0.1]), &[0.2, 0.8]);
        set
    }

    #[test]
    fn push_and_accessors() {
        let set = sample_set();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.id(1), 20);
        assert_eq!(set.ids(), &[10, 20, 30]);
        assert_eq!(set.point(0).len(), 4);
        assert_eq!(set.weight(2), &[0.2, 0.8]);
        assert_eq!(set.index_of(30), Some(2));
        assert_eq!(set.index_of(99), None);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        let mut set = sample_set();
        set.push(40, &[0.0, 0.0], &[0.5, 0.5]);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_identical_points() {
        let set = sample_set();
        let d01 = set.distance_between(0, &set, 1);
        let d10 = set.distance_between(1, &set, 0);
        assert!((d01 - d10).abs() < 1e-12);
        assert!(set.distance_between(0, &set, 0).abs() < 1e-12);
        assert!(d01 > 0.0);
    }

    #[test]
    fn partition_by_splits_points_without_altering_them() {
        let set = sample_set();
        let parts = set.partition_by(2, |id| (id as usize / 10) % 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].ids(), &[20u32]); // 20/10 = 2 → part 0
        assert_eq!(parts[1].ids(), &[10, 30]);
        // coordinates and weights are preserved bit-for-bit
        let j = set.index_of(30).unwrap();
        let k = parts[1].index_of(30).unwrap();
        assert_eq!(set.point(j), parts[1].point(k));
        assert_eq!(set.weight(j), parts[1].weight(k));
        // a single part is a verbatim copy
        let whole = set.partition_by(1, |_| 0);
        assert_eq!(whole[0].ids(), set.ids());
    }

    #[test]
    #[should_panic]
    fn partition_by_rejects_out_of_range_parts() {
        sample_set().partition_by(2, |_| 5);
    }

    #[test]
    fn filtered_keeps_matching_ids_in_order() {
        let set = sample_set();
        let odd_tens = set.filtered(|id| id != 20);
        assert_eq!(odd_tens.ids(), &[10, 30]);
        assert!(set.filtered(|_| false).is_empty());
    }

    /// The id map must agree with a linear scan after every operation
    /// that builds or reshapes a set.
    fn assert_map_consistent(set: &MixedPointSet) {
        for i in 0..set.len() {
            let id = set.id(i);
            assert_eq!(
                set.index_of(id),
                set.ids().iter().position(|&x| x == id),
                "index_of({id}) diverged from the linear scan"
            );
            assert!(set.contains_id(id));
        }
        assert_eq!(set.index_of(u32::MAX), None);
        assert!(!set.contains_id(u32::MAX));
    }

    #[test]
    fn partition_by_and_filtered_keep_the_id_map_consistent() {
        let set = sample_set();
        assert_map_consistent(&set);
        for part in set.partition_by(2, |id| (id as usize / 10) % 2) {
            assert_map_consistent(&part);
        }
        let filtered = set.filtered(|id| id != 20);
        assert_map_consistent(&filtered);
        assert_eq!(filtered.index_of(20), None);
        assert_eq!(filtered.index_of(30), Some(1), "indices shift after a drop");
    }

    #[test]
    fn append_adds_points_bit_for_bit_and_updates_the_map() {
        let mut set = sample_set();
        let manifold = set.manifold().clone();
        let mut extra = MixedPointSet::new(manifold.clone());
        extra.push(40, &manifold.exp0(&[0.2, -0.1, 0.0, 0.3]), &[0.6, 0.4]);
        extra.push(50, &manifold.exp0(&[-0.1, 0.1, 0.2, 0.0]), &[0.1, 0.9]);
        set.append(&extra);
        assert_eq!(set.ids(), &[10, 20, 30, 40, 50]);
        assert_eq!(set.point(3), extra.point(0));
        assert_eq!(set.weight(4), extra.weight(1));
        assert_map_consistent(&set);
    }

    #[test]
    #[should_panic]
    fn append_rejects_a_foreign_manifold() {
        let mut set = sample_set();
        let other = MixedPointSet::new(ProductManifold::new(vec![SubspaceSpec::new(3, 0.0)]));
        set.append(&other);
    }

    #[test]
    fn retire_compacts_in_place_preserving_survivor_order() {
        let mut set = sample_set();
        let expected_point = set.point(2).to_vec();
        let expected_weight = set.weight(2).to_vec();
        assert_eq!(set.retire(|id| id == 20), 1);
        assert_eq!(set.ids(), &[10, 30]);
        assert_eq!(set.point(1), expected_point.as_slice());
        assert_eq!(set.weight(1), expected_weight.as_slice());
        assert_map_consistent(&set);
        // retiring nothing is a no-op; retiring everything empties the set
        assert_eq!(set.retire(|_| false), 0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.retire(|_| true), 2);
        assert!(set.is_empty());
        assert_map_consistent(&set);
    }

    #[test]
    fn retire_then_append_round_trips_a_point() {
        let mut set = sample_set();
        let held_out = set.filtered(|id| id == 20);
        set.retire(|id| id == 20);
        set.append(&held_out);
        assert_eq!(set.ids(), &[10, 30, 20]);
        let original = sample_set();
        let (i, j) = (original.index_of(20).unwrap(), set.index_of(20).unwrap());
        assert_eq!(original.point(i), set.point(j));
        assert_eq!(original.weight(i), set.weight(j));
        assert_map_consistent(&set);
    }

    #[test]
    fn duplicate_ids_are_detected_and_first_occurrence_wins() {
        let mut set = sample_set();
        assert_eq!(set.first_duplicate_id(), None);
        let manifold = set.manifold().clone();
        set.push(20, &manifold.exp0(&[0.0; 4]), &[0.5, 0.5]);
        assert_eq!(set.first_duplicate_id(), Some(20));
        assert_eq!(set.index_of(20), Some(1), "first occurrence wins");
    }

    #[test]
    fn distance_to_external_query_matches_member_distance() {
        let set = sample_set();
        let q = set.point(1).to_vec();
        let w = set.weight(1).to_vec();
        let d = set.distance_to(&q, &w, 0);
        assert!((d - set.distance_between(1, &set, 0)).abs() < 1e-12);
    }

    /// The Gram-form SoA kernel and the reference manifold path compute
    /// the same weighted distances (up to ulp-level rounding — they take
    /// different but algebraically equal routes to `‖-x ⊕_κ y‖`).
    #[test]
    fn gram_form_distances_match_the_manifold_reference() {
        let set = sample_set();
        for i in 0..set.len() {
            for j in 0..set.len() {
                let w: Vec<f64> = set
                    .weight(i)
                    .iter()
                    .zip(set.weight(j))
                    .map(|(a, b)| a + b)
                    .collect();
                let reference = set
                    .manifold()
                    .weighted_distance(set.point(i), set.point(j), &w);
                let fast = set.distance_between(i, &set, j);
                assert!(
                    (fast - reference).abs() < 1e-10,
                    "({i},{j}): {fast} vs {reference}"
                );
            }
        }
    }

    /// The SoA mirror must track the AoS buffers bit-for-bit through every
    /// reshaping operation (push, append, retire, partition, filter).
    fn assert_blocks_consistent(set: &MixedPointSet) {
        let blocks = set.blocks();
        assert_eq!(blocks.len(), set.len());
        for i in 0..set.len() {
            for m in 0..set.manifold().num_subspaces() {
                let range = set.manifold().range(m);
                assert_eq!(blocks.coords_of(m, i), &set.point(i)[range]);
                assert_eq!(blocks.stored_weight(m, i), set.weight(i)[m]);
            }
        }
    }

    #[test]
    fn soa_blocks_mirror_the_aos_buffers_through_every_reshape() {
        let mut set = sample_set();
        assert_blocks_consistent(&set);
        let manifold = set.manifold().clone();
        let mut extra = MixedPointSet::new(manifold.clone());
        extra.push(40, &manifold.exp0(&[0.2, -0.1, 0.0, 0.3]), &[0.6, 0.4]);
        set.append(&extra);
        assert_blocks_consistent(&set);
        set.retire(|id| id == 20);
        assert_blocks_consistent(&set);
        for part in set.partition_by(2, |id| (id as usize / 10) % 2) {
            assert_blocks_consistent(&part);
        }
        assert_blocks_consistent(&set.filtered(|id| id != 10));
        set.retire(|_| true);
        assert_blocks_consistent(&set);
    }
}
