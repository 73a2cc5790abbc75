//! Structure-of-arrays point storage: the scan side of [`crate::MixedPointSet`].
//!
//! Every distance the backends evaluate decomposes per curvature component
//! into three Gram quantities — `‖x‖²`, `‖y‖²`, `⟨x, y⟩` — of which the
//! stored-point norms can be precomputed once at insert time
//! ([`amcad_manifold::distance_gram`]). [`ComponentBlocks`] therefore keeps
//! each component's coordinates in its own contiguous fixed-stride block
//! (`n × dim_m`), alongside per-component squared-norm and attention-weight
//! lanes, so the per-candidate inner loop is a unit-stride dot product the
//! compiler can auto-vectorise — no allocation, no AoS pointer chasing.
//!
//! Scattered and gathered evaluations — [`ComponentBlocks::distance_to`] /
//! [`ComponentBlocks::distance_between`] (HNSW beam hops, IVF residuals)
//! and [`ComponentBlocks::scan_indices_into`] (IVF cluster probes, HNSW
//! neighbour batches) — call [`amcad_manifold::distance_gram`] per
//! candidate and component.
//!
//! The contiguous sweep the exact scan runs is one two-pass chunk kernel
//! taking the scan's current top-K threshold. Pass 1 computes, for up to
//! [`SCAN_CHUNK`] candidates and component by component, the arithmetic
//! half of the distance ([`amcad_manifold::diff_norm_gram`]: three dot
//! products and a few multiplies) into a caller-owned norm lane, and sums
//! a lower bound on the weighted distance from
//! [`amcad_manifold::atan_kappa_minorant`]. Pass 2 evaluates `tan⁻¹_κ` and
//! the weighted sum — the operations of `distance_to`, in its order — only
//! for candidates whose bound, shrunk by `1e-12`, does not exceed the
//! threshold, and writes `+∞` for the rest: an `ln_1p` / `atan` is paid
//! only where the distance could enter the top-K. Every distance the
//! kernel does write is bit-identical to `distance_to`.
//!
//! A candidate is only ever pruned on a sound bound. The minorant bounds
//! `tan⁻¹_κ` from below, so a term bounds its component's contribution
//! only when the summed weight `query_weight[m] + stored_weight(m, j)` is
//! non-negative: a negative (or `NaN`) summed weight puts `−∞` into the
//! bound, a `NaN` norm or a `0 · ∞` term makes it `NaN`, and neither
//! compares above any threshold. All remaining terms are non-negative
//! (the minorant is `≥ 0` or `−∞`), so the sum cannot cancel and the few
//! roundings on either side stay far inside the margin. (Products under
//! `f64::MIN_POSITIVE` — summed weights below `1e-146` — round in
//! absolute steps the margin does not cover.)
//! [`ComponentBlocks::scan_range_into`] is the kernel at threshold `+∞`,
//! where nothing is pruned.
//!
//! Both sweeps run against a per-query [`QueryGrams`] context so the
//! query's own squared norms are hoisted out of the candidate loop.

use amcad_manifold::{
    atan_kappa, atan_kappa_minorant, diff_norm_gram, distance_gram, dot, norm_sq, ProductManifold,
};

/// Candidates per call of the chunk kernel: small enough that a chunk's
/// distance lane lives on the stack and its norm lanes stay in L1, large
/// enough that the component-outer loops amortise their setup. Shared
/// with the quantised backend's table scan.
pub const SCAN_CHUNK: usize = 128;

/// What the bound is multiplied by before it is compared with the
/// threshold: covers the roundings of the bound and of the distance it
/// bounds (see the module doc and `atan_kappa_minorant`).
const BOUND_MARGIN: f64 = 1.0 - 1e-12;

/// Per-component SoA mirror of a point set: fixed-stride coordinate blocks
/// plus precomputed squared norms and attention weights, one lane per
/// curvature component.
#[derive(Debug, Clone, Default)]
pub struct ComponentBlocks {
    dims: Vec<usize>,
    offsets: Vec<usize>,
    kappas: Vec<f64>,
    coords: Vec<Vec<f64>>,
    sq_norms: Vec<Vec<f64>>,
    weights: Vec<Vec<f64>>,
    len: usize,
}

/// Per-query scan context: the query's squared norm in every component,
/// computed once and reused across the whole candidate sweep.
#[derive(Debug, Clone)]
pub struct QueryGrams {
    q2: Vec<f64>,
}

impl ComponentBlocks {
    /// Empty blocks shaped for `manifold`.
    pub fn new(manifold: &ProductManifold) -> Self {
        let m = manifold.num_subspaces();
        ComponentBlocks {
            dims: manifold.subspaces().iter().map(|s| s.dim).collect(),
            offsets: (0..m).map(|i| manifold.range(i).start).collect(),
            kappas: manifold.subspaces().iter().map(|s| s.kappa).collect(),
            coords: vec![Vec::new(); m],
            sq_norms: vec![Vec::new(); m],
            weights: vec![Vec::new(); m],
            len: 0,
        }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of curvature components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.dims.len()
    }

    /// Dimension of component `m`.
    #[inline]
    pub fn dim(&self, m: usize) -> usize {
        self.dims[m]
    }

    /// Curvature of component `m`.
    #[inline]
    pub fn kappa(&self, m: usize) -> f64 {
        self.kappas[m]
    }

    /// The contiguous coordinate block of component `m` (`len × dim(m)`).
    #[inline]
    pub fn coords(&self, m: usize) -> &[f64] {
        &self.coords[m]
    }

    /// Component `m` of stored point `j` — a `dim(m)`-long unit-stride slice.
    #[inline]
    pub fn coords_of(&self, m: usize, j: usize) -> &[f64] {
        let d = self.dims[m];
        &self.coords[m][j * d..(j + 1) * d]
    }

    /// Precomputed `‖y_m‖²` of stored point `j`.
    #[inline]
    pub fn sq_norm(&self, m: usize, j: usize) -> f64 {
        self.sq_norms[m][j]
    }

    /// Attention weight of component `m` at stored point `j`.
    #[inline]
    pub fn stored_weight(&self, m: usize, j: usize) -> f64 {
        self.weights[m][j]
    }

    /// Append one point (an AoS slice of the manifold's total dimension)
    /// with its per-component attention weights, splitting it into the
    /// per-component blocks and precomputing its squared norms.
    pub fn push(&mut self, point: &[f64], weight: &[f64]) {
        for m in 0..self.dims.len() {
            let comp = &point[self.offsets[m]..self.offsets[m] + self.dims[m]];
            self.coords[m].extend_from_slice(comp);
            self.sq_norms[m].push(norm_sq(comp));
            self.weights[m].push(weight[m]);
        }
        self.len += 1;
    }

    /// Drop every stored point, keeping the component shape.
    pub fn clear(&mut self) {
        for m in 0..self.dims.len() {
            self.coords[m].clear();
            self.sq_norms[m].clear();
            self.weights[m].clear();
        }
        self.len = 0;
    }

    /// The per-query context for the chunked kernels: the query's squared
    /// norm in every component, computed with the same reduction as the
    /// stored-point norms so identical coordinates give identical bits.
    pub fn query_grams(&self, query: &[f64]) -> QueryGrams {
        let mut q2 = Vec::with_capacity(self.dims.len());
        for m in 0..self.dims.len() {
            q2.push(norm_sq(
                &query[self.offsets[m]..self.offsets[m] + self.dims[m]],
            ));
        }
        QueryGrams { q2 }
    }

    /// Attention-weighted distance of an external query to stored point `j`
    /// — one scattered evaluation, no allocation. `query` is an AoS slice,
    /// `query_weight` one weight per component; the effective component
    /// weight is `query_weight[m] + stored_weight(m, j)`.
    #[inline]
    pub fn distance_to(&self, query: &[f64], query_weight: &[f64], j: usize) -> f64 {
        let mut acc = 0.0;
        for m in 0..self.dims.len() {
            let qm = &query[self.offsets[m]..self.offsets[m] + self.dims[m]];
            let d = distance_gram(
                norm_sq(qm),
                self.sq_norms[m][j],
                dot(qm, self.coords_of(m, j)),
                self.kappas[m],
            );
            acc += (query_weight[m] + self.weights[m][j]) * d;
        }
        acc
    }

    /// Attention-weighted distance between stored point `i` of this block
    /// set and stored point `j` of `other` (same manifold shape) — both
    /// squared norms come precomputed.
    #[inline]
    pub fn distance_between(&self, i: usize, other: &ComponentBlocks, j: usize) -> f64 {
        let mut acc = 0.0;
        for m in 0..self.dims.len() {
            let d = distance_gram(
                self.sq_norms[m][i],
                other.sq_norms[m][j],
                dot(self.coords_of(m, i), other.coords_of(m, j)),
                self.kappas[m],
            );
            acc += (self.weights[m][i] + other.weights[m][j]) * d;
        }
        acc
    }

    /// Scratch for [`ComponentBlocks::scan_chunk_into`]: one
    /// [`SCAN_CHUNK`]-long norm lane per component. Allocate once per
    /// worker or per search and pass it down.
    pub(crate) fn norm_lanes(&self) -> Vec<f64> {
        vec![0.0; self.dims.len() * SCAN_CHUNK]
    }

    /// The two-pass chunk kernel (see the module doc) over the candidates
    /// `start..start + out.len()`, at most [`SCAN_CHUNK`] of them: writes
    /// into `out` each candidate's attention-weighted distance —
    /// bit-identical to [`ComponentBlocks::distance_to`] — or `+∞` where a
    /// lower bound already puts the distance above `threshold`.
    /// `norm_lanes` comes from [`ComponentBlocks::norm_lanes`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_chunk_into(
        &self,
        grams: &QueryGrams,
        query: &[f64],
        query_weight: &[f64],
        start: usize,
        threshold: f64,
        norm_lanes: &mut [f64],
        out: &mut [f64],
    ) {
        let len = out.len();
        debug_assert!(len <= SCAN_CHUNK);
        debug_assert_eq!(norm_lanes.len(), self.dims.len() * SCAN_CHUNK);
        // pass 1: per-component norms, and the lower bound summed into `out`
        out.fill(0.0);
        for m in 0..self.dims.len() {
            let d = self.dims[m];
            let qm = &query[self.offsets[m]..self.offsets[m] + d];
            let q2 = grams.q2[m];
            let qw = query_weight[m];
            let kappa = self.kappas[m];
            let block = &self.coords[m][start * d..(start + len) * d];
            let sq_norms = &self.sq_norms[m][start..start + len];
            let weights = &self.weights[m][start..start + len];
            let lane = &mut norm_lanes[m * SCAN_CHUNK..m * SCAN_CHUNK + len];
            for (jj, bound) in out.iter_mut().enumerate() {
                let norm = diff_norm_gram(
                    q2,
                    sq_norms[jj],
                    dot(qm, &block[jj * d..(jj + 1) * d]),
                    kappa,
                );
                lane[jj] = norm;
                let weight = qw + weights[jj];
                *bound += if weight >= 0.0 {
                    weight * (2.0 * atan_kappa_minorant(norm, kappa))
                } else {
                    f64::NEG_INFINITY
                };
            }
        }
        // pass 2: the distance itself, for the candidates the bound keeps
        for (jj, o) in out.iter_mut().enumerate() {
            if *o * BOUND_MARGIN > threshold {
                *o = f64::INFINITY;
                continue;
            }
            let mut acc = 0.0;
            for m in 0..self.dims.len() {
                let dist = 2.0 * atan_kappa(norm_lanes[m * SCAN_CHUNK + jj], self.kappas[m]);
                acc += (query_weight[m] + self.weights[m][start + jj]) * dist;
            }
            *o = acc;
        }
    }

    /// Sweep over the contiguous candidate range `start..start + out.len()`:
    /// writes each candidate's attention-weighted distance into `out`,
    /// bit-identical to calling [`ComponentBlocks::distance_to`] per
    /// candidate. This is the chunk kernel at threshold `+∞` (nothing
    /// pruned), [`SCAN_CHUNK`] candidates at a time.
    pub fn scan_range_into(
        &self,
        grams: &QueryGrams,
        query: &[f64],
        query_weight: &[f64],
        start: usize,
        out: &mut [f64],
    ) {
        let mut norm_lanes = self.norm_lanes();
        for (c, chunk) in out.chunks_mut(SCAN_CHUNK).enumerate() {
            self.scan_chunk_into(
                grams,
                query,
                query_weight,
                start + c * SCAN_CHUNK,
                f64::INFINITY,
                &mut norm_lanes,
                chunk,
            );
        }
    }

    /// Gathered sweep over an arbitrary index list (`out.len() == indices
    /// .len()`): [`ComponentBlocks::distance_to`] per listed candidate,
    /// component-outer, following `indices` into the blocks — the shape
    /// IVF cluster probes and HNSW neighbour batches use.
    pub fn scan_indices_into(
        &self,
        grams: &QueryGrams,
        query: &[f64],
        query_weight: &[f64],
        indices: &[usize],
        out: &mut [f64],
    ) {
        debug_assert_eq!(indices.len(), out.len());
        out.fill(0.0);
        for m in 0..self.dims.len() {
            let qm = &query[self.offsets[m]..self.offsets[m] + self.dims[m]];
            let q2 = grams.q2[m];
            let kappa = self.kappas[m];
            for (jj, o) in out.iter_mut().enumerate() {
                let j = indices[jj];
                let dist = distance_gram(
                    q2,
                    self.sq_norms[m][j],
                    dot(qm, self.coords_of(m, j)),
                    kappa,
                );
                *o += (query_weight[m] + self.weights[m][j]) * dist;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_manifold::SubspaceSpec;

    fn manifold() -> ProductManifold {
        ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(3, 0.7)])
    }

    fn blocks_of(points: &[(Vec<f64>, Vec<f64>)]) -> ComponentBlocks {
        let m = manifold();
        let mut blocks = ComponentBlocks::new(&m);
        for (tangent, weight) in points {
            blocks.push(&m.exp0(tangent), weight);
        }
        blocks
    }

    fn sample() -> ComponentBlocks {
        blocks_of(&[
            (vec![0.1, -0.2, 0.05, 0.1, -0.1], vec![0.6, 0.4]),
            (vec![-0.05, 0.1, 0.2, -0.1, 0.02], vec![0.3, 0.7]),
            (vec![0.25, 0.15, -0.12, 0.07, 0.2], vec![0.5, 0.5]),
            (vec![0.0, 0.0, 0.0, 0.0, 0.0], vec![0.9, 0.1]),
        ])
    }

    #[test]
    fn layout_splits_components_at_fixed_stride() {
        let blocks = sample();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks.num_components(), 2);
        assert_eq!(blocks.dim(0), 2);
        assert_eq!(blocks.dim(1), 3);
        assert_eq!(blocks.coords(0).len(), 4 * 2);
        assert_eq!(blocks.coords(1).len(), 4 * 3);
        assert_eq!(blocks.coords_of(1, 2).len(), 3);
        assert!((blocks.kappa(0) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn stored_norms_match_a_fresh_reduction() {
        let blocks = sample();
        for j in 0..blocks.len() {
            for m in 0..blocks.num_components() {
                assert_eq!(blocks.sq_norm(m, j), norm_sq(blocks.coords_of(m, j)));
            }
        }
    }

    #[test]
    fn distance_matches_the_reference_weighted_distance() {
        let m = manifold();
        let tangents = [
            vec![0.1, -0.2, 0.05, 0.1, -0.1],
            vec![-0.05, 0.1, 0.2, -0.1, 0.02],
        ];
        let points: Vec<Vec<f64>> = tangents.iter().map(|t| m.exp0(t)).collect();
        let blocks = blocks_of(&[
            (tangents[0].clone(), vec![0.6, 0.4]),
            (tangents[1].clone(), vec![0.3, 0.7]),
        ]);
        let qw = [0.2, 0.8];
        for j in 0..2 {
            let fast = blocks.distance_to(&points[0], &qw, j);
            let w: Vec<f64> = [0.2 + [0.6, 0.3][j], 0.8 + [0.4, 0.7][j]].to_vec();
            let reference = m.weighted_distance(&points[0], &points[j], &w);
            assert!(
                (fast - reference).abs() < 1e-10,
                "j={j}: {fast} vs {reference}"
            );
        }
        // the symmetric member-to-member form agrees with the query form
        let d01 = blocks.distance_between(0, &blocks, 1);
        let via_query = blocks.distance_to(&points[0], &[0.6, 0.4], 1);
        assert_eq!(
            d01, via_query,
            "stored norms must equal the fresh reduction"
        );
    }

    #[test]
    fn chunked_and_gathered_sweeps_are_bit_identical_to_scattered_calls() {
        let m = manifold();
        let blocks = sample();
        let query = m.exp0(&[0.07, 0.21, -0.15, 0.02, 0.11]);
        let qw = [0.45, 0.55];
        let grams = blocks.query_grams(&query);

        let mut chunk = vec![0.0; blocks.len()];
        blocks.scan_range_into(&grams, &query, &qw, 0, &mut chunk);
        for (j, &d) in chunk.iter().enumerate() {
            assert_eq!(d, blocks.distance_to(&query, &qw, j), "range sweep, j={j}");
        }

        let indices = [2usize, 0, 3];
        let mut gathered = vec![0.0; indices.len()];
        blocks.scan_indices_into(&grams, &query, &qw, &indices, &mut gathered);
        for (jj, &j) in indices.iter().enumerate() {
            assert_eq!(
                gathered[jj],
                blocks.distance_to(&query, &qw, j),
                "gathered sweep, j={j}"
            );
        }

        // a mid-block chunk sees the same values as the full sweep
        let mut tail = vec![0.0; 2];
        blocks.scan_range_into(&grams, &query, &qw, 2, &mut tail);
        assert_eq!(&tail[..], &chunk[2..4]);
    }

    #[test]
    fn a_true_top_k_threshold_prunes_most_of_a_clustered_set() {
        // a count of work, not a timing: 64 clusters × 64 points, the query
        // in one of them, threshold = its true 20th distance. Everything
        // the kernel writes is either the exact distance or +∞ for a
        // candidate that is really above the threshold, and at least 80 %
        // of the candidates are dismissed on the bound alone.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = ProductManifold::new(vec![
            SubspaceSpec::new(4, -0.8),
            SubspaceSpec::new(4, 0.0),
            SubspaceSpec::new(4, 0.6),
        ]);
        let mut rng = StdRng::seed_from_u64(64);
        let mut blocks = ComponentBlocks::new(&m);
        let mut tangents = Vec::new();
        for _cluster in 0..64 {
            let centre: Vec<f64> = (0..12).map(|_| rng.gen_range(-0.6..0.6)).collect();
            for _point in 0..64 {
                let t: Vec<f64> = centre
                    .iter()
                    .map(|c| c + rng.gen_range(-0.02..0.02))
                    .collect();
                let w0: f64 = rng.gen_range(0.1..0.5);
                let w1: f64 = rng.gen_range(0.1..0.4);
                blocks.push(&m.exp0(&t), &[w0, w1, 1.0 - w0 - w1]);
                tangents.push(t);
            }
        }
        let query = m.exp0(&tangents[17 * 64 + 5]);
        let qw = [0.3, 0.3, 0.4];
        let exact: Vec<f64> = (0..blocks.len())
            .map(|j| blocks.distance_to(&query, &qw, j))
            .collect();
        let mut sorted = exact.clone();
        sorted.sort_by(f64::total_cmp);
        let threshold = sorted[19];

        let grams = blocks.query_grams(&query);
        let mut lanes = blocks.norm_lanes();
        let mut out = vec![0.0; blocks.len()];
        for (c, chunk) in out.chunks_mut(SCAN_CHUNK).enumerate() {
            let start = c * SCAN_CHUNK;
            blocks.scan_chunk_into(&grams, &query, &qw, start, threshold, &mut lanes, chunk);
        }
        let mut pruned = 0;
        for (j, (&got, &want)) in out.iter().zip(&exact).enumerate() {
            if got.to_bits() == want.to_bits() {
                continue;
            }
            assert_eq!(got, f64::INFINITY, "j={j}: neither exact nor pruned");
            assert!(want > threshold, "j={j}: pruned a top-20 candidate");
            pruned += 1;
        }
        assert!(
            pruned * 5 >= blocks.len() * 4,
            "only {pruned} of {} candidates pruned",
            blocks.len()
        );
    }

    #[test]
    fn a_bound_that_equals_the_threshold_is_evaluated_not_pruned() {
        // at κ = 0 the bound IS the distance, so a tie with the threshold —
        // a duplicate of the worst kept entry, which a smaller id may yet
        // displace — must come back as the distance; just under it, pruned
        let m = ProductManifold::new(vec![SubspaceSpec::new(3, 0.0)]);
        let mut blocks = ComponentBlocks::new(&m);
        blocks.push(&[0.3, -0.2, 0.1], &[0.7]);
        let query = [0.05, 0.4, -0.3];
        let qw = [0.6];
        let exact = blocks.distance_to(&query, &qw, 0);
        let grams = blocks.query_grams(&query);
        let mut lanes = blocks.norm_lanes();
        let mut out = [0.0];
        blocks.scan_chunk_into(&grams, &query, &qw, 0, exact, &mut lanes, &mut out);
        assert_eq!(out[0].to_bits(), exact.to_bits());
        let below = exact * (1.0 - 1e-9);
        blocks.scan_chunk_into(&grams, &query, &qw, 0, below, &mut lanes, &mut out);
        assert_eq!(out[0], f64::INFINITY);
    }

    #[test]
    fn clear_empties_but_keeps_the_shape() {
        let mut blocks = sample();
        blocks.clear();
        assert!(blocks.is_empty());
        assert_eq!(blocks.num_components(), 2);
        let m = manifold();
        blocks.push(&m.exp0(&[0.1, 0.1, 0.1, 0.1, 0.1]), &[0.5, 0.5]);
        assert_eq!(blocks.len(), 1);
    }
}
