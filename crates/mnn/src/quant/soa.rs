//! Structure-of-arrays point storage: the scan side of [`crate::MixedPointSet`].
//!
//! Every distance the backends evaluate decomposes per curvature component
//! into three Gram quantities — `‖x‖²`, `‖y‖²`, `⟨x, y⟩` — of which the
//! stored-point norms can be precomputed once at insert time
//! ([`amcad_manifold::distance_gram`]). [`ComponentBlocks`] therefore keeps
//! each component's coordinates in its own contiguous fixed-stride block
//! (`n × dim_m`), alongside per-component squared-norm and attention-weight
//! lanes — no allocation, no AoS pointer chasing.
//!
//! Scattered and gathered evaluations — [`ComponentBlocks::distance_to`] /
//! [`ComponentBlocks::distance_between`] (HNSW beam hops, IVF residuals)
//! and [`ComponentBlocks::scan_indices_into`] (IVF cluster probes, HNSW
//! neighbour batches) — call [`amcad_manifold::distance_gram`] per
//! candidate and component.
//!
//! The contiguous sweep the exact scan runs is a two-pass chunk kernel.
//! Pass 1 (`ComponentBlocks::scan_chunk_bounds`) takes up to
//! [`SCAN_CHUNK`] candidates component by component, in two loops:
//!
//! * the dot products `⟨x, y⟩`, four candidates at a time
//!   ([`amcad_manifold::dot4`]: four independent chains, each in `dot`'s
//!   summation order, so each holds `dot`'s bits);
//! * the arithmetic half of the distance
//!   ([`amcad_manifold::diff_norm_gram`]) into a caller-owned norm lane,
//!   and a lower bound on the weighted distance from one curvature arm of
//!   [`amcad_manifold::atan_kappa_minorant`], summed into a bound lane.
//!   The curvature branch is taken once per component and chunk, outside
//!   the loop, so the loop body is straight-line: in the release build it
//!   compiles to packed SSE2 (`mulpd` / `addpd` / `divpd` / `sqrtpd`),
//!   where a curvature test per candidate had left it scalar.
//!
//! Pass 2 (`ComponentBlocks::finish`) evaluates `tan⁻¹_κ` and the
//! weighted sum — the operations of `distance_to`, in its order, so the
//! bits of `distance_to` — for one candidate. The exact scan finishes a
//! candidate only when `prunable` says its bound does not put it above
//! the top-K's threshold as it stands at that candidate: an `ln_1p` /
//! `atan` is paid only where the distance could enter the top-K.
//! [`ComponentBlocks::scan_range_into`] finishes every candidate.
//!
//! A candidate is only ever pruned on a sound bound. The minorant bounds
//! `tan⁻¹_κ` from below, so a term bounds its component's contribution
//! only when the summed weight `query_weight[m] + stored_weight(m, j)` is
//! non-negative: a negative (or `NaN`) summed weight puts `−∞` into the
//! bound, a `NaN` norm or a `0 · ∞` term makes it `NaN`, and neither
//! compares above any threshold. All remaining terms are non-negative
//! (the minorant is `≥ 0` or `−∞`), so the sum cannot cancel and the few
//! roundings on either side stay far inside the `1e-12` margin the bound
//! is shrunk by. (Products under `f64::MIN_POSITIVE` — summed weights
//! below `1e-146` — round in absolute steps the margin does not cover.)
//!
//! Both sweeps run against a per-query [`QueryGrams`] context so the
//! query's own squared norms are hoisted out of the candidate loop.
//!
//! **Block bounds.** The exact scan also skips whole clusters of
//! candidates (see [`crate::brute`]), on a bound this module computes
//! (`BlockCovers`): per cluster and component, a centre `c_m`, a covering
//! radius `r_m` (the largest computed distance from the centre to a
//! member) and the least member weight `ŵ_m`, and for every member `a`
//! of it
//!
//! ```text
//! dist(q, a) ≥ Σ_m (w_q,m + ŵ_m) · max(0, d_m(q, c_m) − r_m − slack_m).
//! ```
//!
//! The centres are swept like candidates in pass 1, and `d_m(q, c_m)`
//! is taken from the same minorant, so every cluster's bound costs what a
//! candidate's pass 1 costs. The triangle inequality holds for the true
//! geodesic; the *computed* distances keep it only up to `slack_m`
//! ([`amcad_manifold::triangle_slack`], at most `1e-6` of the norms
//! involved, stretched by the conformal factor near the hyperbolic edge),
//! and only inside [`amcad_manifold::in_triangle_domain`]. A member
//! outside that domain is never covered by a cluster, and a centre or a
//! query outside it makes the bound `−∞`. As for single candidates, a
//! negative or `NaN` summed weight makes a term `−∞`, a `NaN` gap counts
//! as 0, a `NaN` bound becomes `−∞`, and the sum is shrunk by the same
//! `1e-12` margin before it is compared.

use std::ops::Range;

use amcad_manifold::{
    atan_kappa, atan_kappa_minorant_flat, atan_kappa_minorant_hyperbolic,
    atan_kappa_minorant_spherical, diff_norm_gram, distance_gram, dot, dot4, exp_map_origin,
    in_triangle_domain, norm_sq, triangle_stretch, ProductManifold, KAPPA_EPS, TRIANGLE_SLACK,
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

/// Whether a candidate whose pass-1 bound is `bound` can be skipped
/// against a top-K `threshold`: its bound, shrunk by [`BOUND_MARGIN`], is
/// above the threshold. A `NaN` bound prunes nothing, and a bound equal
/// to the threshold is not pruned — a tie may still enter on its id.
#[inline]
pub(crate) fn prunable(bound: f64, threshold: f64) -> bool {
    bound * BOUND_MARGIN > threshold
}

/// Candidates whose dot products pass 1 computes side by side
/// ([`amcad_manifold::dot4`]): independent summation chains hide the add
/// latency a single serial `dot` waits on. Measured on a 2-vCPU x86-64
/// box, single-threaded c6k `IndexSet::build` medians: one lane
/// 0.88–0.99 s, two 0.70–0.86 s, four 0.65–0.70 s, eight 0.68–0.70 s —
/// eight buys nothing over four.
const DOT_LANES: usize = 4;

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

    /// Whether stored point `j` can be covered by a block bound
    /// ([`BlockCovers`]): every component in
    /// [`amcad_manifold::in_triangle_domain`] and every weight finite.
    pub(crate) fn in_triangle_domain(&self, j: usize) -> bool {
        (0..self.dims.len()).all(|m| {
            in_triangle_domain(self.sq_norms[m][j], self.kappas[m])
                && self.weights[m][j].is_finite()
        })
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

    /// The stored points in `order` (indices into `self`): coordinates,
    /// squared norms and weights copied bit for bit.
    pub(crate) fn permuted(&self, order: &[usize]) -> ComponentBlocks {
        let gather = |lane: &[f64], d: usize| -> Vec<f64> {
            let mut out = Vec::with_capacity(order.len() * d);
            for &j in order {
                out.extend_from_slice(&lane[j * d..(j + 1) * d]);
            }
            out
        };
        ComponentBlocks {
            dims: self.dims.clone(),
            offsets: self.offsets.clone(),
            kappas: self.kappas.clone(),
            coords: (0..self.dims.len())
                .map(|m| gather(&self.coords[m], self.dims[m]))
                .collect(),
            sq_norms: self.sq_norms.iter().map(|lane| gather(lane, 1)).collect(),
            weights: self.weights.iter().map(|lane| gather(lane, 1)).collect(),
            len: order.len(),
        }
    }

    /// Append `other`'s lanes bit for bit, reserving exactly: a held set
    /// that grows by small appends is not left at twice its size.
    pub(crate) fn append(&mut self, other: &ComponentBlocks) {
        assert!(
            self.dims == other.dims && self.kappas == other.kappas,
            "appended points must live on the same manifold"
        );
        let lanes = (self.coords.iter_mut().zip(&other.coords))
            .chain(self.sq_norms.iter_mut().zip(&other.sq_norms))
            .chain(self.weights.iter_mut().zip(&other.weights));
        for (lane, added) in lanes {
            lane.reserve_exact(added.len());
            lane.extend_from_slice(added);
        }
        self.len += other.len;
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

    /// Scratch for [`ComponentBlocks::scan_chunk_bounds`]: one
    /// [`SCAN_CHUNK`]-long norm lane per component. Allocate once per
    /// worker or per search and pass it down.
    pub(crate) fn norm_lanes(&self) -> Vec<f64> {
        vec![0.0; self.dims.len() * SCAN_CHUNK]
    }

    /// Pass 1 of the chunk kernel (see the module doc) over the candidates
    /// `start..start + bounds.len()`, at most [`SCAN_CHUNK`] of them:
    /// writes each candidate's per-component norm
    /// ([`amcad_manifold::diff_norm_gram`]) into `norm_lanes` and a lower
    /// bound on its attention-weighted distance into `bounds`.
    /// [`ComponentBlocks::finish`] turns a candidate's norms into its
    /// distance. `norm_lanes` comes from [`ComponentBlocks::norm_lanes`].
    pub(crate) fn scan_chunk_bounds(
        &self,
        grams: &QueryGrams,
        query: &[f64],
        query_weight: &[f64],
        start: usize,
        norm_lanes: &mut [f64],
        bounds: &mut [f64],
    ) {
        let len = bounds.len();
        debug_assert!(len <= SCAN_CHUNK);
        debug_assert_eq!(norm_lanes.len(), self.dims.len() * SCAN_CHUNK);
        bounds.fill(0.0);
        for m in 0..self.dims.len() {
            let d = self.dims[m];
            let qm = &query[self.offsets[m]..self.offsets[m] + d];
            let lane = &mut norm_lanes[m * SCAN_CHUNK..m * SCAN_CHUNK + len];
            self.dot_lane(m, qm, start, lane);
            // the lane's dot products become norms and the bound grows by
            // this component's term; the curvature branch is taken here,
            // once, so each loop below is straight-line and vectorises
            let kappa = self.kappas[m];
            let lane_bounds = LaneBounds {
                q2: grams.q2[m],
                query_weight: query_weight[m],
                kappa,
                sq_norms: &self.sq_norms[m][start..start + len],
                weights: &self.weights[m][start..start + len],
            };
            if kappa < -KAPPA_EPS {
                let inv_s = 1.0 / (-kappa).sqrt();
                lane_bounds.add(lane, bounds, |y| atan_kappa_minorant_hyperbolic(y, inv_s));
            } else if kappa > KAPPA_EPS {
                lane_bounds.add(lane, bounds, |y| atan_kappa_minorant_spherical(y, kappa));
            } else {
                lane_bounds.add(lane, bounds, |y| atan_kappa_minorant_flat(y, kappa));
            }
        }
    }

    /// `⟨qm, y_m⟩` of component `m` for the stored points `start..start +
    /// lane.len()` into `lane`, [`DOT_LANES`] points per step.
    #[inline(always)]
    fn dot_lane(&self, m: usize, qm: &[f64], start: usize, lane: &mut [f64]) {
        let (d, len) = (self.dims[m], lane.len());
        let block = &self.coords[m][start * d..(start + len) * d];
        let whole = len - len % DOT_LANES;
        for jj in (0..whole).step_by(DOT_LANES) {
            let row = |i: usize| &block[(jj + i) * d..];
            lane[jj..jj + DOT_LANES].copy_from_slice(&dot4(qm, [row(0), row(1), row(2), row(3)]));
        }
        for jj in whole..len {
            lane[jj] = dot(qm, &block[jj * d..(jj + 1) * d]);
        }
    }

    /// Pass 2 of the chunk kernel for one candidate, `start + jj`, after
    /// [`ComponentBlocks::scan_chunk_bounds`] filled `norm_lanes`: its
    /// attention-weighted distance, in the operations and order of
    /// [`ComponentBlocks::distance_to`] and so bit-identical to it.
    #[inline]
    pub(crate) fn finish(
        &self,
        query_weight: &[f64],
        start: usize,
        jj: usize,
        norm_lanes: &[f64],
    ) -> f64 {
        let mut acc = 0.0;
        for m in 0..self.dims.len() {
            let dist = 2.0 * atan_kappa(norm_lanes[m * SCAN_CHUNK + jj], self.kappas[m]);
            acc += (query_weight[m] + self.weights[m][start + jj]) * dist;
        }
        acc
    }

    /// Sweep over the contiguous candidate range `start..start + out.len()`:
    /// writes each candidate's attention-weighted distance into `out`,
    /// bit-identical to calling [`ComponentBlocks::distance_to`] per
    /// candidate. This is the chunk kernel with every candidate finished,
    /// [`SCAN_CHUNK`] candidates at a time.
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
            let start = start + c * SCAN_CHUNK;
            self.scan_chunk_bounds(grams, query, query_weight, start, &mut norm_lanes, chunk);
            for (jj, o) in chunk.iter_mut().enumerate() {
                *o = self.finish(query_weight, start, jj, &norm_lanes);
            }
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

/// The covering data of the clusters of a [`ComponentBlocks`] whose
/// clusters are contiguous runs: per cluster and per component, a centre
/// `c_m`, a covering radius `r_m` — the largest computed distance from
/// `c_m` to a member — the members' least attention weight `ŵ_m`, and the
/// largest norm and squared norm among the centre and the members. For
/// every member `a` of a cluster,
///
/// ```text
/// dist(q, a) ≥ Σ_m (w_q,m + ŵ_m) · max(0, d_m(q, c_m) − r_m − slack_m)
/// ```
///
/// which [`BlockCovers::bounds`] evaluates for every cluster at once: the
/// triangle inequality of each component's geodesic in the form the
/// computed distances keep it (`slack_m` is
/// [`amcad_manifold::triangle_slack`] of the cluster's norms and the
/// query's), and `w_q,m + ŵ_m ≤ w_q,m + w_a,m`.
#[derive(Debug, Clone)]
pub(crate) struct BlockCovers {
    /// One stored point per cluster: its centre, weighted by the members'
    /// least weights — or by `−∞` where the centre leaves the triangle
    /// domain, which makes the cluster's bound `−∞`.
    centres: ComponentBlocks,
    /// Per component, per cluster: `r_m`.
    radius: Vec<Vec<f64>>,
    /// Per component, per cluster: the stretch `s_c`
    /// ([`amcad_manifold::triangle_stretch`]) of the largest of `‖c_m‖²`
    /// and the members' squared norms.
    stretch: Vec<Vec<f64>>,
    /// Per component, per cluster: `(‖c_m‖ + max ‖a_m‖) · s_c`.
    stretched_norms: Vec<Vec<f64>>,
}

impl BlockCovers {
    /// Covers of `clusters`, contiguous runs of `blocks` whose members
    /// all lie in the triangle domain
    /// ([`ComponentBlocks::in_triangle_domain`]). `tangents` holds the
    /// members' `log0` tangent vectors, flat and in block order; a
    /// cluster's centre is `exp0` of its members' tangent mean.
    pub(crate) fn new(
        blocks: &ComponentBlocks,
        clusters: &[Range<usize>],
        tangents: &[f64],
    ) -> Self {
        let comps = blocks.num_components();
        let total_dim: usize = blocks.dims.iter().sum();
        let mut covers = BlockCovers {
            centres: blocks.permuted(&[]),
            radius: vec![Vec::new(); comps],
            stretch: vec![Vec::new(); comps],
            stretched_norms: vec![Vec::new(); comps],
        };
        let mut mean = vec![0.0; total_dim];
        let (mut centre, mut least) = (Vec::with_capacity(total_dim), vec![0.0; comps]);
        for run in clusters {
            mean.fill(0.0);
            for t in tangents[run.start * total_dim..run.end * total_dim].chunks_exact(total_dim) {
                mean.iter_mut().zip(t).for_each(|(s, t)| *s += t);
            }
            mean.iter_mut().for_each(|s| *s /= run.len() as f64);
            centre.clear();
            for (m, least) in least.iter_mut().enumerate() {
                let (offset, d, kappa) = (blocks.offsets[m], blocks.dims[m], blocks.kappas[m]);
                let c = exp_map_origin(&mean[offset..offset + d], kappa);
                let c2 = norm_sq(&c);
                let (mut radius, mut max_norm, mut max_sq) = (0.0f64, 0.0f64, c2);
                *least = f64::INFINITY;
                for j in run.clone() {
                    let y2 = blocks.sq_norms[m][j];
                    radius = radius.max(distance_gram(
                        c2,
                        y2,
                        dot(&c, blocks.coords_of(m, j)),
                        kappa,
                    ));
                    *least = least.min(blocks.weights[m][j]);
                    max_norm = max_norm.max(y2.sqrt());
                    max_sq = max_sq.max(y2);
                }
                if !in_triangle_domain(c2, kappa) {
                    *least = f64::NEG_INFINITY;
                }
                let stretch = triangle_stretch(max_sq, kappa);
                covers.radius[m].push(radius);
                covers.stretch[m].push(stretch);
                covers.stretched_norms[m].push((c2.sqrt() + max_norm) * stretch);
                centre.extend(c);
            }
            covers.centres.push(&centre, &least);
        }
        covers
    }

    /// Number of clusters.
    pub(crate) fn len(&self) -> usize {
        self.centres.len()
    }

    /// Every cluster's lower bound (see the type doc) into `out`
    /// (`out.len() == self.len()`): `−∞` where none holds — the query
    /// leaves the triangle domain, a centre does, or a summed weight
    /// `w_q,m + ŵ_m` is negative or `NaN` — and never `NaN`. Into `depth`
    /// goes the same sum without the `max(0, ·)`, negative the deeper the
    /// query sits inside the cluster: an order among clusters whose
    /// bounds tie, never a bound. The centres are swept like candidates
    /// in pass 1 of the chunk kernel, with the curvature arm of
    /// [`amcad_manifold::atan_kappa_minorant`] standing in for
    /// `d_m(q, c_m)`; `norm_lanes` is that kernel's scratch.
    pub(crate) fn bounds(
        &self,
        grams: &QueryGrams,
        query: &[f64],
        query_weight: &[f64],
        norm_lanes: &mut [f64],
        out: &mut [f64],
        depth: &mut [f64],
    ) {
        let centres = &self.centres;
        let comps = centres.num_components();
        depth.fill(0.0);
        if !(0..comps).all(|m| in_triangle_domain(grams.q2[m], centres.kappas[m])) {
            out.fill(f64::NEG_INFINITY);
            return;
        }
        out.fill(0.0);
        for (chunk, (out, depth)) in out
            .chunks_mut(SCAN_CHUNK)
            .zip(depth.chunks_mut(SCAN_CHUNK))
            .enumerate()
        {
            let (start, len) = (chunk * SCAN_CHUNK, out.len());
            for m in 0..comps {
                let d = centres.dims[m];
                let qm = &query[centres.offsets[m]..centres.offsets[m] + d];
                let lane = &mut norm_lanes[m * SCAN_CHUNK..m * SCAN_CHUNK + len];
                centres.dot_lane(m, qm, start, lane);
                let kappa = centres.kappas[m];
                let run = start..start + len;
                let q2 = grams.q2[m];
                // triangle_slack stretches by max(s_q, s_c); the loop takes
                // the product s_q·s_c, no smaller, and needs no division
                let stretch_q = triangle_stretch(q2, kappa);
                let covers = CoverBounds {
                    q2,
                    query_weight: query_weight[m],
                    kappa,
                    slack_query: TRIANGLE_SLACK * stretch_q * q2.sqrt(),
                    slack_cluster: TRIANGLE_SLACK * stretch_q,
                    sq_norms: &centres.sq_norms[m][run.clone()],
                    least_weights: &centres.weights[m][run.clone()],
                    radius: &self.radius[m][run.clone()],
                    stretch: &self.stretch[m][run.clone()],
                    stretched_norms: &self.stretched_norms[m][run],
                };
                if kappa < -KAPPA_EPS {
                    let inv_s = 1.0 / (-kappa).sqrt();
                    covers.add(lane, out, depth, |y| {
                        atan_kappa_minorant_hyperbolic(y, inv_s)
                    });
                } else if kappa > KAPPA_EPS {
                    covers.add(lane, out, depth, |y| {
                        atan_kappa_minorant_spherical(y, kappa)
                    });
                } else {
                    covers.add(lane, out, depth, |y| atan_kappa_minorant_flat(y, kappa));
                }
            }
        }
        for bound in out.iter_mut().filter(|b| b.is_nan()) {
            *bound = f64::NEG_INFINITY;
        }
    }
}

/// One component's inputs to [`BlockCovers::bounds`], for one chunk of
/// clusters.
struct CoverBounds<'a> {
    q2: f64,
    query_weight: f64,
    kappa: f64,
    /// `TRIANGLE_SLACK · s_q · ‖q‖`, multiplied by each cluster's stretch.
    slack_query: f64,
    /// `TRIANGLE_SLACK · s_q`, multiplied by each cluster's stretched norms.
    slack_cluster: f64,
    sq_norms: &'a [f64],
    least_weights: &'a [f64],
    radius: &'a [f64],
    stretch: &'a [f64],
    stretched_norms: &'a [f64],
}

impl CoverBounds<'_> {
    /// Add each cluster's term for this component to its bound, and the
    /// term before its clamp at 0 to its depth: `lane`
    /// holds `⟨q_m, c_m⟩` per cluster, `minorant` is one curvature arm of
    /// [`amcad_manifold::atan_kappa_minorant`], so `2·minorant(‖(−q)⊕c‖)`
    /// is at most `d_m(q, c_m)`. The slack taken, `TRIANGLE_SLACK · (‖q‖ +
    /// norms) · s_q · s_c`, is at least
    /// [`amcad_manifold::triangle_slack`]'s.
    #[inline(always)]
    fn add(
        &self,
        lane: &[f64],
        bounds: &mut [f64],
        depth: &mut [f64],
        minorant: impl Fn(f64) -> f64,
    ) {
        for (((((((bound, depth), &xy), &c2), &least), &radius), &stretch), &norms) in bounds
            .iter_mut()
            .zip(depth.iter_mut())
            .zip(lane)
            .zip(self.sq_norms)
            .zip(self.least_weights)
            .zip(self.radius)
            .zip(self.stretch)
            .zip(self.stretched_norms)
        {
            let to_centre = 2.0 * minorant(diff_norm_gram(self.q2, c2, xy, self.kappa));
            let slack = self.slack_query * stretch + self.slack_cluster * norms;
            let weight = self.query_weight + least;
            let gap = to_centre - radius - slack;
            // f64::max maps a NaN gap to 0, a term that always holds
            *bound += if weight >= 0.0 {
                weight * gap.max(0.0)
            } else {
                f64::NEG_INFINITY
            };
            *depth += weight * gap;
        }
    }
}

/// One component's inputs to the bound loop of
/// [`ComponentBlocks::scan_chunk_bounds`], for one chunk.
struct LaneBounds<'a> {
    q2: f64,
    query_weight: f64,
    kappa: f64,
    sq_norms: &'a [f64],
    weights: &'a [f64],
}

impl LaneBounds<'_> {
    /// Turn each dot product in `lane` into the candidate's norm and add
    /// the component's weighted minorant to its bound. `minorant` is one
    /// curvature arm of [`amcad_manifold::atan_kappa_minorant`]; each call
    /// site passes its own, so each arm compiles to its own loop.
    #[inline(always)]
    fn add(&self, lane: &mut [f64], bounds: &mut [f64], minorant: impl Fn(f64) -> f64) {
        for (((norm, bound), &y2), &w) in lane
            .iter_mut()
            .zip(bounds.iter_mut())
            .zip(self.sq_norms)
            .zip(self.weights)
        {
            *norm = diff_norm_gram(self.q2, y2, *norm, self.kappa);
            let weight = self.query_weight + w;
            *bound += if weight >= 0.0 {
                weight * (2.0 * minorant(*norm))
            } else {
                f64::NEG_INFINITY
            };
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
        // in one of them, threshold = its true 20th distance. Every bound
        // the kernel writes, shrunk by the margin, is at most the exact
        // distance, every finished distance is the exact one, and at least
        // 80 % of the candidates are dismissed on the bound alone.
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
        let mut bounds = [0.0; SCAN_CHUNK];
        let mut pruned = 0;
        for start in (0..blocks.len()).step_by(SCAN_CHUNK) {
            let len = SCAN_CHUNK.min(blocks.len() - start);
            let bounds = &mut bounds[..len];
            blocks.scan_chunk_bounds(&grams, &query, &qw, start, &mut lanes, bounds);
            for (jj, &bound) in bounds.iter().enumerate() {
                let (j, want) = (start + jj, exact[start + jj]);
                assert!(
                    bound * BOUND_MARGIN <= want,
                    "j={j}: bound {bound} above {want}"
                );
                assert_eq!(
                    blocks.finish(&qw, start, jj, &lanes).to_bits(),
                    want.to_bits(),
                    "j={j}: finished distance is not the exact one"
                );
                if prunable(bound, threshold) {
                    assert!(want > threshold, "j={j}: pruned a top-20 candidate");
                    pruned += 1;
                }
            }
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
        // displace — must be finished, to the distance; just under it,
        // pruned
        let m = ProductManifold::new(vec![SubspaceSpec::new(3, 0.0)]);
        let mut blocks = ComponentBlocks::new(&m);
        blocks.push(&[0.3, -0.2, 0.1], &[0.7]);
        let query = [0.05, 0.4, -0.3];
        let qw = [0.6];
        let exact = blocks.distance_to(&query, &qw, 0);
        let grams = blocks.query_grams(&query);
        let mut lanes = blocks.norm_lanes();
        let mut bound = [0.0];
        blocks.scan_chunk_bounds(&grams, &query, &qw, 0, &mut lanes, &mut bound);
        assert_eq!(bound[0].to_bits(), exact.to_bits());
        assert!(!prunable(bound[0], exact));
        assert_eq!(blocks.finish(&qw, 0, 0, &lanes).to_bits(), exact.to_bits());
        assert!(prunable(bound[0], exact * (1.0 - 1e-9)));
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
