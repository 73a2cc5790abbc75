//! Exact (brute-force) top-K retrieval with data-level parallelism.
//!
//! The paper's MNN module distributes index construction over a fleet of
//! workers and parallelises the per-worker computation with OpenMP (data
//! level) and SIMD (instruction level). Here the data level is
//! [`fork_join()`] over key ranges — several per thread, claimed from a
//! shared counter, so a descheduled thread does not hold the build — and
//! the instruction level is the SoA chunk kernel (see
//! [`crate::quant::soa`]): four dot products side by side and a
//! branch-free bound loop that the release build compiles to packed SSE2
//! arithmetic, checked in its disassembly.
//!
//! The scan is exact and most of it is rejection: of a key's thousands of
//! candidates all but ≈ `k·ln(n/k)` never enter its top-K. It rejects at
//! two grains.
//!
//! * **Whole clusters.** The candidates are laid out once per candidate
//!   set (`ScanLayout`): clustered in tangent space by recursive 2-means
//!   bisection, the SoA blocks permuted so each cluster of at most
//!   `CLUSTER` is a contiguous run, and each cluster covered per
//!   component by a centre, a radius and its least weight
//!   (`BlockCovers`). Each component distance is a geodesic metric and
//!   the weights are `≥ 0`, so `Σ_m (w_q,m + ŵ_m) · max(0, d_m(q, c_m) −
//!   r_m − slack_m)` bounds every member's distance from below — the
//!   M-tree's covering radius (Ciaccia, Patella & Zezula, VLDB 1997) and
//!   Elkan's triangle-inequality pruning (ICML 2003), per component. The
//!   `slack_m` is [`amcad_manifold::triangle_slack`]: how far the
//!   *computed* distances may fall short of the triangle inequality, set
//!   from the property test `crates/manifold/tests/triangle_contract.rs`
//!   the way the per-candidate kernel's margin is. `scan_top_k` computes
//!   every cluster's bound in one vectorised sweep and visits the clusters
//!   in ascending bound — among equal bounds, the cluster the query sits
//!   deepest in first — and stops at the first whose bound, shrunk by
//!   that margin, is above `TopK::threshold()`: no member of it, or of any
//!   cluster after it, can enter. Where the bounds stop discriminating —
//!   more than half the clusters still in reach after one in sixteen has
//!   been visited — the rest is swept in block order instead, neighbouring
//!   clusters merged into one run.
//! * **Single candidates.** Inside every cluster it visits, the chunk
//!   kernel checks each candidate's cheap lower bound against the top-K's
//!   worst distance as it stands at that candidate, so one whose bound is
//!   already above it costs three dot products and no `ln_1p` / `atan`.
//!   `TopK` keeps its worst entry cached and declines a candidate in one
//!   comparison.
//!
//! A bound is only trusted where the numbers keep it: a cluster whose
//! centre, and every candidate whose point, leaves
//! [`amcad_manifold::in_triangle_domain`] — non-finite, off the ball,
//! where the hyperbolic `artanh` clamps, or on the lower half of a sphere,
//! where nearly antipodal pairs clamp the Gram form's `denom` — is never
//! skipped: such candidates form an unbounded tail, scanned last against
//! the tightest threshold, and a query outside the domain gives every
//! cluster the bound `−∞`. A set of
//! fewer than `MIN_CLUSTERED` candidates is all tail, which is the plain
//! chunked scan. Posting lists are the same ids and the same distance bits
//! as a per-candidate `distance_to` followed by a sort.

use std::collections::BinaryHeap;
use std::ops::Range;

use amcad_manifold::{atan_kappa, MIN_NORM};

use crate::cluster::bisection_clusters;
use crate::fork_join::fork_join;
use crate::id_hash::IdHashMap;
use crate::points::MixedPointSet;
use crate::quant::soa::{prunable, BlockCovers, ComponentBlocks, SCAN_CHUNK};

/// One inverted-index posting list: the K nearest candidates of a key, with
/// their mixed-curvature distances, sorted by increasing distance.
pub type Postings = Vec<(u32, f64)>;

/// An inverted index: key node id → top-K nearest candidate ids.
///
/// The keys are the ids the index was built over, so the map hashes with
/// the seedless [`crate::IdHasher`]: a request's ids only probe it and
/// cannot lengthen its chains. Iteration order is deterministic but
/// follows the insertion history, so callers that need an order sort.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    entries: IdHashMap<Postings>,
}

impl InvertedIndex {
    /// Posting list of a key, if present.
    pub fn get(&self, key: u32) -> Option<&Postings> {
        self.entries.get(&key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(key, postings)` pairs, in no specified order.
    pub fn iter(&self) -> impl Iterator<Item = (&u32, &Postings)> {
        self.entries.iter()
    }

    /// Insert a posting list (used by the IVF index and tests).
    pub fn insert(&mut self, key: u32, postings: Postings) {
        self.entries.insert(key, postings);
    }
}

/// Keep the `k` smallest `(distance, id)` pairs of a candidate stream —
/// the cut every backend's search ends in. `NaN` distances count as `+∞`;
/// ties at the cut go to the smaller id, so the kept list does not depend
/// on the order candidates are offered in.
///
/// The entries sit unordered in a `k`-long buffer allocated once, with the
/// position of the worst one cached: an offer that cannot enter — almost
/// every offer of a long scan — is one comparison, and the `k`-entry
/// search for the new worst runs only after a replacement, ≈ `k·ln(n/k)`
/// times over `n` offers in random order.
#[derive(Debug)]
pub(crate) struct TopK {
    entries: Vec<(f64, u32)>,
    len: usize,
    /// Index of the largest `(distance, id)` entry; meaningful once full.
    worst: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            entries: vec![(0.0, 0); k],
            len: 0,
            worst: 0,
        }
    }

    /// The distance a candidate must not exceed to be kept: `+∞` until `k`
    /// entries are held, then the largest kept distance. A scan may skip
    /// any candidate whose distance is above it without offering it.
    #[inline]
    pub(crate) fn threshold(&self) -> f64 {
        match self.entries.get(self.worst) {
            Some(worst) if self.len == self.entries.len() => worst.0,
            _ => f64::INFINITY,
        }
    }

    /// Offer one candidate; it is kept if it is among the `k` smallest
    /// `(distance, id)` pairs offered so far.
    #[inline]
    pub(crate) fn offer(&mut self, distance: f64, id: u32) {
        // Normalise corrupt (NaN) distances to +inf up front: total_cmp
        // would order a sign-bit-set NaN (the hardware default for 0/0)
        // BELOW every real number, letting it head posting lists and
        // squat in the buffer. As +inf it sorts last and any real distance
        // evicts it.
        let distance = if distance.is_nan() {
            f64::INFINITY
        } else {
            distance
        };
        if self.len < self.entries.len() {
            self.entries[self.len] = (distance, id);
            self.len += 1;
            if self.len == self.entries.len() {
                self.find_worst();
            }
        } else if let Some(&worst) = self.entries.get(self.worst) {
            // The kept set is the k smallest by (distance, id) — the id
            // tie-break makes the result independent of candidate scan
            // order, so exact and full-probe IVF scans (which visit
            // candidates in different orders) keep identical sets even
            // when distances tie at the boundary.
            if Self::order(&(distance, id), &worst).is_lt() {
                self.entries[self.worst] = (distance, id);
                self.find_worst();
            }
        }
    }

    // total_cmp keeps the order total and panic-free for any f64 (offer
    // already normalised NaN distances to +inf, so they rank last)
    fn order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    fn find_worst(&mut self) {
        self.worst = (0..self.entries.len())
            .max_by(|&a, &b| Self::order(&self.entries[a], &self.entries[b]))
            .unwrap_or(0);
    }

    pub(crate) fn into_sorted(mut self) -> Postings {
        self.entries.truncate(self.len);
        self.entries.sort_by(Self::order);
        self.entries.into_iter().map(|(d, id)| (id, d)).collect()
    }
}

/// Most candidates per cluster of a [`ScanLayout`]. Measured on a 2-vCPU
/// x86-64 box over 512 keys of a c6k-shaped scene (64 categories, 4 096
/// candidates, k = 20; the crate's `category_set`), per-key time against
/// the same set as one unbounded cluster: clusters of 16 scan 2.3 % of
/// the candidates at 0.19× the time, of 32 3.9 % at 0.15×; on the same
/// scene at `U(±0.3)`, where nothing is skipped, 16 cost 1.11× and 32
/// 1.05×.
const CLUSTER: usize = 32;

/// The fewest candidates a [`ScanLayout`] clusters. Below it the layout
/// is one unbounded cluster: the whole set, scanned in its own order.
const MIN_CLUSTERED: usize = 2 * CLUSTER;

/// The one candidate layout of the exact scan: the candidate set's SoA
/// blocks permuted so that every cluster is a contiguous run, with the
/// clusters' `BlockCovers`. The clusters are `cluster::bisection_clusters`
/// of the `log0` tangents of the candidates in the triangle domain
/// (`ComponentBlocks::in_triangle_domain`); the others follow as one
/// unbounded tail. Laid out deterministically from the points alone
/// (`threads` only shares out the bisection), then kept across churn:
/// [`ScanLayout::retire`] marks members dead where they stand — a cover of
/// a superset still bounds every live member — and [`ScanLayout::append`]
/// adds to the tail. Each member keeps its corpus rank, a permutation of
/// `0..len`: laying out ranks the members in corpus order, and an appended
/// member's rank is its position ([`ScanLayout::corpus_order`]).
#[derive(Debug, Clone)]
pub struct ScanLayout {
    blocks: ComponentBlocks,
    ids: Vec<u32>,
    /// By position: corpus ranks.
    ranks: Vec<u32>,
    /// By position: retired members, never offered.
    dead: Vec<bool>,
    retired: usize,
    /// Members when laid out; the ones after were appended.
    laid_out: usize,
    /// The covered clusters' runs, in block order.
    clusters: Vec<Range<usize>>,
    covers: BlockCovers,
    /// Where the unbounded tail starts; it runs to the end.
    tail: usize,
}

impl ScanLayout {
    /// Lay `candidates` out, bisecting on `threads`.
    pub fn new(candidates: &MixedPointSet, threads: usize) -> Self {
        let members: Vec<(u32, usize)> = candidates.ids().iter().copied().zip(0..).collect();
        Self::lay_out(candidates.blocks(), &members, threads)
    }

    /// `candidates` moved in, not laid out: one unbounded tail in their
    /// own order, every member counted as appended ([`ScanLayout::stale`]).
    pub fn unlaid(candidates: MixedPointSet) -> Self {
        let (ids, blocks) = candidates.into_soa();
        ScanLayout {
            ranks: (0..ids.len() as u32).collect(),
            dead: vec![false; ids.len()],
            retired: 0,
            laid_out: 0,
            clusters: Vec::new(),
            covers: BlockCovers::new(&blocks, &[], &[]),
            tail: 0,
            blocks,
            ids,
        }
    }

    /// The live members laid out afresh in corpus order: the layout
    /// [`ScanLayout::new`] gives the point set they form.
    pub fn relaid(&self, threads: usize) -> Self {
        Self::lay_out(&self.blocks, &self.corpus_order(), threads)
    }

    /// Lay out the points of `source` named by `members`' ids and
    /// positions, in corpus order.
    fn lay_out(source: &ComponentBlocks, members: &[(u32, usize)], threads: usize) -> Self {
        let n = members.len();
        // both sides hold ranks, indices into `members`
        let (mut inside, mut tail): (Vec<usize>, Vec<usize>) = if n < MIN_CLUSTERED {
            (Vec::new(), (0..n).collect())
        } else {
            (0..n).partition(|&r| source.in_triangle_domain(members[r].1))
        };
        let dim = (0..source.num_components()).map(|m| source.dim(m)).sum();
        let mut tangents = Vec::with_capacity(inside.len() * dim);
        for &r in &inside {
            let j = members[r].1;
            // log0, component by component, without a vector per point
            for m in 0..source.num_components() {
                let (y, kappa) = (source.coords_of(m, j), source.kappa(m));
                let norm = source.sq_norm(m, j).sqrt();
                let scale = if norm < MIN_NORM {
                    1.0
                } else {
                    atan_kappa(norm, kappa) / norm
                };
                tangents.extend(y.iter().map(|y| y * scale));
            }
        }
        let clusters = bisection_clusters(&mut tangents, &mut inside, dim, CLUSTER, threads);
        inside.append(&mut tail);
        let positions: Vec<usize> = inside.iter().map(|&r| members[r].1).collect();
        let blocks = source.permuted(&positions);
        ScanLayout {
            ids: inside.iter().map(|&r| members[r].0).collect(),
            ranks: inside.iter().map(|&r| r as u32).collect(),
            dead: vec![false; n],
            retired: 0,
            laid_out: n,
            tail: clusters.last().map_or(0, |run| run.end),
            covers: BlockCovers::new(&blocks, &clusters, &tangents),
            clusters,
            blocks,
        }
    }

    /// Members, live or retired.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Members not retired.
    pub fn live(&self) -> usize {
        self.len() - self.retired
    }

    /// The members' points, by position, retired ones included.
    pub fn blocks(&self) -> &ComponentBlocks {
        &self.blocks
    }

    /// The live members' ids and positions in corpus order: as a point
    /// set would hold them, first as built, retired ones gone, appended
    /// last.
    pub fn corpus_order(&self) -> Vec<(u32, usize)> {
        let mut at_rank = vec![(0, 0); self.len()];
        for (j, (&rank, &id)) in self.ranks.iter().zip(&self.ids).enumerate() {
            at_rank[rank as usize] = (id, j);
        }
        at_rank.retain(|&(_, j)| !self.dead[j]);
        at_rank
    }

    /// The live members' ids, by position.
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let live = self.ids.iter().zip(&self.dead).filter(|&(_, &dead)| !dead);
        live.map(|(&id, _)| id)
    }

    /// The share of the members retired or appended since the layout was
    /// laid out.
    pub fn stale(&self) -> f64 {
        (self.retired + self.len() - self.laid_out) as f64 / self.len().max(1) as f64
    }

    /// Mark the live members whose id satisfies `drop` dead, by position.
    pub fn retire(&mut self, mut drop: impl FnMut(u32) -> bool) {
        for (dead, &id) in self.dead.iter_mut().zip(&self.ids) {
            if !*dead && drop(id) {
                *dead = true;
                self.retired += 1;
            }
        }
    }

    /// Append `added` to the unbounded tail; returns where it starts.
    pub fn append(&mut self, added: &MixedPointSet) -> usize {
        let from = self.len();
        self.blocks.append(added.blocks());
        self.ids.extend_from_slice(added.ids());
        self.ranks.extend(from as u32..self.ids.len() as u32);
        self.dead.resize(self.ids.len(), false);
        from
    }
}

/// A cluster waiting in [`scan_top_k`]'s queue: ordered so that the
/// smallest bound comes out of a [`BinaryHeap`] first; among equal bounds
/// (most often 0, the query inside the cluster's reach) the smallest
/// depth, then the earlier cluster.
#[derive(Debug, Clone, Copy)]
struct Open {
    bound: f64,
    depth: f64,
    cluster: usize,
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Open {}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Open {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .bound
            .total_cmp(&self.bound)
            .then(other.depth.total_cmp(&self.depth))
            .then(other.cluster.cmp(&self.cluster))
    }
}

/// Per-worker scratch of [`scan_top_k`], allocated once and reused for
/// every key: the chunk kernel's norm lanes, the clusters' bounds, depths
/// and queue, and the work counters.
#[derive(Debug)]
pub(crate) struct ScanScratch {
    norm_lanes: Vec<f64>,
    bounds: Vec<f64>,
    depths: Vec<f64>,
    queue: BinaryHeap<Open>,
    /// Candidates the scans were asked about, `len()` per key.
    pub(crate) candidates: usize,
    /// Candidates that went through pass 1 of the chunk kernel; the rest
    /// were skipped with their whole cluster.
    pub(crate) scanned: usize,
}

impl ScanScratch {
    pub(crate) fn new(layout: &ScanLayout) -> Self {
        ScanScratch {
            norm_lanes: layout.blocks.norm_lanes(),
            bounds: vec![0.0; layout.covers.len()],
            depths: vec![0.0; layout.covers.len()],
            queue: BinaryHeap::with_capacity(layout.covers.len()),
            candidates: 0,
            scanned: 0,
        }
    }
}

/// One exact top-K scan of a query point over a candidate layout — the
/// kernel shared by the bulk builders below and the per-query
/// `ExactBackend::search` path, so they can never diverge. With
/// `appended: Some((prior, from))` only the members from `from` on are
/// scanned, starting from `prior`: the query's exact top-K of the live
/// members before `from`, whose threshold prunes the appended ones from
/// the start.
///
/// The clusters are visited in ascending bound ([`BlockCovers::bounds`];
/// among equal bounds, the one whose centre the query sits deepest inside
/// first, so the threshold tightens early) until the first whose bound
/// is [`prunable`] against the top-K's threshold as it stands: every
/// cluster still queued, and every member of it, is farther than the K
/// kept. The unbounded tail is scanned last. A run goes through the chunk
/// kernel in [`SCAN_CHUNK`]-sized chunks: pass 1 fills a lower bound and
/// the per-component norms of every candidate, and a live candidate's
/// distance — the `ln_1p` / `atan` half — is finished only if its bound
/// is within the threshold as it stands at that candidate, then offered.
/// A layout that is all tail is therefore the plain chunked scan.
pub(crate) fn scan_top_k(
    layout: &ScanLayout,
    (query, query_weight): (&[f64], &[f64]),
    k: usize,
    exclude_id: Option<u32>,
    appended: Option<(&[(u32, f64)], usize)>,
    scratch: &mut ScanScratch,
) -> Postings {
    // no list holds more than the live candidates offered
    let mut topk = TopK::new(k.min(layout.live()));
    let blocks = &layout.blocks;
    let grams = blocks.query_grams(query);
    let scan_run = |run: Range<usize>, topk: &mut TopK, lanes: &mut [f64]| {
        let mut chunk_bounds = [0.0f64; SCAN_CHUNK];
        let mut start = run.start;
        while start < run.end {
            let len = SCAN_CHUNK.min(run.end - start);
            let chunk_bounds = &mut chunk_bounds[..len];
            blocks.scan_chunk_bounds(&grams, query, query_weight, start, lanes, chunk_bounds);
            for (jj, &bound) in chunk_bounds.iter().enumerate() {
                let j = start + jj;
                if prunable(bound, topk.threshold())
                    || layout.dead[j]
                    || exclude_id == Some(layout.ids[j])
                {
                    continue;
                }
                topk.offer(blocks.finish(query_weight, start, jj, lanes), layout.ids[j]);
            }
            start += len;
        }
        run.len()
    };
    if let Some((prior, from)) = appended {
        prior
            .iter()
            .for_each(|&(id, distance)| topk.offer(distance, id));
        scratch.scanned += scan_run(from..layout.len(), &mut topk, &mut scratch.norm_lanes);
        return topk.into_sorted();
    }
    scratch.candidates += layout.len();
    let ScanScratch {
        norm_lanes,
        bounds,
        depths,
        queue,
        ..
    } = scratch;
    layout
        .covers
        .bounds(&grams, query, query_weight, norm_lanes, bounds, depths);
    queue.clear();
    queue.extend((bounds.iter().zip(depths.iter()).enumerate()).map(
        |(cluster, (&bound, &depth))| Open {
            bound,
            depth,
            cluster,
        },
    ));
    let (mut visited, mut next_check) = (0, bounds.len().div_ceil(SWEEP_AFTER));
    while let Some(Open { bound, cluster, .. }) = queue.pop() {
        if prunable(bound, topk.threshold()) {
            break;
        }
        scratch.scanned += scan_run(layout.clusters[cluster].clone(), &mut topk, norm_lanes);
        // scanned: a sweep passes it by
        bounds[cluster] = f64::NAN;
        visited += 1;
        let threshold = topk.threshold();
        if visited == next_check && threshold.is_finite() && sweep_pays(queue, threshold) {
            scratch.scanned += sweep(layout, bounds, &mut topk, |run, topk| {
                scan_run(run, topk, norm_lanes)
            });
            break;
        }
        if visited == next_check {
            next_check *= 2;
        }
    }
    // the unbounded tail last, against the tightest threshold
    scratch.scanned += scan_run(
        layout.tail..layout.len(),
        &mut topk,
        &mut scratch.norm_lanes,
    );
    topk.into_sorted()
}

/// A scan that has visited one cluster in this many, best first, asks
/// whether the rest should [`sweep`]; it asks again each time the count
/// of clusters visited doubles.
const SWEEP_AFTER: usize = 16;

/// Whether the rest of a scan should [`sweep`]: more than half the queued
/// clusters are still in reach of the threshold, so their bounds do not
/// discriminate, and visiting them one short run at a time would cost more
/// than the few it could skip.
fn sweep_pays(queue: &BinaryHeap<Open>, threshold: f64) -> bool {
    let in_reach = queue
        .iter()
        .filter(|open| !prunable(open.bound, threshold))
        .count();
    2 * in_reach > queue.len()
}

/// The rest of a scan in block order: every cluster not yet scanned
/// (whose bound is not `NaN`) and not [`prunable`] against the threshold
/// as it stands, neighbouring clusters merged into one run for
/// `scan_run`. Returns the candidates scanned.
fn sweep(
    layout: &ScanLayout,
    bounds: &[f64],
    topk: &mut TopK,
    mut scan_run: impl FnMut(Range<usize>, &mut TopK) -> usize,
) -> usize {
    let mut scanned = 0;
    let mut run = 0..0;
    for (cluster, &bound) in layout.clusters.iter().zip(bounds) {
        if bound.is_nan() || prunable(bound, topk.threshold()) {
            scanned += scan_run(std::mem::replace(&mut run, cluster.end..cluster.end), topk);
        } else if run.is_empty() {
            run = cluster.clone();
        } else {
            run.end = cluster.end;
        }
    }
    scanned + scan_run(run, topk)
}

/// Key ranges per build thread in [`build_exact_index`]. One range per
/// thread is a static partition: a thread that is descheduled, or handed
/// the costlier keys, holds the whole build behind it. More ranges let
/// the other threads claim its share through `fork_join`'s counter.
/// Measured on a 2-vCPU x86-64 box, two-thread c6k `IndexSet::build`
/// medians over four rounds: one range per thread 0.44–0.45 s, four,
/// eight or thirty-two 0.35–0.45 s with no order among them. At eight a
/// c6k range still holds 32–96 keys, so its scratch and result vector
/// cost nothing next to the scan.
const RANGES_PER_THREAD: usize = 8;

/// Exact top-K search from every key to the candidate set.
///
/// * `exclude_same_id`: skip a candidate whose id equals the key's id (used
///   for the self-indices Q2Q / I2I).
/// * `threads`: number of worker threads (1 = sequential).
///
/// The candidates' scan layout — clustered, with the bounds that let a
/// key skip whole clusters (see the module doc) — is built once, before
/// the keys are scanned.
pub fn build_exact_index(
    keys: &MixedPointSet,
    candidates: &MixedPointSet,
    k: usize,
    exclude_same_id: bool,
    threads: usize,
) -> InvertedIndex {
    if keys.is_empty() || candidates.is_empty() || k == 0 {
        return InvertedIndex::default();
    }
    let layout = ScanLayout::new(candidates, threads.max(1));
    build_with_layout(keys, &layout, k, exclude_same_id, threads)
}

/// [`build_exact_index`] over a layout already laid out.
pub fn build_with_layout(
    keys: &MixedPointSet,
    layout: &ScanLayout,
    k: usize,
    exclude_same_id: bool,
    threads: usize,
) -> InvertedIndex {
    scan_keys(keys, layout, k, threads, |i, scratch| {
        let exclude = exclude_same_id.then(|| keys.id(i));
        scan_top_k(
            layout,
            (keys.point(i), keys.weight(i)),
            k,
            exclude,
            None,
            scratch,
        )
    })
}

/// Every key's postings over `layout` after a churn step retired members
/// and appended the ones from `from` on: a key whose `prior` is known —
/// its exact top-K over the live members before `from` — scans only the
/// appended ones, against the threshold that list sets; any other key
/// scans every live member. Either way the list is the full build's.
pub fn update_with_layout(
    keys: &MixedPointSet,
    layout: &ScanLayout,
    (k, threads): (usize, usize),
    from: usize,
    prior: impl Fn(u32) -> Option<Postings> + Sync,
) -> InvertedIndex {
    scan_keys(keys, layout, k, threads, |i, scratch| {
        let prior = prior(keys.id(i));
        let appended = prior.as_deref().map(|prior| (prior, from));
        scan_top_k(
            layout,
            (keys.point(i), keys.weight(i)),
            k,
            None,
            appended,
            scratch,
        )
    })
}

/// `scan_key(i, scratch)` for every key `i`, on `threads` claiming
/// [`RANGES_PER_THREAD`] key ranges each. No live candidate (or `k == 0`)
/// yields an EMPTY index, not keys with empty lists.
fn scan_keys(
    keys: &MixedPointSet,
    layout: &ScanLayout,
    k: usize,
    threads: usize,
    scan_key: impl Fn(usize, &mut ScanScratch) -> Postings + Sync,
) -> InvertedIndex {
    let n_keys = keys.len();
    if n_keys == 0 || layout.live() == 0 || k == 0 {
        return InvertedIndex::default();
    }
    let threads = threads.max(1);
    let chunk = n_keys.div_ceil(threads.saturating_mul(RANGES_PER_THREAD).min(n_keys));
    let ranges = n_keys.div_ceil(chunk);
    let search_range = |r: usize| -> Vec<(u32, Postings)> {
        let mut scratch = ScanScratch::new(layout);
        (r * chunk..((r + 1) * chunk).min(n_keys))
            .map(|i| (keys.id(i), scan_key(i, &mut scratch)))
            .collect()
    };
    let mut entries = IdHashMap::with_capacity_and_hasher(n_keys, Default::default());
    let built = fork_join(threads, ranges, search_range);
    entries.extend(built.into_iter().flatten());
    InvertedIndex { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{category_set, random_set};

    /// The layout of `candidates` as one unbounded cluster: the plain
    /// chunked scan every layout must agree with.
    fn unclustered(candidates: &MixedPointSet) -> ScanLayout {
        let layout = ScanLayout::new(candidates, 1);
        ScanLayout {
            tail: 0,
            clusters: Vec::new(),
            covers: BlockCovers::new(&layout.blocks, &[], &[]),
            ..layout
        }
    }

    #[test]
    fn a_c6k_shaped_scan_skips_most_clusters_and_an_unclustered_one_changes_nothing() {
        // a count of work, not a timing. c6k's Q2A shape: 64 categories,
        // 8 keys and 64 candidates each, k = 20 — the clusters skipped
        // whole leave pass 1 at most 5 % of the pairs
        let ads = category_set(64, 64, 0.1, 7, 8, 1_000_000);
        let keys = category_set(64, 8, 0.1, 7, 9, 0);
        let layout = ScanLayout::new(&ads, 2);
        assert_eq!(layout.tail, ads.len(), "every c6k point is in the domain");
        let mut scratch = ScanScratch::new(&layout);
        for i in 0..keys.len() {
            let query = (keys.point(i), keys.weight(i));
            scan_top_k(&layout, query, 20, None, None, &mut scratch);
        }
        assert_eq!(scratch.candidates, keys.len() * ads.len());
        assert!(
            scratch.scanned * 20 <= scratch.candidates,
            "pass 1 ran on {} of {} pairs",
            scratch.scanned,
            scratch.candidates
        );

        // the same shape at U(±0.3): the clusters overlap and hardly
        // anything is skipped, but every posting list keeps its ids and
        // distance bits
        let ads = category_set(16, 64, 0.3, 3, 4, 1_000_000);
        let keys = category_set(16, 8, 0.3, 3, 5, 0);
        let (layout, plain) = (ScanLayout::new(&ads, 2), unclustered(&ads));
        assert!(!layout.clusters.is_empty() && layout.tail < ads.len());
        let (mut scratch, mut plain_scratch) =
            (ScanScratch::new(&layout), ScanScratch::new(&plain));
        for i in 0..keys.len() {
            let (point, weight) = (keys.point(i), keys.weight(i));
            let got = scan_top_k(&layout, (point, weight), 20, None, None, &mut scratch);
            let want = scan_top_k(&plain, (point, weight), 20, None, None, &mut plain_scratch);
            assert_eq!(bits(&got), bits(&want), "key {i}");
        }
        assert_eq!(plain_scratch.scanned, plain_scratch.candidates);
    }

    #[test]
    fn the_layout_is_a_permutation_that_keeps_every_point_and_its_bits() {
        let mut set = category_set(8, 40, 0.1, 1, 2, 0);
        let manifold = set.manifold().clone();
        // a NaN point and one off the ball join the tail
        let mut bad = set.point(3).to_vec();
        bad[5] = f64::NAN;
        set.push(900, &bad, &[0.3, 0.3, 0.4]);
        set.push(901, &vec![2.0; manifold.total_dim()], &[0.3, 0.3, 0.4]);
        let layout = ScanLayout::new(&set, 3);
        assert_eq!(layout.len(), set.len());
        assert_eq!(layout.tail, set.len() - 2);
        assert_eq!(&layout.ids[layout.tail..], &[900, 901]);
        let mut next = 0;
        for run in &layout.clusters {
            assert_eq!(run.start, next);
            assert!(!run.is_empty() && run.len() <= CLUSTER);
            next = run.end;
        }
        assert_eq!(next, layout.tail);
        for (j, &id) in layout.ids.iter().enumerate() {
            let i = set.index_of(id).unwrap();
            for m in 0..manifold.num_subspaces() {
                let (a, b) = (layout.blocks.coords_of(m, j), set.blocks().coords_of(m, i));
                assert!(a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()));
                assert_eq!(
                    layout.blocks.sq_norm(m, j).to_bits(),
                    set.blocks().sq_norm(m, i).to_bits()
                );
                assert_eq!(layout.blocks.stored_weight(m, j), set.weight(i)[m]);
            }
        }
        // deterministic from the points alone, whatever the thread count
        let again = ScanLayout::new(&set, 1);
        assert_eq!((again.ids, again.clusters), (layout.ids, layout.clusters));
        // under the floor: one unbounded cluster in the set's own order
        let small = category_set(2, 20, 0.1, 1, 2, 0);
        let layout = ScanLayout::new(&small, 2);
        assert!(layout.clusters.is_empty());
        assert_eq!((layout.tail, &layout.ids[..]), (0, small.ids()));
    }

    /// Ids, ranks, cluster runs, tail and block bits of two layouts agree.
    fn assert_same_layout(got: &ScanLayout, want: &ScanLayout, when: &str) {
        assert_eq!((&got.ids, &got.ranks), (&want.ids, &want.ranks), "{when}");
        assert_eq!(
            (&got.clusters, got.tail),
            (&want.clusters, want.tail),
            "{when}"
        );
        assert_eq!(
            (got.live(), got.laid_out),
            (want.live(), want.laid_out),
            "{when}"
        );
        let (a, b) = (&got.blocks, &want.blocks);
        for m in 0..a.num_components() {
            let lane = |blocks: &ComponentBlocks| -> Vec<u64> {
                let coords = blocks.coords(m).iter().copied();
                let norms = (0..blocks.len()).map(|j| blocks.sq_norm(m, j));
                let weights = (0..blocks.len()).map(|j| blocks.stored_weight(m, j));
                coords
                    .chain(norms)
                    .chain(weights)
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(lane(a), lane(b), "{when}: component {m}");
        }
    }

    #[test]
    fn laying_out_again_gives_the_layout_of_the_live_members_in_corpus_order() {
        // the same churn on a held layout and on the point set it stands for:
        // retire, append from the SoA lanes, retire among the appended ones
        // too, append again
        let set = category_set(8, 40, 0.1, 1, 2, 0);
        let mut layout = ScanLayout::new(&set, 2);
        let mut corpus = set.clone();
        for (step, first_id) in [(3u32, 10_000), (7, 20_000)] {
            let added = category_set(8, 6, 0.1, 1, u64::from(step), first_id);
            layout.retire(|id| id % step == 0);
            corpus.retire(|id| id % step == 0);
            let from = layout.len();
            assert_eq!(layout.append(&added), from);
            corpus.append(&added);
        }
        let ids: Vec<u32> = layout.corpus_order().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, corpus.ids(), "corpus order is the point set's order");
        assert!(layout.stale() > 0.0 && layout.live() == corpus.len());
        let fresh = ScanLayout::new(&corpus, 1);
        assert!(!fresh.clusters.is_empty(), "the live members are clustered");
        assert_same_layout(&layout.relaid(3), &fresh, "laid out again");
        // a set moved in unlaid is all tail in its own order, wholly
        // stale, and lays out to the same layout as one laid out at once
        let unlaid = ScanLayout::unlaid(corpus.clone());
        assert_eq!((unlaid.tail, unlaid.stale()), (0, 1.0));
        let identity: Vec<(u32, usize)> = corpus.ids().iter().copied().zip(0..).collect();
        assert_eq!(unlaid.corpus_order(), identity);
        assert_same_layout(&unlaid.relaid(2), &fresh, "an unlaid set laid out");
    }

    #[test]
    fn index_contains_every_key_with_k_sorted_postings() {
        let keys = random_set(20, 1);
        let cands = random_set(50, 2);
        let index = build_exact_index(&keys, &cands, 5, false, 1);
        assert_eq!(index.len(), 20);
        for (_, postings) in index.iter() {
            assert_eq!(postings.len(), 5);
            for w in postings.windows(2) {
                assert!(w[0].1 <= w[1].1, "postings must be sorted by distance");
            }
        }
    }

    #[test]
    fn nearest_neighbour_of_a_key_present_in_candidates_is_itself() {
        let set = random_set(30, 3);
        let index = build_exact_index(&set, &set, 3, false, 1);
        for i in 0..set.len() {
            let id = set.id(i);
            let postings = index.get(id).unwrap();
            assert_eq!(postings[0].0, id, "self must be the nearest neighbour");
            assert!(postings[0].1.abs() < 1e-9);
        }
    }

    #[test]
    fn exclude_same_id_removes_self_matches() {
        let set = random_set(30, 4);
        let index = build_exact_index(&set, &set, 3, true, 1);
        for i in 0..set.len() {
            let id = set.id(i);
            assert!(index.get(id).unwrap().iter().all(|(c, _)| *c != id));
        }
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let cands = random_set(80, 6);
        // ranges of ⌈keys / (8·threads)⌉ keys, the last one short: 40 keys
        // at 2 threads are 13 ranges of 3 and one of 1; 4 and 7 threads
        // ask for more ranges than keys (one key each); 41 threads exceed
        // the keys themselves. 13 keys at 2 threads: fewer keys than the
        // 16 ranges asked for. 37 keys at 2 threads: 12 ranges of 3 and
        // one of 1. Sequential builds cut 40 and 37 keys into ranges of 5.
        for (n_keys, thread_counts) in [(40, &[2, 4, 7, 41][..]), (13, &[2][..]), (37, &[2][..])] {
            let keys = random_set(n_keys, 5);
            let seq = build_exact_index(&keys, &cands, 4, false, 1);
            assert_eq!(seq.len(), n_keys);
            for &threads in thread_counts {
                let par = build_exact_index(&keys, &cands, 4, false, threads);
                assert_eq!(seq.len(), par.len(), "keys={n_keys} threads={threads}");
                for (key, postings) in seq.iter() {
                    assert_eq!(
                        par.get(*key),
                        Some(postings),
                        "keys={n_keys} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_index() {
        let keys = random_set(0, 7);
        let cands = random_set(10, 8);
        assert!(build_exact_index(&keys, &cands, 3, false, 2).is_empty());
        assert!(build_exact_index(&cands, &keys, 3, false, 2).is_empty());
        assert!(build_exact_index(&cands, &cands, 0, false, 2).is_empty());
    }

    #[test]
    fn topk_keeps_the_smallest_distances() {
        let mut topk = TopK::new(2);
        topk.offer(3.0, 1);
        topk.offer(1.0, 2);
        topk.offer(2.0, 3);
        topk.offer(0.5, 4);
        let sorted = topk.into_sorted();
        assert_eq!(
            sorted.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![4, 2]
        );
    }

    #[test]
    fn topk_tie_breaking_is_scan_order_independent() {
        // equal distances at the top-K boundary: the kept set is the
        // smallest (distance, id) pairs regardless of scan order, so
        // exact and full-probe IVF scans agree even on ties
        let permutations: [[(f64, u32); 3]; 3] = [
            [(1.0, 5), (2.0, 9), (2.0, 3)],
            [(2.0, 3), (2.0, 9), (1.0, 5)],
            [(2.0, 9), (1.0, 5), (2.0, 3)],
        ];
        for order in permutations {
            let mut topk = TopK::new(2);
            for (d, id) in order {
                topk.offer(d, id);
            }
            let ids: Vec<u32> = topk.into_sorted().iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, vec![5, 3], "kept set must not depend on scan order");
        }
    }

    /// What `TopK` must equal: sort everything by `(distance with NaN →
    /// +∞, id)` and take `k`.
    fn sort_and_take(stream: &[(f64, u32)], k: usize) -> Postings {
        let mut all: Vec<(f64, u32)> = stream
            .iter()
            .map(|&(d, id)| (if d.is_nan() { f64::INFINITY } else { d }, id))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter().map(|(d, id)| (id, d)).collect()
    }

    fn bits(postings: &Postings) -> Vec<(u32, u64)> {
        postings.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    #[test]
    fn topk_equals_sort_and_take_and_threshold_is_the_largest_kept_distance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // few distinct values (heavy ties), both NaN signs, both infinities
        // and both zeros
        let values = [
            0.0,
            -0.0,
            0.25,
            0.5,
            0.5000000000000001,
            1.0,
            3.0,
            -2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(15);
        for len in [0usize, 1, 7, 40, 300] {
            let mut stream: Vec<(f64, u32)> = (0..len)
                .map(|i| (values[rng.gen_range(0..values.len())], i as u32))
                .collect();
            for _permutation in 0..4 {
                for i in (1..stream.len()).rev() {
                    stream.swap(i, rng.gen_range(0..=i));
                }
                for k in [0, 1, 5, 20, len + 3] {
                    let mut topk = TopK::new(k);
                    assert_eq!(topk.threshold(), f64::INFINITY);
                    for (seen, &(d, id)) in stream.iter().enumerate() {
                        topk.offer(d, id);
                        let want = match sort_and_take(&stream[..=seen], k).last() {
                            Some(&(_, worst)) if seen + 1 >= k => worst,
                            _ => f64::INFINITY,
                        };
                        assert_eq!(
                            topk.threshold().to_bits(),
                            want.to_bits(),
                            "len {len}, k {k}, after {} offers",
                            seen + 1
                        );
                    }
                    assert_eq!(
                        bits(&topk.into_sorted()),
                        bits(&sort_and_take(&stream, k)),
                        "len {len}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_with_k_zero_keeps_nothing_and_a_short_stream_is_returned_whole() {
        let mut none = TopK::new(0);
        none.offer(1.0, 1);
        none.offer(f64::NAN, 2);
        assert_eq!(none.threshold(), f64::INFINITY);
        assert!(none.into_sorted().is_empty());

        let mut short = TopK::new(5);
        short.offer(2.0, 7);
        short.offer(1.0, 9);
        assert_eq!(short.threshold(), f64::INFINITY, "not full yet");
        assert_eq!(short.into_sorted(), vec![(9, 1.0), (7, 2.0)]);
    }

    #[test]
    fn topk_evicts_nan_distances_for_real_candidates() {
        // a corrupt (NaN) distance — of either sign bit, since hardware
        // 0/0 yields a sign-bit-set NaN — must not panic, squat in the
        // heap, or outrank any real candidate
        for nan in [f64::NAN, -f64::NAN] {
            let mut topk = TopK::new(2);
            topk.offer(5.0, 1);
            topk.offer(nan, 2);
            topk.offer(0.1, 3);
            let sorted = topk.into_sorted();
            assert_eq!(
                sorted.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                vec![3, 1],
                "the real 0.1 candidate must evict the NaN entry"
            );
            // all-NaN input still yields a full, non-panicking posting list
            let mut all_nan = TopK::new(2);
            all_nan.offer(nan, 7);
            all_nan.offer(nan, 8);
            all_nan.offer(1.0, 9);
            let sorted = all_nan.into_sorted();
            assert_eq!(sorted.first().unwrap().0, 9, "real candidate ranks first");
        }
    }
}
