//! Deterministic per-component sub-codebooks for quantised postings.
//!
//! Product quantisation needs one small codebook per curvature component.
//! Like the IVF coarse quantiser, each sub-codebook is trained with the
//! crate's one Lloyd k-means (`cluster::lloyd`) in the component's
//! *tangent space* at the origin — the one place the mixed-curvature
//! metric is Euclidean — seeded from the deterministic compat `StdRng`, so
//! identical inputs and seeds always yield identical codebooks. Encoding
//! maps a tangent vector to its nearest sub-centroid, ties broken toward
//! the lowest index, which keeps codes deterministic too.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster::{lloyd, sq_dist};

/// Sub-centroids per codebook never exceed one byte's worth — codes are
/// stored as `u8`.
pub const MAX_SUB_CENTROIDS: usize = 256;

/// One curvature component's sub-codebook: up to [`MAX_SUB_CENTROIDS`]
/// tangent-space centroids stored as one flat `len × dim` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Codebook {
    dim: usize,
    centroids: Vec<f64>,
}

impl Codebook {
    /// Train a sub-codebook over `data` — `n × dim` tangent vectors stored
    /// flat — with at most `ksub` centroids (capped at the data size and at
    /// [`MAX_SUB_CENTROIDS`]). Empty data yields an untrained codebook that
    /// [`Codebook::is_trained`] reports as such.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn train(data: &[f64], dim: usize, ksub: usize, iters: usize, seed: u64) -> Self {
        assert!(dim > 0, "components have at least one dimension");
        assert_eq!(data.len() % dim, 0, "flat data must be n x dim");
        let n = data.len() / dim;
        if n == 0 {
            return Codebook {
                dim,
                centroids: Vec::new(),
            };
        }
        let point = |i: usize| &data[i * dim..(i + 1) * dim];

        let k = ksub.clamp(1, MAX_SUB_CENTROIDS).min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seeds: Vec<usize> = (0..n).collect();
        seeds.shuffle(&mut rng);
        let mut centroids = Vec::with_capacity(k * dim);
        for &i in seeds.iter().take(k) {
            centroids.extend_from_slice(point(i));
        }

        lloyd(data, dim, &mut centroids, iters);

        Codebook { dim, centroids }
    }

    /// Number of centroids.
    #[inline]
    pub fn len(&self) -> usize {
        self.centroids.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the codebook holds no centroids.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Whether training produced any centroids to encode against.
    #[inline]
    pub fn is_trained(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Dimension of the component this codebook quantises.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tangent coordinates of centroid `c`.
    #[inline]
    pub fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Code of a tangent vector: the index of its nearest centroid in the
    /// component's Euclidean tangent space, ties broken toward the lowest
    /// index. Corrupt (NaN) distances never win over a real one; an
    /// all-NaN comparison falls back to centroid 0.
    ///
    /// # Panics
    ///
    /// Panics if the codebook is untrained.
    #[inline]
    pub fn encode(&self, tangent: &[f64]) -> u8 {
        assert!(self.is_trained(), "encode needs a trained codebook");
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..self.len() {
            let d = sq_dist(tangent, self.centroid(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(points: &[[f64; 2]]) -> Vec<f64> {
        points.iter().flatten().copied().collect()
    }

    #[test]
    fn training_is_deterministic_in_data_and_seed() {
        let data = flat(&[
            [0.1, 0.2],
            [0.12, 0.18],
            [-0.3, 0.4],
            [-0.28, 0.41],
            [0.5, -0.5],
            [0.52, -0.48],
        ]);
        let a = Codebook::train(&data, 2, 3, 6, 7);
        let b = Codebook::train(&data, 2, 3, 6, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.dim(), 2);
        let c = Codebook::train(&data, 2, 3, 6, 8);
        // a different seed may pick different initial centroids; the
        // codebook must still be well-formed
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn encode_picks_the_nearest_centroid_with_lowest_index_ties() {
        let cb = Codebook {
            dim: 1,
            centroids: vec![-1.0, 0.0, 1.0],
        };
        assert_eq!(cb.encode(&[-0.9]), 0);
        assert_eq!(cb.encode(&[0.1]), 1);
        assert_eq!(cb.encode(&[2.0]), 2);
        // -0.5 ties between centroids 0 and 1: lowest index wins
        assert_eq!(cb.encode(&[-0.5]), 0);
        // NaN never beats a real distance; all-NaN falls back to 0
        assert_eq!(cb.encode(&[f64::NAN]), 0);
    }

    #[test]
    fn ksub_is_capped_at_the_data_size_and_a_byte() {
        let data = flat(&[[0.0, 0.0], [1.0, 1.0]]);
        let cb = Codebook::train(&data, 2, 8, 4, 1);
        assert_eq!(cb.len(), 2, "never more centroids than points");
        let cb = Codebook::train(&data, 2, 100_000, 1, 1);
        assert!(cb.len() <= MAX_SUB_CENTROIDS);
    }

    #[test]
    fn empty_data_yields_an_untrained_codebook() {
        let cb = Codebook::train(&[], 3, 4, 4, 1);
        assert!(!cb.is_trained());
        assert!(cb.is_empty());
        assert_eq!(cb.len(), 0);
    }

    #[test]
    #[should_panic(expected = "trained codebook")]
    fn encoding_against_an_untrained_codebook_panics() {
        Codebook::train(&[], 2, 4, 4, 1).encode(&[0.0, 0.0]);
    }
}
