//! Quantised posting storage and the asymmetric table scan.
//!
//! A quantised ad costs one `u8` sub-centroid code plus one `f32` attention
//! weight per curvature component — [`CodeBlocks`] keeps both in per-
//! component SoA lanes, mirroring [`crate::quant::soa::ComponentBlocks`].
//! The scan is *asymmetric* in the product-quantisation sense: the query
//! stays full precision, and its geodesic distance to every sub-centroid's
//! reconstruction is tabulated once per query, so the per-candidate work is
//! two lane loads, one table lookup and one fused multiply-add:
//!
//! `approx[j] = Σ_m (query_weight[m] + weight[m][j]) · table[m][code[m][j]]`
//!
//! — the same attention-weighted sum the exact kernel computes, with the
//! per-component geodesic replaced by its quantised table entry.

/// One query's asymmetric distance table: the geodesic distance from the
/// query to every sub-centroid reconstruction, all components in one flat
/// allocation (`offsets` has `num_components + 1` entries bracketing each
/// component's run) so building it costs a single allocation per query.
#[derive(Debug, Clone)]
pub struct AsymmetricTable {
    entries: Vec<f64>,
    offsets: Vec<usize>,
}

impl AsymmetricTable {
    /// Wrap a prefilled flat table.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not bracket `entries` monotonically.
    pub fn from_parts(entries: Vec<f64>, offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "offsets bracket at least zero runs");
        assert_eq!(offsets[0], 0, "the first run starts at zero");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(
            *offsets.last().unwrap(),
            entries.len(),
            "the last offset must close the entry block"
        );
        AsymmetricTable { entries, offsets }
    }

    /// Number of curvature components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Component `m`'s run of per-centroid distances.
    #[inline]
    pub fn component(&self, m: usize) -> &[f64] {
        &self.entries[self.offsets[m]..self.offsets[m + 1]]
    }

    /// Distance entry of centroid `c` in component `m`.
    #[inline]
    pub fn entry(&self, m: usize, c: usize) -> f64 {
        self.component(m)[c]
    }
}

/// Per-component quantised postings: one code lane and one weight lane per
/// curvature component, all `len` long.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeBlocks {
    codes: Vec<Vec<u8>>,
    weights: Vec<Vec<f32>>,
    len: usize,
}

impl CodeBlocks {
    /// Empty lanes for `num_components` curvature components.
    pub fn new(num_components: usize) -> Self {
        CodeBlocks {
            codes: vec![Vec::new(); num_components],
            weights: vec![Vec::new(); num_components],
            len: 0,
        }
    }

    /// Number of stored (encoded) points.
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
        self.codes.len()
    }

    /// Code of stored point `j` in component `m`.
    #[inline]
    pub fn code(&self, m: usize, j: usize) -> u8 {
        self.codes[m][j]
    }

    /// Quantised attention weight of stored point `j` in component `m`.
    #[inline]
    pub fn weight(&self, m: usize, j: usize) -> f32 {
        self.weights[m][j]
    }

    /// Append one encoded point: one code and one attention weight per
    /// component (weights are narrowed to `f32` here — the quantised side
    /// deliberately stores them at half the precision of the exact side).
    pub fn push(&mut self, codes: &[u8], weights: &[f64]) {
        debug_assert_eq!(codes.len(), self.codes.len());
        debug_assert_eq!(weights.len(), self.weights.len());
        for m in 0..self.codes.len() {
            self.codes[m].push(codes[m]);
            self.weights[m].push(weights[m] as f32);
        }
        self.len += 1;
    }

    /// Bytes one quantised ad occupies across all components: one `u8`
    /// code plus one `f32` weight per component.
    #[inline]
    pub fn bytes_per_point(&self) -> usize {
        self.codes.len() * (std::mem::size_of::<u8>() + std::mem::size_of::<f32>())
    }

    /// Chunked asymmetric sweep over the contiguous candidate range
    /// `start..start + out.len()`: writes each candidate's approximate
    /// attention-weighted distance into `out`, looping component-outer so
    /// every inner loop is a unit-stride table-lookup/FMA pass over the
    /// code and weight lanes. `table.entry(m, c)` must hold the query's
    /// geodesic distance to centroid `c`'s reconstruction in component `m`.
    pub fn scan_range_into(
        &self,
        table: &AsymmetricTable,
        query_weight: &[f64],
        start: usize,
        out: &mut [f64],
    ) {
        debug_assert_eq!(table.num_components(), self.codes.len());
        out.fill(0.0);
        for (m, ((lane, weight_lane), &qw)) in self
            .codes
            .iter()
            .zip(&self.weights)
            .zip(query_weight)
            .enumerate()
        {
            let run = table.component(m);
            let codes = &lane[start..start + out.len()];
            let weights = &weight_lane[start..start + out.len()];
            for (jj, o) in out.iter_mut().enumerate() {
                *o += (qw + weights[jj] as f64) * run[codes[jj] as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CodeBlocks {
        let mut blocks = CodeBlocks::new(2);
        blocks.push(&[0, 1], &[0.6, 0.4]);
        blocks.push(&[1, 0], &[0.3, 0.7]);
        blocks.push(&[2, 1], &[0.5, 0.5]);
        blocks
    }

    #[test]
    fn lanes_grow_in_lockstep() {
        let blocks = sample();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.num_components(), 2);
        assert_eq!(blocks.code(0, 2), 2);
        assert_eq!(blocks.code(1, 2), 1);
        assert_eq!(blocks.weight(0, 1), 0.3f32);
        assert_eq!(blocks.code(0, 0), 0);
    }

    #[test]
    fn the_scan_is_the_weighted_table_sum() {
        let blocks = sample();
        let table = AsymmetricTable::from_parts(vec![0.1, 0.2, 0.3, 1.0, 2.0], vec![0, 3, 5]);
        assert_eq!(table.num_components(), 2);
        assert_eq!(table.component(1), &[1.0, 2.0]);
        let qw = [0.25, 0.75];
        let mut out = vec![0.0; 3];
        blocks.scan_range_into(&table, &qw, 0, &mut out);
        for (j, &got) in out.iter().enumerate() {
            let mut want = 0.0;
            for (m, &w) in qw.iter().enumerate() {
                want +=
                    (w + blocks.weight(m, j) as f64) * table.entry(m, blocks.code(m, j) as usize);
            }
            assert_eq!(got, want, "j={j}");
        }
        // a mid-range chunk sees the same values as the full sweep
        let mut tail = vec![0.0; 2];
        blocks.scan_range_into(&table, &qw, 1, &mut tail);
        assert_eq!(&tail[..], &out[1..3]);
    }

    #[test]
    #[should_panic(expected = "close the entry block")]
    fn mismatched_table_offsets_are_rejected() {
        AsymmetricTable::from_parts(vec![0.1, 0.2], vec![0, 3]);
    }

    #[test]
    fn quantised_points_cost_five_bytes_per_component() {
        let blocks = sample();
        assert_eq!(blocks.bytes_per_point(), 2 * 5);
    }
}
