//! Cross-crate property tests: the differentiable manifold operations used
//! during training must agree with the plain reference implementation used
//! during serving, so that offline training and online retrieval measure the
//! same geometry.

use amcad::autodiff::manifold_ops as diff_ops;
use amcad::autodiff::Tape;
use amcad::manifold as reference;
use proptest::prelude::*;

fn kappa_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![-1.5f64..-0.05, Just(0.0), 0.05f64..1.5]
}

/// The curvatures of the triangle contract's sweep
/// (`crates/manifold/tests/triangle_contract.rs`): hyperbolic, both sides
/// of each `KAPPA_EPS` seam, flat and spherical.
const CONTRACT_KAPPAS: [f64; 12] = [
    -2.0,
    -0.8,
    -1e-3,
    -1.0000001e-7,
    -1e-7,
    0.0,
    1e-7,
    1.0000001e-7,
    1e-3,
    0.6,
    1.0,
    2.0,
];

/// The training tape's distance between `x` and `y`.
fn tape_distance(x: &[f64], y: &[f64], kappa: f64) -> f64 {
    let mut tape = Tape::new();
    let (x, y, k) = (
        tape.row(x.to_vec()),
        tape.row(y.to_vec()),
        tape.scalar(kappa),
    );
    let d = diff_ops::distance(&mut tape, x, y, k);
    tape.value(d).scalar_value()
}

/// `v` rescaled to norm `r`, then pulled onto the triangle domain along
/// its ray if rounding left it outside.
fn in_domain(v: &[f64], r: f64, kappa: f64) -> Vec<f64> {
    let n = reference::norm(v);
    let scale = if n > 0.0 { r / n } else { 0.0 };
    let mut p: Vec<f64> = v.iter().map(|c| c * scale).collect();
    while !reference::in_triangle_domain(reference::norm_sq(&p), kappa) {
        p.iter_mut().for_each(|c| *c *= 1.0 - 1e-15);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn training_and_serving_distances_agree(
        u in prop::collection::vec(-0.3f64..0.3, 6),
        v in prop::collection::vec(-0.3f64..0.3, 6),
        kappa in kappa_strategy(),
    ) {
        // serving-side: plain f64 reference
        let x = reference::exp_map_origin(&u, kappa);
        let y = reference::exp_map_origin(&v, kappa);
        let d_ref = reference::distance(&x, &y, kappa);

        // training-side: autodiff composite over the same inputs
        let mut tape = Tape::new();
        let xu = tape.row(u.clone());
        let yv = tape.row(v.clone());
        let k = tape.scalar(kappa);
        let xe = diff_ops::exp0(&mut tape, xu, k);
        let ye = diff_ops::exp0(&mut tape, yv, k);
        let d = diff_ops::distance(&mut tape, xe, ye, k);
        let d_tape = tape.value(d).scalar_value();

        prop_assert!((d_ref - d_tape).abs() < 1e-6,
            "reference {d_ref} vs tape {d_tape} at kappa {kappa}");

        // the tape runs the scan's formula: on the tape's own points, the
        // two agree far tighter than either agrees with the reference
        let (xs, ys) = (&tape.value(xe).data, &tape.value(ye).data);
        let d_scan = reference::distance_gram(
            reference::norm_sq(xs),
            reference::norm_sq(ys),
            reference::dot(xs, ys),
            kappa,
        );
        prop_assert!((d_scan - d_tape).abs() <= 1e-12 * d_scan.abs(),
            "scan {d_scan} vs tape {d_tape} at kappa {kappa}");
    }

    #[test]
    fn weighted_product_distance_matches_manual_combination(
        u in prop::collection::vec(-0.3f64..0.3, 8),
        v in prop::collection::vec(-0.3f64..0.3, 8),
        w0 in 0.05f64..0.95,
        k0 in kappa_strategy(),
        k1 in kappa_strategy(),
    ) {
        use amcad::manifold::{ProductManifold, SubspaceSpec};
        let m = ProductManifold::new(vec![SubspaceSpec::new(4, k0), SubspaceSpec::new(4, k1)]);
        let x = m.exp0(&u);
        let y = m.exp0(&v);
        let weights = [w0, 1.0 - w0];
        let combined = m.weighted_distance(&x, &y, &weights);
        let manual: f64 = m
            .component_distances(&x, &y)
            .iter()
            .zip(&weights)
            .map(|(d, w)| d * w)
            .sum();
        prop_assert!((combined - manual).abs() < 1e-9);
    }

    #[test]
    fn mnn_distance_is_a_valid_dissimilarity(
        u in prop::collection::vec(-0.25f64..0.25, 8),
        v in prop::collection::vec(-0.25f64..0.25, 8),
        wa in 0.05f64..0.95,
        wb in 0.05f64..0.95,
    ) {
        use amcad::manifold::{ProductManifold, SubspaceSpec};
        use amcad::mnn::MixedPointSet;
        let manifold = ProductManifold::new(vec![SubspaceSpec::new(4, -1.0), SubspaceSpec::new(4, 1.0)]);
        let mut set = MixedPointSet::new(manifold.clone());
        set.push(0, &manifold.exp0(&u), &[wa, 1.0 - wa]);
        set.push(1, &manifold.exp0(&v), &[wb, 1.0 - wb]);
        let d01 = set.distance_between(0, &set, 1);
        let d10 = set.distance_between(1, &set, 0);
        prop_assert!(d01 >= -1e-12);
        prop_assert!((d01 - d10).abs() < 1e-9, "symmetry: {d01} vs {d10}");
        prop_assert!(set.distance_between(0, &set, 0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// One distance, symmetric in bits: over the triangle contract's κ
    /// sweep, the training tape gives the same bits for `(x, y)` and
    /// `(y, x)`, and they are the serving scan's `distance_gram` bits.
    /// The pairs are picked as the contract picks them: `x` anywhere or at
    /// the domain's edge, `y` anywhere, within `10^-12 … 10^-1` of `x`, or
    /// mirrored through the origin from `x`.
    #[test]
    fn the_tape_distance_has_the_scans_bits_and_is_symmetric_in_them(
        k in 0usize..12,
        dim in 1usize..17,
        u in prop::collection::vec(-1.0f64..1.0, 16),
        v in prop::collection::vec(-1.0f64..1.0, 16),
        at_edge in 0u64..2,
        a in 0.0f64..1.0,
        mode in 0u64..3,
        exponent in -12.0f64..-1.0,
    ) {
        let kappa = CONTRACT_KAPPAS[k];
        let (u, v) = (&u[..dim], &v[..dim]);
        prop_assume!(reference::norm_sq(u) > 1e-6 && reference::norm_sq(v) > 1e-6);
        let rho2: f64 = if kappa.abs() > reference::KAPPA_EPS { 1.0 - 1e-4 } else { 1e-4 };
        let full = if kappa == 0.0 { rho2.sqrt() * 100.0 } else { (rho2 / kappa.abs()).sqrt() };
        let x = in_domain(u, full * if at_edge == 1 { 1.0 - 1e-6 * a } else { a }, kappa);
        let y = if mode == 0 {
            in_domain(v, full * exponent / -12.0, kappa)
        } else {
            let sign = if mode == 1 { 1.0 } else { -1.0 };
            let step = in_domain(v, full * 10f64.powf(exponent), 0.0);
            let y: Vec<f64> = x.iter().zip(&step).map(|(b, d)| sign * b + d).collect();
            in_domain(&y, reference::norm(&y).min(full), kappa)
        };

        let d = tape_distance(&x, &y, kappa).to_bits();
        prop_assert_eq!(d, tape_distance(&y, &x, kappa).to_bits());
        let scan = reference::distance_gram(
            reference::norm_sq(&x),
            reference::norm_sq(&y),
            reference::dot(&x, &y),
            kappa,
        );
        prop_assert_eq!(d, scan.to_bits());
    }
}
