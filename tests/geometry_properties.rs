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
