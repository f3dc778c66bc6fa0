//! Property tests for the clustering invariants listed in DESIGN.md §5.

use fairdms_clustering::{assignments_to_pdf, fuzzy, kmeans::wss, KMeans, KMeansConfig};
use fairdms_tensor::{ops::sq_dist, rng::TensorRng, Tensor};
use proptest::prelude::*;

fn random_data(n: usize, d: usize, seed: u64) -> Tensor {
    TensorRng::seeded(seed).uniform(&[n, d], -10.0, 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_point_assigned_to_nearest_center(
        n in 8usize..60,
        d in 1usize..6,
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        prop_assume!(n >= k);
        let data = random_data(n, d, seed);
        let model = KMeans::fit(&data, &KMeansConfig::new(k));
        let assignments = model.predict(&data);
        for (i, &a) in assignments.iter().enumerate() {
            let da = sq_dist(data.row(i), model.centers().row(a));
            for c in 0..k {
                let dc = sq_dist(data.row(i), model.centers().row(c));
                prop_assert!(da <= dc + 1e-4, "point {i}: {da} > {dc} (cluster {c})");
            }
        }
    }

    #[test]
    fn inertia_equals_wss_of_final_assignment(
        n in 8usize..60,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        prop_assume!(n >= k);
        let data = random_data(n, 3, seed);
        let model = KMeans::fit(&data, &KMeansConfig::new(k));
        let assignments = model.predict(&data);
        let w = wss(&data, model.centers(), &assignments);
        prop_assert!((w - model.inertia()).abs() <= 1e-2 * (1.0 + w));
    }

    #[test]
    fn fuzzy_memberships_form_distributions(
        n in 8usize..40,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        prop_assume!(n >= k);
        let data = random_data(n, 2, seed);
        let model = KMeans::fit(&data, &KMeansConfig::new(k));
        let u = fuzzy::memberships(&data, &model, 2.0);
        for i in 0..n {
            let row = u.row(i);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "row {i} sums to {sum}");
            prop_assert!(row.iter().all(|&v| (-1e-6..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn certainty_is_a_fraction(
        n in 8usize..40,
        k in 2usize..5,
        confidence in 0.0f32..1.0,
        seed in 0u64..500,
    ) {
        prop_assume!(n >= k);
        let data = random_data(n, 2, seed);
        let model = KMeans::fit(&data, &KMeansConfig::new(k));
        let c = fuzzy::certainty(&data, &model, confidence);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn pdf_sums_to_one_and_matches_counts(
        assignments in proptest::collection::vec(0usize..5, 1..100),
    ) {
        let pdf = assignments_to_pdf(&assignments, 5);
        prop_assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (c, &p) in pdf.iter().enumerate() {
            let count = assignments.iter().filter(|&&a| a == c).count();
            let expected = count as f64 / assignments.len() as f64;
            prop_assert!((p - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn kmeans_is_permutation_insensitive_in_inertia(
        n in 10usize..40,
        seed in 0u64..200,
    ) {
        let data = random_data(n, 2, seed);
        let model_a = KMeans::fit(&data, &KMeansConfig::new(3));
        // Reverse the row order; optimum inertia should be similar (same
        // data set, same seeding distribution over points).
        let rev_idx: Vec<usize> = (0..n).rev().collect();
        let rev = data.gather_rows(&rev_idx);
        let model_b = KMeans::fit(&rev, &KMeansConfig::new(3));
        // Lloyd's is a local optimizer: allow slack, but they should be in
        // the same ballpark rather than wildly divergent.
        let (a, b) = (model_a.inertia(), model_b.inertia());
        prop_assert!(a <= b * 3.0 + 1e-3 && b <= a * 3.0 + 1e-3, "{a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minibatch_model_answers_like_a_kmeans_model(
        n in 30usize..150,
        k in 2usize..6,
        seed in 0u64..100,
    ) {
        use fairdms_clustering::{fit_minibatch, MiniBatchConfig};
        let mut rng = TensorRng::seeded(seed);
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let c = (i % k) as f32 * 6.0;
            data.push(c + rng.next_normal_with(0.0, 0.4));
            data.push(rng.next_normal_with(0.0, 0.4));
        }
        let data = Tensor::from_vec(data, &[n, 2]);
        let model = fit_minibatch(&data, &MiniBatchConfig {
            k, batch_size: 16, steps: 40, seed,
        });
        prop_assert_eq!(model.k(), k);
        // Every point assigned to its nearest center; inertia consistent.
        let pred = model.predict(&data);
        for (i, &a) in pred.iter().enumerate() {
            let (nearest, _) = model.predict_one(data.row(i));
            prop_assert_eq!(a, nearest);
        }
        prop_assert!(model.inertia() >= 0.0);
        prop_assert!((model.score(&data) - model.inertia()).abs() < 1e-2 * model.inertia().max(1.0));
    }
}
