//! Property tests for the NN framework: checkpoint round-trips over random
//! architectures, optimizer sanity, and training determinism.

use fairdms_nn::checkpoint;
use fairdms_nn::layers::{Activation, Dense, Dropout, Layer, Sequential};
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Sgd;
use fairdms_nn::trainer::{TrainConfig, Trainer};
use fairdms_tensor::{rng::TensorRng, Tensor};
use proptest::prelude::*;

/// A random MLP: 1–3 hidden layers with assorted widths/activations.
fn random_mlp(widths: &[usize], acts: &[u8], seed: u64, input: usize, output: usize) -> Sequential {
    let mut rng = TensorRng::seeded(seed);
    let mut net = Sequential::empty();
    let mut prev = input;
    for (w, a) in widths.iter().zip(acts) {
        net.push(Box::new(Dense::new(prev, *w, &mut rng)));
        match a % 4 {
            0 => net.push(Box::new(Activation::relu())),
            1 => net.push(Box::new(Activation::tanh())),
            2 => net.push(Box::new(Activation::sigmoid())),
            _ => net.push(Box::new(Activation::leaky_relu(0.05))),
        }
        prev = *w;
    }
    net.push(Box::new(Dense::new(prev, output, &mut rng)));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn checkpoint_roundtrips_any_mlp(
        widths in proptest::collection::vec(1usize..24, 1..4),
        acts in proptest::collection::vec(any::<u8>(), 3),
        seed in 0u64..500,
        input in 1usize..12,
        output in 1usize..6,
    ) {
        let a = random_mlp(&widths, &acts, seed, input, output);
        let mut b = random_mlp(&widths, &acts, seed + 1, input, output);
        let blob = checkpoint::save(&a);
        checkpoint::load(&mut b, &blob).unwrap();
        let x = TensorRng::seeded(seed ^ 7).uniform(&[3, input], -1.0, 1.0);
        let ya = a.infer(&x);
        let yb = b.infer(&x);
        prop_assert!(fairdms_tensor::allclose(&ya, &yb, 1e-6));
    }

    #[test]
    fn training_is_deterministic_given_seeds(
        seed in 0u64..200,
        n in 8usize..48,
    ) {
        let run = || {
            let mut rng = TensorRng::seeded(seed);
            let x = rng.uniform(&[n, 3], -1.0, 1.0);
            let y = rng.uniform(&[n, 1], -1.0, 1.0);
            let mut net = random_mlp(&[8], &[0], seed, 3, 1);
            let mut opt = Sgd::new(0.05);
            let cfg = TrainConfig {
                epochs: 5,
                batch_size: 8,
                shuffle_seed: seed,
                ..TrainConfig::default()
            };
            Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y).val_curve()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn gradient_descent_never_diverges_on_linear_data(
        seed in 0u64..200,
        lr_milli in 1u32..50, // lr in [0.001, 0.05]
    ) {
        let mut rng = TensorRng::seeded(seed);
        let x = rng.uniform(&[64, 2], -1.0, 1.0);
        let y = Tensor::from_vec(
            x.data().chunks(2).map(|c| 0.3 * c[0] - 0.7 * c[1]).collect(),
            &[64, 1],
        );
        let mut net = random_mlp(&[], &[], seed, 2, 1);
        let mut opt = Sgd::new(lr_milli as f32 * 1e-3);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
        prop_assert!(report.final_val_loss().is_finite());
        prop_assert!(report.final_val_loss() <= report.curve[0].val_loss * 1.5);
    }

    #[test]
    fn dropout_mask_consistency(p_pct in 0u32..90, seed in 0u64..200) {
        let p = p_pct as f32 / 100.0;
        let mut d = Dropout::new(p, seed);
        let x = Tensor::ones(&[256]);
        let y = d.forward(x);
        let g = d.backward(Tensor::ones(&[256]));
        // Gradient mask equals forward mask exactly.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            prop_assert_eq!(*gy == 0.0, *yy == 0.0);
        }
        // Survivor scaling is 1/(1-p).
        if p > 0.0 {
            let scale = 1.0 / (1.0 - p);
            prop_assert!(y
                .data()
                .iter()
                .all(|&v| v == 0.0 || (v - scale).abs() < 1e-5));
        }
    }
}
