//! The by-value layer contract: a layer keeps what its backward pass needs
//! in allocations it recycles from step to step, and none of it may carry
//! rows from one batch over to the next.
//!
//! A training fit alternates batch sizes — an update step's two shards are
//! 16 and 10 rows at batch 32, its validation halves 6 — so each case
//! drives one layer (and one network) through 16 → 10 → 6 → 16 rows, with
//! an inference pass of another size between each forward and backward
//! pass, and holds every output and gradient to the bits a fresh clone of
//! the layer gives on the same batch.

use fairdms_nn::layers::{
    Activation, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Sequential, Upsample2x,
};
use fairdms_tensor::{rng::TensorRng, Tensor};

const SIZES: [usize; 4] = [16, 10, 6, 16];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every parameter gradient's bits, in order, then cleared.
fn take_grads(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let grads = layer.params().iter().map(|p| bits(&p.grad)).collect();
    layer.params_mut().into_iter().for_each(|p| p.zero_grad());
    grads
}

fn shape(rows: usize, rest: &[usize]) -> Vec<usize> {
    [&[rows], rest].concat()
}

/// A layer and the shape of one of its input rows.
fn cases() -> Vec<(&'static str, Box<dyn Layer>, Vec<usize>)> {
    let mut rng = TensorRng::seeded(21);
    let image = vec![2, 7, 7];
    let mut frozen = Dense::new(12, 5, &mut rng);
    frozen.freeze();
    vec![
        (
            "conv",
            Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng)),
            image.clone(),
        ),
        (
            "conv stride 2",
            Box::new(Conv2d::new(2, 3, 3, 2, 1, &mut rng)),
            image.clone(),
        ),
        // Thirteen channels: the channels-last copy's blocks of eight and
        // four and a single channel; stride 1, so `∂X` is written whole
        // over stale storage.
        (
            "conv 13 channels",
            Box::new(Conv2d::new(13, 3, 3, 1, 1, &mut rng)),
            vec![13, 7, 7],
        ),
        // Stride 3, kernel 2: pixels between the taps, zeroed each step.
        (
            "conv stride 3",
            Box::new(Conv2d::new(5, 2, 2, 3, 0, &mut rng)),
            vec![5, 8, 8],
        ),
        ("max pool", Box::new(MaxPool2d::new(2)), image.clone()),
        ("relu", Box::new(Activation::relu()), image.clone()),
        (
            "leaky relu",
            Box::new(Activation::leaky_relu(0.01)),
            image.clone(),
        ),
        ("sigmoid", Box::new(Activation::sigmoid()), image.clone()),
        ("tanh", Box::new(Activation::tanh()), image.clone()),
        ("flatten", Box::new(Flatten::new()), image.clone()),
        ("upsample", Box::new(Upsample2x::new()), image.clone()),
        ("dense", Box::new(Dense::new(12, 5, &mut rng)), vec![12]),
        ("dense frozen", Box::new(frozen), vec![12]),
        ("dropout p = 0", Box::new(Dropout::new(0.0, 3)), vec![12]),
    ]
}

/// A BraggNN-shaped network: both convolutions, every layer kind between
/// them and the head.
fn net() -> Sequential {
    let mut rng = TensorRng::seeded(22);
    Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
        Box::new(Activation::leaky_relu(0.01)),
        Box::new(Conv2d::new(4, 2, 3, 1, 1, &mut rng)),
        Box::new(Activation::leaky_relu(0.01)),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Dense::new(2 * 3 * 3, 8, &mut rng)),
        Box::new(Activation::tanh()),
        Box::new(Dropout::new(0.0, 4)),
        Box::new(Dense::new(8, 2, &mut rng)),
        Box::new(Activation::sigmoid()),
    ])
}

#[test]
fn every_layer_gives_a_fresh_clones_bits_at_every_batch_size() {
    let mut rng = TensorRng::seeded(23);
    for (name, mut layer, row) in cases() {
        let fresh = layer.clone();
        let out_row = fresh.infer(Tensor::zeros(&shape(1, &row))).shape()[1..].to_vec();
        for rows in SIZES {
            let x = rng.uniform(&shape(rows, &row), -2.0, 2.0);
            let dy = rng.uniform(&shape(rows, &out_row), -1.0, 1.0);
            let mut reference = fresh.clone();
            let want_y = reference.forward(x.clone());
            let want_dx = reference.backward(dy.clone());
            let y = layer.forward(x.clone());
            assert_eq!(bits(&y), bits(&want_y), "{name}: forward at {rows} rows");
            assert_eq!(
                bits(&layer.infer(x)),
                bits(&y),
                "{name}: infer at {rows} rows"
            );
            // A validation pass of another size between the two passes.
            layer.infer(rng.uniform(&shape(3, &row), -2.0, 2.0));
            let dx = layer.backward(dy);
            assert_eq!(bits(&dx), bits(&want_dx), "{name}: backward at {rows} rows");
            let (got, want) = (take_grads(&mut *layer), take_grads(&mut *reference));
            assert_eq!(got, want, "{name}: parameter gradients at {rows} rows");
        }
    }
}

#[test]
fn a_network_gives_a_fresh_clones_bits_at_every_batch_size() {
    let mut rng = TensorRng::seeded(24);
    let (mut driven, fresh) = (net(), net());
    let grads = |net: &mut Sequential| {
        let grads: Vec<Vec<u32>> = net.params().iter().map(|p| bits(&p.grad)).collect();
        net.zero_grad();
        grads
    };
    for (step, rows) in SIZES.into_iter().enumerate() {
        let x = rng.uniform(&[rows, 1, 6, 6], 0.0, 1.0);
        let dy = rng.uniform(&[rows, 2], -1.0, 1.0);
        let mut reference = fresh.clone();
        let want_y = reference.forward(&x);
        let want_dx = reference.backward(dy.clone());
        let y = driven.forward(&x);
        assert_eq!(bits(&y), bits(&want_y), "forward at {rows} rows");
        assert_eq!(bits(&driven.infer(x)), bits(&y), "infer at {rows} rows");
        driven.infer(rng.uniform(&[3, 1, 6, 6], 0.0, 1.0));
        // Every other step skips the first layer's input gradient, as a
        // training step does.
        if step % 2 == 0 {
            assert_eq!(bits(&driven.backward(dy)), bits(&want_dx), "{rows} rows");
        } else {
            driven.backward_params(dy);
        }
        assert_eq!(grads(&mut driven), grads(&mut reference), "{rows} rows");
    }
}

#[test]
fn dropout_scales_each_batch_by_its_own_mask() {
    let mut rng = TensorRng::seeded(25);
    let mut dropout = Dropout::new(0.3, 26);
    let scale = 1.0 / 0.7;
    for rows in SIZES {
        let x = rng.uniform(&[rows, 12], 0.5, 2.0);
        let y = dropout.forward(x.clone());
        assert_eq!(bits(&dropout.infer(x.clone())), bits(&x), "{rows} rows");
        // The backward pass of ones is the mask this batch drew.
        let mask = dropout.backward(Tensor::ones(&[rows, 12]));
        assert_eq!(mask.shape(), x.shape());
        assert!(mask.data().iter().all(|&m| m == 0.0 || m == scale));
        assert!(mask.data().contains(&0.0) && mask.data().contains(&scale));
        assert_eq!(bits(&y), bits(&x.mul(&mask)), "{rows} rows");
    }
}

#[test]
fn a_convolution_rebuilds_its_scratch_when_the_image_changes() {
    // The kept planes, padded `∂Y` and tile lists belong to one image size:
    // alternating two sizes (and inferring on a third between the passes)
    // must give a fresh clone's bits every step.
    let mut rng = TensorRng::seeded(27);
    let mut conv = Conv2d::new(6, 4, 3, 2, 1, &mut rng);
    let fresh = conv.clone();
    for (step, rows) in SIZES.into_iter().enumerate() {
        let side = [9, 6][step % 2];
        let x = rng.uniform(&[rows, 6, side, side], -2.0, 2.0);
        let mut reference = fresh.clone();
        let want_y = reference.forward(x.clone());
        let dy = rng.uniform(want_y.shape(), -1.0, 1.0);
        let want_dx = reference.backward(dy.clone());
        let y = conv.forward(x);
        assert_eq!(
            bits(&y),
            bits(&want_y),
            "forward at {rows} rows, side {side}"
        );
        conv.infer(rng.uniform(&[3, 6, 5, 5], -2.0, 2.0));
        let dx = conv.backward(dy);
        assert_eq!(
            bits(&dx),
            bits(&want_dx),
            "backward at {rows} rows, side {side}"
        );
        assert_eq!(
            take_grads(&mut conv),
            take_grads(&mut reference),
            "{rows} rows"
        );
    }
}
