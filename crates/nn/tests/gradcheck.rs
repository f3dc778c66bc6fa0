//! Numerical gradient checks: for every layer type, the analytic backward
//! pass must agree with central finite differences of the loss, both with
//! respect to the input and with respect to every parameter.

use fairdms_nn::layers::{Activation, Conv2d, Dense, Flatten, MaxPool2d, Sequential, Upsample2x};
use fairdms_nn::loss::{Loss, Mse};
use fairdms_tensor::{rng::TensorRng, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Scalar objective: MSE between the net output and a fixed random target.
fn objective(net: &mut Sequential, x: &Tensor, target: &Tensor) -> f32 {
    let y = net.forward(x);
    Mse.forward(&y, target)
}

/// Checks ∂L/∂x and ∂L/∂θ against central differences.
#[allow(clippy::needless_range_loop)] // pi/i walk analytic grads and live params in lockstep
fn gradcheck(mut net: Sequential, in_shape: &[usize], seed: u64) {
    let mut rng = TensorRng::seeded(seed);
    let x = rng.uniform(in_shape, -1.0, 1.0);
    let y0 = net.forward(&x);
    let target = rng.uniform(y0.shape(), -1.0, 1.0);

    // Analytic gradients.
    net.zero_grad();
    let y = net.forward(&x);
    let dl = Mse.backward(&y, &target);
    let dx = net.backward(dl.clone());

    // Input gradient vs finite differences.
    for i in (0..x.numel()).step_by((x.numel() / 24).max(1)) {
        let mut xp = x.clone();
        xp.data_mut()[i] += EPS;
        let mut xm = x.clone();
        xm.data_mut()[i] -= EPS;
        let num =
            (objective(&mut net, &xp, &target) - objective(&mut net, &xm, &target)) / (2.0 * EPS);
        let ana = dx.data()[i];
        assert!(
            (num - ana).abs() <= TOL * (1.0 + num.abs().max(ana.abs())),
            "input grad [{i}]: numeric {num} vs analytic {ana}"
        );
    }

    // Parameter gradients vs finite differences. Re-run forward/backward to
    // refresh analytic grads (finite-difference probes perturb caches).
    net.zero_grad();
    let y = net.forward(&x);
    let dl = Mse.backward(&y, &target);
    net.backward(dl.clone());
    let analytic: Vec<Tensor> = net.params().iter().map(|p| p.grad.clone()).collect();
    let n_params = analytic.len();
    for pi in 0..n_params {
        let numel = analytic[pi].numel();
        for i in (0..numel).step_by((numel / 12).max(1)) {
            let orig = net.params()[pi].value.data()[i];
            net.params_mut()[pi].value.data_mut()[i] = orig + EPS;
            let lp = objective(&mut net, &x, &target);
            net.params_mut()[pi].value.data_mut()[i] = orig - EPS;
            let lm = objective(&mut net, &x, &target);
            net.params_mut()[pi].value.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * EPS);
            let ana = analytic[pi].data()[i];
            assert!(
                (num - ana).abs() <= TOL * (1.0 + num.abs().max(ana.abs())),
                "param {pi} grad [{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }
}

#[test]
fn dense_layer_gradients() {
    let mut rng = TensorRng::seeded(0);
    gradcheck(
        Sequential::new(vec![Box::new(Dense::new(5, 4, &mut rng))]),
        &[3, 5],
        10,
    );
}

#[test]
fn dense_relu_stack_gradients() {
    let mut rng = TensorRng::seeded(1);
    gradcheck(
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]),
        &[4, 4],
        11,
    );
}

#[test]
fn sigmoid_tanh_gradients() {
    let mut rng = TensorRng::seeded(2);
    gradcheck(
        Sequential::new(vec![
            Box::new(Dense::new(3, 6, &mut rng)),
            Box::new(Activation::sigmoid()),
            Box::new(Dense::new(6, 6, &mut rng)),
            Box::new(Activation::tanh()),
        ]),
        &[2, 3],
        12,
    );
}

#[test]
fn leaky_relu_gradients() {
    let mut rng = TensorRng::seeded(3);
    gradcheck(
        Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Activation::leaky_relu(0.05)),
        ]),
        &[3, 4],
        // Seed chosen so no pre-activation sits within EPS of the kink
        // (finite differences across the kink are meaningless).
        131,
    );
}

#[test]
fn conv_gradients_stride1_pad1() {
    let mut rng = TensorRng::seeded(4);
    gradcheck(
        Sequential::new(vec![Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng))]),
        &[2, 2, 5, 5],
        14,
    );
}

#[test]
fn conv_gradients_stride2() {
    let mut rng = TensorRng::seeded(5);
    gradcheck(
        Sequential::new(vec![Box::new(Conv2d::new(1, 2, 3, 2, 1, &mut rng))]),
        &[2, 1, 7, 7],
        15,
    );
}

#[test]
fn conv_pool_dense_pipeline_gradients() {
    let mut rng = TensorRng::seeded(6);
    gradcheck(
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * 3 * 3, 2, &mut rng)),
        ]),
        &[2, 1, 6, 6],
        16,
    );
}

#[test]
fn upsample_gradients() {
    let mut rng = TensorRng::seeded(8);
    gradcheck(
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Box::new(Upsample2x::new()),
            Box::new(Conv2d::new(2, 1, 3, 1, 1, &mut rng)),
        ]),
        &[1, 1, 4, 4],
        18,
    );
}

#[test]
fn autoencoder_shape_pipeline_gradients() {
    // Encoder-decoder like the embedding models: conv down, upsample up.
    let mut rng = TensorRng::seeded(22);
    gradcheck(
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 2, 1, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Upsample2x::new()),
            Box::new(Conv2d::new(4, 1, 3, 1, 1, &mut rng)),
        ]),
        &[2, 1, 6, 6],
        23,
    );
}
