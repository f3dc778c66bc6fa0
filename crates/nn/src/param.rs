//! Learnable parameters: a value tensor paired with its gradient accumulator.

use fairdms_tensor::Tensor;

/// A learnable parameter.
///
/// `grad` always has the same shape as `value`; backward passes *accumulate*
/// into it, and the optimizer (or [`Param::zero_grad`]) clears it between
/// steps. Accumulation (rather than overwrite) is what lets layers be shared
/// or called on multiple micro-batches before a step.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient of the loss with respect to `value`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_of_matching_shape() {
        let p = Param::new(Tensor::ones(&[3, 4]));
        assert_eq!(p.grad.shape(), &[3, 4]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 12);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
