//! Fully-connected layer with activation, optional dropout, and backprop.

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A dense (fully-connected) layer: `a = act(x·W + b)`.
///
/// Weights are `input_dim × output_dim`; inputs are row vectors stacked into
/// a batch matrix. [`Dense::forward_train`] keeps its output (and dropout
/// mask) for [`Dense::backward`], in buffers the layer reuses from step to
/// step; inference via [`Dense::forward`] keeps nothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
    /// Dropout probability applied to the layer output during training;
    /// zero disables dropout.
    dropout: f32,
    #[serde(skip)]
    state: TrainState,
}

/// What a training step leaves in a layer. Every buffer is reshaped and
/// overwritten in place, so a step allocates nothing once the first one
/// has sized them.
#[derive(Debug, Clone, Default)]
struct TrainState {
    /// `output` and `mask` hold a [`Dense::forward_train`].
    forwarded: bool,
    /// Post-activation, post-dropout output of the last forward.
    output: Matrix,
    /// Inverted-dropout mask of the last forward (unused without dropout).
    mask: Matrix,
    /// Sigmoid/Tanh under dropout: `output` with the mask divided back out.
    undone: Matrix,
    /// `inputᵀ` of the last backward.
    input_t: Matrix,
    /// `weightsᵀ`, refreshed by each backward that returns an input gradient.
    weights_t: Matrix,
    /// Gradient w.r.t. the input, from the last backward that asked for it.
    grad_input: Matrix,
    /// `grad_weights` / `grad_bias` hold gradients awaiting `apply_grads`.
    pending: bool,
    grad_weights: Matrix,
    grad_bias: Vec<f32>,
    /// The latest backward's parameter gradients before they are pending.
    step_weights: Matrix,
    step_bias: Vec<f32>,
}

impl Dense {
    /// Creates a layer with He-style initialization scaled for the fan-in.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let scale = (2.0 / input_dim as f32).sqrt();
        let weights = Matrix::from_fn(input_dim, output_dim, |_, _| {
            (rng.gen::<f32>() * 2.0 - 1.0) * scale
        });
        Dense {
            weights,
            bias: vec![0.0; output_dim],
            activation,
            dropout: 0.0,
            state: TrainState::default(),
        }
    }

    /// Sets the training-time dropout probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn set_dropout(&mut self, p: f32) {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        self.dropout = p;
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Borrows the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Checks what deserialization cannot: the weights fill their declared
    /// shape and the bias has one entry per output.
    pub(crate) fn check_shape(&self) -> Result<(), String> {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        if self.weights.data().len() != rows * cols {
            return Err(format!(
                "{} weights for a {rows}x{cols} matrix",
                self.weights.data().len()
            ));
        }
        if self.bias.len() != cols {
            return Err(format!("{} biases for {cols} outputs", self.bias.len()));
        }
        Ok(())
    }

    /// `out = act(x[rows]·W + b)`.
    fn affine_into(&self, x: &Matrix, rows: Range<usize>, out: &mut Matrix) {
        x.matmul_rows_into(rows, &self.weights, out);
        out.add_row_broadcast(&self.bias);
        self.activation.apply(out);
    }

    /// Inference forward pass (no caching, no dropout).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_rows(x, 0..x.rows())
    }

    /// [`Dense::forward`] of a window of consecutive rows of `x`, read in
    /// place.
    pub(crate) fn forward_rows(&self, x: &Matrix, rows: Range<usize>) -> Matrix {
        let mut out = Matrix::default();
        self.affine_into(x, rows, &mut out);
        out
    }

    /// Training forward pass: applies inverted dropout when enabled and
    /// keeps the output for [`Dense::backward`].
    pub fn forward_train(&mut self, x: &Matrix, rng: &mut impl Rng) -> &Matrix {
        let mut a = std::mem::take(&mut self.state.output);
        self.affine_into(x, 0..x.rows(), &mut a);
        if self.dropout > 0.0 {
            let keep = 1.0 - self.dropout;
            let mask = &mut self.state.mask;
            mask.reset(a.rows(), a.cols());
            for m in mask.data_mut() {
                *m = if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
            }
            a.hadamard_inplace(mask);
        }
        self.state.output = a;
        self.state.forwarded = true;
        &self.state.output
    }

    /// The output of the last [`Dense::forward_train`].
    pub(crate) fn output(&self) -> &Matrix {
        &self.state.output
    }

    /// The input gradient of the last [`Dense::backward`] that computed one;
    /// the layer below backpropagates it in place.
    pub(crate) fn grad_input_mut(&mut self) -> &mut Matrix {
        &mut self.state.grad_input
    }

    /// Backward pass over the last [`Dense::forward_train`], whose input
    /// was `input`: turns `grad_output` (w.r.t. this layer's output) in
    /// place into the gradient w.r.t. its pre-activation, accumulates the
    /// parameter gradients, and — only when `input_gradient` is set, since
    /// the first layer's is never read — computes the gradient w.r.t. the
    /// input into a buffer the layer below backpropagates in place.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Dense::forward_train`], or on
    /// an `input` or `grad_output` shaped differently from that forward's.
    pub fn backward(&mut self, input: &Matrix, grad_output: &mut Matrix, input_gradient: bool) {
        let s = &mut self.state;
        assert!(s.forwarded, "backward requires a prior forward_train");
        // The derivative is evaluated on the kept output, which carries the
        // dropout scaling. The mask is 0 (gradient zeroed here anyway) or
        // 1/keep (sign- and zero-preserving), so ReLU/Linear read it as is;
        // Sigmoid/Tanh need the pre-dropout activations back.
        let activations = if self.dropout > 0.0 {
            grad_output.hadamard_inplace(&s.mask);
            if matches!(self.activation, Activation::Sigmoid | Activation::Tanh) {
                s.undone.copy_from(&s.output);
                for (v, &m) in s.undone.data_mut().iter_mut().zip(s.mask.data()) {
                    if m > 0.0 {
                        *v /= m;
                    }
                }
                &s.undone
            } else {
                &s.output
            }
        } else {
            &s.output
        };
        self.activation.backprop(grad_output, activations);
        // dW = inputᵀ · grad, as the product of a kept transpose.
        input.transpose_into(&mut s.input_t);
        let rows = 0..s.input_t.rows();
        s.input_t
            .matmul_rows_into(rows, grad_output, &mut s.step_weights);
        grad_output.column_sums_into(&mut s.step_bias);
        if input_gradient {
            self.weights.transpose_into(&mut s.weights_t);
            grad_output.matmul_a_bt_into(&s.weights_t, &mut s.grad_input);
        }
        // A second backward before `apply_grads` adds its gradients to the
        // pending ones elementwise, after its own sums are complete.
        if s.pending {
            for (a, b) in s
                .grad_weights
                .data_mut()
                .iter_mut()
                .zip(s.step_weights.data())
            {
                *a += b;
            }
            for (a, b) in s.grad_bias.iter_mut().zip(&s.step_bias) {
                *a += b;
            }
        } else {
            std::mem::swap(&mut s.grad_weights, &mut s.step_weights);
            std::mem::swap(&mut s.grad_bias, &mut s.step_bias);
            s.pending = true;
        }
    }

    /// Applies accumulated gradients via `step` (called once per parameter
    /// tensor with a stable slot id derived from `base_slot`), then clears
    /// them.
    pub fn apply_grads(
        &mut self,
        base_slot: usize,
        mut step: impl FnMut(usize, &mut [f32], &[f32]),
    ) {
        let s = &mut self.state;
        if s.pending {
            step(base_slot, self.weights.data_mut(), s.grad_weights.data());
            step(base_slot + 1, &mut self.bias, &s.grad_bias);
            s.pending = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let layer = Dense::new(4, 3, Activation::Relu, &mut r);
        let x = Matrix::zeros(5, 4);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dW for L = sum(output).
        let mut r = rng();
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut r);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.0, -0.4]);
        let out = layer.forward_train(&x, &mut r);
        let mut ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        layer.backward(&x, &mut ones, false);
        let mut analytic = None;
        layer.apply_grads(0, |slot, _param, grad| {
            if slot == 0 {
                analytic = Some(grad.to_vec());
            }
        });
        let analytic = analytic.expect("weights gradient produced");
        let eps = 1e-3f32;
        for (idx, &expected) in analytic.iter().enumerate().take(6) {
            let orig = layer.weights.data()[idx];
            layer.weights.data_mut()[idx] = orig + eps;
            let lp: f32 = layer.forward(&x).data().iter().sum();
            layer.weights.data_mut()[idx] = orig - eps;
            let lm: f32 = layer.forward(&x).data().iter().sum();
            layer.weights.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - expected).abs() < 1e-2,
                "weight {idx}: numeric {numeric} vs analytic {expected}",
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, &mut r);
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.1, 0.7]);
        let out = layer.forward_train(&x, &mut r);
        let mut ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; 2]);
        layer.backward(&x, &mut ones, true);
        let grad_input = layer.state.grad_input.clone();
        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward(&xp).data().iter().sum();
            let lm: f32 = layer.forward(&xm).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_input.data()[idx]).abs() < 1e-2,
                "input {idx}: numeric {numeric} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn dropout_zeroes_and_scales() {
        let mut r = rng();
        let mut layer = Dense::new(1, 1000, Activation::Linear, &mut r);
        layer.set_dropout(0.5);
        // Force deterministic weights: all ones, zero bias.
        layer.weights = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let x = Matrix::from_vec(1, 1, vec![1.0]);
        let out = layer.forward_train(&x, &mut r).clone();
        let zeros = out.data().iter().filter(|v| **v == 0.0).count();
        let nonzero: Vec<f32> = out.data().iter().copied().filter(|v| *v != 0.0).collect();
        // Roughly half dropped.
        assert!((300..700).contains(&zeros), "zeros = {zeros}");
        // Survivors are scaled by 1/keep = 2.
        for v in nonzero {
            assert!((v - 2.0).abs() < 1e-6);
        }
        // Inference applies no dropout.
        let out = layer.forward(&x);
        assert!(out.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "forward_train")]
    fn backward_without_forward_panics() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut r);
        layer.backward(&Matrix::zeros(1, 2), &mut Matrix::zeros(1, 2), true);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut r = rng();
        let mut layer = Dense::new(2, 1, Activation::Linear, &mut r);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        for _ in 0..2 {
            let out = layer.forward_train(&x, &mut r);
            let mut g = Matrix::from_vec(out.rows(), out.cols(), vec![1.0]);
            layer.backward(&x, &mut g, false);
        }
        let mut seen = Vec::new();
        layer.apply_grads(0, |slot, _p, g| {
            if slot == 0 {
                seen = g.to_vec();
            }
        });
        // Two identical backward passes double the gradient: dW = 2·x.
        assert_eq!(seen, vec![2.0, 4.0]);
    }
}
