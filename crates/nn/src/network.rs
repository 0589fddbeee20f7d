//! Multi-layer perceptron classifier.

use crate::activation::{softmax_rows, Activation};
use crate::layer::Dense;
use crate::loss::softmax_cross_entropy;
use crate::matrix::Matrix;
use crate::optim::Optimizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Architecture description for an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Number of input features.
    pub input_dim: usize,
    /// Sizes of hidden layers, in order.
    pub hidden: Vec<usize>,
    /// Number of output classes (softmax logits).
    pub num_classes: usize,
    /// Hidden-layer activation.
    pub activation: Activation,
    /// Dropout probability applied after each hidden layer (0 disables).
    pub dropout: f32,
    /// RNG seed for weight initialization and dropout masks.
    pub seed: u64,
}

impl MlpConfig {
    /// A two-hidden-layer ReLU classifier, the default architecture of the
    /// paper's detection networks.
    pub fn classifier(input_dim: usize, num_classes: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: vec![64, 32],
            num_classes,
            activation: Activation::Relu,
            dropout: 0.0,
            seed: 0x9e3779b9,
        }
    }
}

/// A feed-forward softmax classifier trained with backprop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    config: MlpConfig,
    #[serde(skip, default = "default_rng")]
    rng: StdRng,
}

fn default_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

impl Mlp {
    /// Builds a network from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `num_classes` is zero.
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.num_classes > 0, "num_classes must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.hidden.len() + 1);
        let mut prev = config.input_dim;
        for &h in &config.hidden {
            let mut layer = Dense::new(prev, h, config.activation, &mut rng);
            if config.dropout > 0.0 {
                layer.set_dropout(config.dropout);
            }
            layers.push(layer);
            prev = h;
        }
        layers.push(Dense::new(
            prev,
            config.num_classes,
            Activation::Linear,
            &mut rng,
        ));
        Mlp {
            layers,
            config,
            rng,
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Borrows the layers (first-layer weights feed the weight-magnitude
    /// field-selection baseline).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Inference forward pass producing raw logits.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        self.logits_rows(x, 0..x.rows())
    }

    /// [`Mlp::logits`] of a window of consecutive rows of `x`, read in
    /// place.
    pub(crate) fn logits_rows(&self, x: &Matrix, rows: Range<usize>) -> Matrix {
        let mut a = self.layers[0].forward_rows(x, rows);
        for layer in &self.layers[1..] {
            a = layer.forward(&a);
        }
        a
    }

    /// Class probabilities (`batch × classes`).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.logits(x))
    }

    /// Hard class predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_rows(x, 0..x.rows())
    }

    /// [`Mlp::predict`] of a window of consecutive rows of `x`, read in
    /// place.
    pub(crate) fn predict_rows(&self, x: &Matrix, rows: Range<usize>) -> Vec<usize> {
        let p = self.logits_rows(x, rows);
        (0..p.rows())
            .map(|r| {
                p.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Runs one training step on a minibatch, returning the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if shapes or labels are inconsistent with the configuration.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        let (loss, mut grad) = softmax_cross_entropy(self.forward_train(x), labels);
        self.backward(x, &mut grad);
        self.apply_grads(optimizer);
        loss
    }

    /// Runs one *autoencoder* training step: the network reconstructs its
    /// input under mean-squared error (`num_classes` acts as the output
    /// width and must equal `input_dim`). Returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if the output width differs from the input width.
    pub fn train_batch_reconstruct(&mut self, x: &Matrix, optimizer: &mut dyn Optimizer) -> f32 {
        assert_eq!(
            self.config.num_classes, self.config.input_dim,
            "autoencoder output width must equal input width"
        );
        let (loss, mut grad) = crate::loss::mse(self.forward_train(x), x);
        self.backward(x, &mut grad);
        self.apply_grads(optimizer);
        loss
    }

    /// Per-sample reconstruction error (mean squared error per feature),
    /// the anomaly score of an autoencoder.
    ///
    /// # Panics
    ///
    /// Panics if the output width differs from the input width.
    pub fn reconstruction_errors(&self, x: &Matrix) -> Vec<f32> {
        assert_eq!(
            self.config.num_classes, self.config.input_dim,
            "autoencoder output width must equal input width"
        );
        let output = self.logits(x);
        (0..x.rows())
            .map(|r| {
                let xi = x.row(r);
                let oi = output.row(r);
                xi.iter()
                    .zip(oi)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f32>()
                    / xi.len() as f32
            })
            .collect()
    }

    /// Training forward pass; each layer reads the one below's kept
    /// output in place. Returns the output layer's.
    fn forward_train(&mut self, x: &Matrix) -> &Matrix {
        for l in 0..self.layers.len() {
            let (below, rest) = self.layers.split_at_mut(l);
            let input = below.last().map_or(x, Dense::output);
            rest[0].forward_train(input, &mut self.rng);
        }
        self.layers[self.layers.len() - 1].output()
    }

    /// Backward pass over the last [`Mlp::forward_train`] of `x`, from the
    /// loss gradient w.r.t. the output. Each layer backpropagates the input
    /// gradient the layer above left in its buffer; the first layer's
    /// input gradient is not computed (only [`Mlp::input_gradient`] wants
    /// one, and it runs its own pass).
    fn backward(&mut self, x: &Matrix, grad_output: &mut Matrix) {
        for l in (0..self.layers.len()).rev() {
            let (below, rest) = self.layers.split_at_mut(l);
            let input = below.last().map_or(x, Dense::output);
            let (layer, above) = rest.split_at_mut(1);
            let grad = match above.first_mut() {
                Some(next) => next.grad_input_mut(),
                None => &mut *grad_output,
            };
            layer[0].backward(input, grad, l > 0);
        }
    }

    fn apply_grads(&mut self, optimizer: &mut dyn Optimizer) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_grads(i * 2, |slot, param, grad| optimizer.step(slot, param, grad));
        }
        optimizer.next_step();
    }

    /// Gradient of the summed logit of `class` with respect to the inputs,
    /// per sample (`batch × input_dim`). This is the saliency signal stage 1
    /// ranks byte positions with: an inference forward (no dropout, so it
    /// cannot distort attribution) that keeps every layer's activations,
    /// then a one-hot seed backpropagated through the weights.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or `x` has the wrong width.
    pub fn input_gradient(&self, x: &Matrix, class: usize) -> Matrix {
        assert!(class < self.config.num_classes, "class out of range");
        let mut activations: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let a = layer.forward(activations.last().unwrap_or(x));
            activations.push(a);
        }
        let logits = &activations[activations.len() - 1];
        let mut grad = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..grad.rows() {
            grad.set(r, class, 1.0);
        }
        for (layer, a) in self.layers.iter().zip(&activations).rev() {
            layer.activation().backprop(&mut grad, a);
            grad = grad.matmul_a_bt(layer.weights());
        }
        grad
    }

    /// Serializes the model to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Restores a model from [`Mlp::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns an error when the JSON does not describe a model, or
    /// describes one whose shapes do not fit together (see
    /// [`Mlp::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let model: Mlp = serde_json::from_str(json)?;
        match model.validate() {
            Ok(()) => Ok(model),
            Err(msg) => Err(serde::DeError::custom(format!("invalid model: {msg}")).into()),
        }
    }

    /// Checks the invariants the constructor guarantees and deserialization
    /// bypasses: every layer's weights fill their declared shape, its bias
    /// has one entry per output, the layers chain, and the first reads
    /// `input_dim` inputs and the last writes `num_classes` outputs. A model
    /// that fails would panic — or, worse, compute garbage — on first use.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let Some(last) = self.layers.last() else {
            return Err("no layers".into());
        };
        for (i, layer) in self.layers.iter().enumerate() {
            layer
                .check_shape()
                .map_err(|msg| format!("layer {i}: {msg}"))?;
        }
        for (i, pair) in self.layers.windows(2).enumerate() {
            if pair[0].output_dim() != pair[1].input_dim() {
                return Err(format!(
                    "layer {i} writes {} outputs, layer {} reads {} inputs",
                    pair[0].output_dim(),
                    i + 1,
                    pair[1].input_dim()
                ));
            }
        }
        if self.layers[0].input_dim() != self.config.input_dim {
            return Err(format!(
                "first layer reads {} inputs, the config says {}",
                self.layers[0].input_dim(),
                self.config.input_dim
            ));
        }
        if last.output_dim() != self.config.num_classes {
            return Err(format!(
                "last layer writes {} outputs for {} classes",
                last.output_dim(),
                self.config.num_classes
            ));
        }
        Ok(())
    }
}

/// Convenience: a logistic-regression classifier is an [`Mlp`] with no
/// hidden layers.
pub fn logistic_regression(input_dim: usize, num_classes: usize, seed: u64) -> Mlp {
    Mlp::new(MlpConfig {
        input_dim,
        hidden: vec![],
        num_classes,
        activation: Activation::Linear,
        dropout: 0.0,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::matrix::tests::{bits, naive_a_bt, naive_at_b, naive_matmul};
    use crate::optim::Adam;
    use rand::Rng;
    use serde_json::Value;

    /// A layer of the reference step: parameters and how to activate.
    struct RefLayer {
        weights: Matrix,
        bias: Vec<f32>,
        activation: Activation,
        dropout: f32,
    }

    /// The training step as first written, on the reference loops: a
    /// forward that keeps every activation and draws each dropout mask
    /// row-major from the shared rng, the loss, a backward that computes
    /// every gradient (the first layer's input gradient included, then
    /// dropped), and Adam on slots `2l` / `2l + 1`. Classifies when given
    /// labels, reconstructs `x` otherwise.
    fn reference_step(
        layers: &mut [RefLayer],
        rng: &mut StdRng,
        x: &Matrix,
        labels: Option<&[usize]>,
        opt: &mut Adam,
    ) -> f32 {
        let mut acts = vec![x.clone()];
        let mut masks = Vec::new();
        for layer in layers.iter() {
            let mut a = naive_matmul(&acts[acts.len() - 1], &layer.weights);
            a.add_row_broadcast(&layer.bias);
            layer.activation.apply(&mut a);
            let keep = 1.0 - layer.dropout;
            let mask = (layer.dropout > 0.0).then(|| {
                Matrix::from_fn(a.rows(), a.cols(), |_, _| {
                    if rng.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
            });
            if let Some(mask) = &mask {
                a.hadamard_inplace(mask);
            }
            masks.push(mask);
            acts.push(a);
        }
        let output = &acts[layers.len()];
        let (loss, mut grad) = match labels {
            Some(labels) => softmax_cross_entropy(output, labels),
            None => mse(output, x),
        };
        let mut grads = Vec::new();
        for (l, layer) in layers.iter().enumerate().rev() {
            let mut act = acts[l + 1].clone();
            if let Some(mask) = &masks[l] {
                grad.hadamard_inplace(mask);
                if matches!(layer.activation, Activation::Sigmoid | Activation::Tanh) {
                    for (v, &m) in act.data_mut().iter_mut().zip(mask.data()) {
                        if m > 0.0 {
                            *v /= m;
                        }
                    }
                }
            }
            layer.activation.backprop(&mut grad, &act);
            let grad_bias: Vec<f32> = (0..grad.cols())
                .map(|j| {
                    let mut sum = 0.0f32;
                    for r in 0..grad.rows() {
                        sum += grad.get(r, j);
                    }
                    sum
                })
                .collect();
            grads.push((naive_at_b(&acts[l], &grad), grad_bias));
            grad = naive_a_bt(&grad, &layer.weights);
        }
        for (l, (layer, (gw, gb))) in layers.iter_mut().zip(grads.into_iter().rev()).enumerate() {
            opt.step(2 * l, layer.weights.data_mut(), gw.data());
            opt.step(2 * l + 1, &mut layer.bias, &gb);
        }
        opt.next_step();
        loss
    }

    /// Trains `mlp` and the reference step side by side on the same
    /// batches (ReLU-sparse inputs, exact zeros included) and demands
    /// every loss and, at the end, every parameter bit for bit.
    fn assert_steps_match_reference(mut mlp: Mlp, reconstruct: bool) {
        let last = mlp.layers.len() - 1;
        let mut reference: Vec<RefLayer> = mlp
            .layers
            .iter()
            .enumerate()
            .map(|(l, layer)| RefLayer {
                weights: layer.weights().clone(),
                bias: layer.bias().to_vec(),
                activation: layer.activation(),
                dropout: if l < last { mlp.config.dropout } else { 0.0 },
            })
            .collect();
        let mut rng = mlp.rng.clone();
        let (mut opt, mut reference_opt) = (Adam::new(0.05), Adam::new(0.05));
        let mut data = StdRng::seed_from_u64(99);
        let (dim, classes) = (mlp.config.input_dim, mlp.config.num_classes);
        for step in 0..12 {
            let x = Matrix::from_fn(16, dim, |_, _| (data.gen::<f32>() * 2.0 - 1.2).max(0.0));
            let labels: Vec<usize> = (0..16).map(|_| data.gen_range(0..classes)).collect();
            let (loss, expected) = if reconstruct {
                (
                    mlp.train_batch_reconstruct(&x, &mut opt),
                    reference_step(&mut reference, &mut rng, &x, None, &mut reference_opt),
                )
            } else {
                (
                    mlp.train_batch(&x, &labels, &mut opt),
                    reference_step(
                        &mut reference,
                        &mut rng,
                        &x,
                        Some(&labels),
                        &mut reference_opt,
                    ),
                )
            };
            assert_eq!(loss.to_bits(), expected.to_bits(), "loss at step {step}");
        }
        for (l, (layer, expected)) in mlp.layers.iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(layer.weights()),
                bits(&expected.weights),
                "layer {l} weights"
            );
            let bias_bits = |b: &[f32]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bias_bits(layer.bias()),
                bias_bits(&expected.bias),
                "layer {l} bias"
            );
        }
    }

    #[test]
    fn logistic_regression_steps_match_the_reference_bit_for_bit() {
        // The only layer is also the first: no input gradient at all.
        assert_steps_match_reference(logistic_regression(6, 3, 5), false);
    }

    #[test]
    fn relu_dropout_steps_match_the_reference_bit_for_bit() {
        let mlp = Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![8, 5],
            num_classes: 3,
            activation: Activation::Relu,
            dropout: 0.3,
            seed: 4,
        });
        assert_steps_match_reference(mlp, false);
    }

    #[test]
    fn sigmoid_and_tanh_dropout_steps_match_the_reference_bit_for_bit() {
        // Dropout under a saturating activation takes the undo path.
        let config = |activation, num_classes| MlpConfig {
            input_dim: 6,
            hidden: vec![7, 4],
            num_classes,
            activation,
            dropout: 0.25,
            seed: 9,
        };
        assert_steps_match_reference(Mlp::new(config(Activation::Sigmoid, 2)), false);
        assert_steps_match_reference(Mlp::new(config(Activation::Tanh, 6)), true);
    }

    /// Mutable access to `key` of a JSON object.
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Map(entries) => {
                let (_, value) = entries
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .expect("field present");
                value
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    /// Mutable access to layer `l` of a serialized model.
    fn layer(v: &mut Value, l: usize) -> &mut Value {
        match field(v, "layers") {
            Value::Seq(layers) => &mut layers[l],
            other => panic!("not an array: {other:?}"),
        }
    }

    /// `Mlp::from_json` of `model` after `edit`, as the error it must be.
    fn rejection(model: &Mlp, edit: impl FnOnce(&mut Value)) -> String {
        let mut v = serde_json::to_value(model).expect("model lowers");
        edit(&mut v);
        let json = serde_json::to_string(&v).expect("tree serializes");
        Mlp::from_json(&json)
            .expect_err("a misshapen model must not load")
            .to_string()
    }

    fn small() -> Mlp {
        Mlp::new(MlpConfig {
            input_dim: 3,
            hidden: vec![4],
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.0,
            seed: 1,
        })
    }

    #[test]
    fn from_json_rejects_weights_that_do_not_fill_their_shape() {
        let err = rejection(&small(), |v| {
            *field(field(layer(v, 0), "weights"), "data") = Value::Seq(vec![Value::Float(0.5)]);
        });
        assert!(
            err.contains("invalid model: layer 0: 1 weights for a 3x4 matrix"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_a_bias_of_the_wrong_width() {
        let err = rejection(&small(), |v| {
            *field(layer(v, 1), "bias") = Value::Seq(vec![Value::Float(0.0)]);
        });
        assert!(
            err.contains("invalid model: layer 1: 1 biases for 2 outputs"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_layers_that_do_not_chain() {
        // A 3 → 5 → 2 model's output layer behind a 3 → 4 hidden layer:
        // the ends still fit the config, the middle does not.
        let wider = Mlp::new(MlpConfig {
            hidden: vec![5],
            ..small().config.clone()
        });
        let foreign = serde_json::to_value(&wider.layers[1]).expect("layer lowers");
        let err = rejection(&small(), |v| *layer(v, 1) = foreign);
        assert!(
            err.contains("invalid model: layer 0 writes 4 outputs, layer 1 reads 5 inputs"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_a_first_layer_off_the_input_width() {
        let err = rejection(&small(), |v| {
            *field(field(v, "config"), "input_dim") = Value::UInt(4);
        });
        assert!(
            err.contains("invalid model: first layer reads 3 inputs, the config says 4"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_an_output_layer_off_the_class_count() {
        let err = rejection(&small(), |v| {
            *field(field(v, "config"), "num_classes") = Value::UInt(3);
        });
        assert!(
            err.contains("invalid model: last layer writes 2 outputs for 3 classes"),
            "{err}"
        );
    }

    /// A linearly-separable toy problem: class = (x0 > x1).
    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen::<f32>());
        let labels = (0..n)
            .map(|r| usize::from(x.get(r, 0) > x.get(r, 1)))
            .collect();
        (x, labels)
    }

    #[test]
    fn learns_linearly_separable_problem() {
        let (x, y) = toy_data(256, 1);
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 2,
            hidden: vec![8],
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.0,
            seed: 42,
        });
        let mut opt = Adam::new(0.01);
        let mut last_loss = f32::INFINITY;
        for _ in 0..200 {
            last_loss = mlp.train_batch(&x, &y, &mut opt);
        }
        assert!(last_loss < 0.1, "loss = {last_loss}");
        let preds = mlp.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct as f32 / y.len() as f32 > 0.95);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mlp = Mlp::new(MlpConfig::classifier(4, 3));
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        let p = mlp.predict_proba(&x);
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn same_seed_same_predictions() {
        let a = Mlp::new(MlpConfig::classifier(4, 2));
        let b = Mlp::new(MlpConfig::classifier(4, 2));
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.05);
        assert_eq!(a.logits(&x).data(), b.logits(&x).data());
    }

    #[test]
    fn input_gradient_finds_the_informative_feature() {
        // Class depends only on feature 0; the saliency of feature 0 must
        // dominate features 1..4 after training.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 256;
        let x = Matrix::from_fn(n, 4, |_, _| rng.gen::<f32>());
        let y: Vec<usize> = (0..n).map(|r| usize::from(x.get(r, 0) > 0.5)).collect();
        let mut mlp = Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![16],
            num_classes: 2,
            activation: Activation::Tanh,
            dropout: 0.0,
            seed: 3,
        });
        let mut opt = Adam::new(0.02);
        for _ in 0..300 {
            mlp.train_batch(&x, &y, &mut opt);
        }
        let grad = mlp.input_gradient(&x, 1);
        let mut importance = [0.0f32; 4];
        for r in 0..n {
            for (c, imp) in importance.iter_mut().enumerate() {
                *imp += grad.get(r, c).abs();
            }
        }
        assert!(
            importance[0] > 3.0 * importance[1]
                && importance[0] > 3.0 * importance[2]
                && importance[0] > 3.0 * importance[3],
            "importance = {importance:?}"
        );
    }

    #[test]
    fn input_gradient_does_not_change_weights() {
        let mlp = Mlp::new(MlpConfig::classifier(3, 2));
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.1);
        let before = mlp.logits(&x);
        let _ = mlp.input_gradient(&x, 1);
        let after = mlp.logits(&x);
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mlp = Mlp::new(MlpConfig::classifier(4, 2));
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let json = mlp.to_json();
        let restored = Mlp::from_json(&json).unwrap();
        assert_eq!(mlp.logits(&x).data(), restored.logits(&x).data());
    }

    #[test]
    fn logistic_regression_has_single_layer() {
        let lr = logistic_regression(5, 2, 1);
        assert_eq!(lr.layers().len(), 1);
        assert_eq!(lr.parameter_count(), 5 * 2 + 2);
    }

    #[test]
    fn autoencoder_learns_identity_on_low_rank_data() {
        // Data living on a 1-D manifold inside 4-D space: x = t·[1, 2, 3, 4].
        let n = 128;
        let x = Matrix::from_fn(n, 4, |r, c| (r as f32 / n as f32) * (c + 1) as f32 * 0.2);
        let mut ae = Mlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![2],
            num_classes: 4,
            activation: Activation::Tanh,
            dropout: 0.0,
            seed: 8,
        });
        let mut opt = Adam::new(0.01);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            last = ae.train_batch_reconstruct(&x, &mut opt);
        }
        assert!(last < 0.003, "reconstruction loss {last}");
        // In-manifold points reconstruct well; off-manifold points do not.
        let errors = ae.reconstruction_errors(&x);
        let mean_in: f32 = errors.iter().sum::<f32>() / errors.len() as f32;
        let outlier = Matrix::from_vec(1, 4, vec![0.9, -0.9, 0.9, -0.9]);
        let e_out = ae.reconstruction_errors(&outlier)[0];
        assert!(e_out > 10.0 * mean_in, "in {mean_in} vs out {e_out}");
    }

    #[test]
    #[should_panic(expected = "output width")]
    fn reconstruct_requires_square_config() {
        let mut m = Mlp::new(MlpConfig::classifier(4, 2));
        let x = Matrix::zeros(1, 4);
        let mut opt = Adam::new(0.01);
        let _ = m.train_batch_reconstruct(&x, &mut opt);
    }

    #[test]
    #[should_panic(expected = "input_dim")]
    fn zero_input_dim_panics() {
        let _ = Mlp::new(MlpConfig {
            input_dim: 0,
            hidden: vec![],
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.0,
            seed: 0,
        });
    }
}
