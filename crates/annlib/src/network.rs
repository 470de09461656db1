//! Multilayer perceptron (fully connected feed-forward network).
//!
//! Mirrors the network sketched in the paper's Figure 4: an input layer, one
//! or more hidden layers of sigmoid units, and an output layer. Every unit of
//! a layer is connected to every unit of the next layer by weighted edges;
//! each unit applies its activation to the weighted sum of its inputs plus a
//! bias (the `x0 = 1` input of Figure 5).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::error::AnnError;
use crate::matrix::{BatchScratch, Matrix};

/// One fully connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Weight matrix, `outputs × inputs`.
    pub weights: Matrix,
    /// Bias per output unit.
    pub biases: Vec<f64>,
    /// Activation applied to each output unit.
    pub activation: Activation,
}

impl Layer {
    fn new<R: Rng + ?Sized>(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        init_scale: f64,
        rng: &mut R,
    ) -> Self {
        // "The weights are initialized near zero" (Section IV-A): small
        // symmetric uniform initialisation.
        let weights =
            Matrix::from_fn(outputs, inputs, |_, _| rng.gen_range(-init_scale..init_scale));
        let biases = (0..outputs).map(|_| rng.gen_range(-init_scale..init_scale)).collect();
        Self { weights, biases, activation }
    }

    /// Number of input units.
    pub fn inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Number of output units.
    pub fn outputs(&self) -> usize {
        self.weights.rows()
    }

    /// Applies the layer to an input vector, returning the activated output.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>, AnnError> {
        let mut out = self.weights.matvec(input)?;
        for (o, b) in out.iter_mut().zip(&self.biases) {
            *o += b;
            *o = self.activation.apply(*o);
        }
        Ok(out)
    }

    /// [`Layer::forward`] into a caller-supplied buffer (no allocation,
    /// bit-identical arithmetic).
    pub fn forward_into(&self, input: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        self.weights.matvec_into(input, out)?;
        for (o, b) in out.iter_mut().zip(&self.biases) {
            *o += b;
            *o = self.activation.apply(*o);
        }
        Ok(())
    }

    /// Applies the layer to a row-major `n × inputs` block, writing the
    /// activated `n × outputs` block — one GEMM-shaped loop instead of `n`
    /// separate calls, with each output row bit-identical to
    /// [`Layer::forward`] on the matching input row.
    pub fn forward_rows_into(
        &self,
        inputs: &[f64],
        n: usize,
        out: &mut [f64],
    ) -> Result<(), AnnError> {
        self.weights.matvec_rows_into(inputs, n, out)?;
        for row in out.chunks_exact_mut(self.outputs()) {
            for (o, b) in row.iter_mut().zip(&self.biases) {
                *o += b;
                *o = self.activation.apply(*o);
            }
        }
        Ok(())
    }
}

/// Intermediate activations of one forward pass, consumed by backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `activations[0]` is the input; `activations[i+1]` is the output of
    /// layer `i`.
    pub activations: Vec<Vec<f64>>,
}

impl ForwardTrace {
    /// The network output of this pass.
    pub fn output(&self) -> &[f64] {
        self.activations.last().expect("trace always has at least the input")
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[13, 16, 1]` for 13
    /// inputs, one hidden layer of 16 units and a single output. Hidden
    /// layers use `hidden_activation`; the final layer uses
    /// `output_activation`.
    pub fn new<R: Rng + ?Sized>(
        layer_sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Result<Self, AnnError> {
        if layer_sizes.len() < 2 {
            return Err(AnnError::InvalidConfig {
                reason: "an MLP needs at least an input and an output layer".into(),
            });
        }
        if layer_sizes.contains(&0) {
            return Err(AnnError::InvalidConfig { reason: "layer sizes must be non-zero".into() });
        }
        let mut layers = Vec::with_capacity(layer_sizes.len() - 1);
        for w in layer_sizes.windows(2) {
            let is_output = layers.len() == layer_sizes.len() - 2;
            let act = if is_output { output_activation } else { hidden_activation };
            layers.push(Layer::new(w[0], w[1], act, 0.1, rng));
        }
        Ok(Self { layers })
    }

    /// The paper's configuration: sigmoid hidden units, linear output (the
    /// target, IPC, is a standardised real value).
    pub fn sigmoid_regressor<R: Rng + ?Sized>(
        inputs: usize,
        hidden: &[usize],
        outputs: usize,
        rng: &mut R,
    ) -> Result<Self, AnnError> {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(inputs);
        sizes.extend_from_slice(hidden);
        sizes.push(outputs);
        Self::new(&sizes, Activation::Sigmoid, Activation::Linear, rng)
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the trainer).
    pub(crate) fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Overwrites every weight and bias with `other`'s, reusing this
    /// network's buffers. Both networks must share one architecture (the
    /// trainer's best-weights snapshot is a clone of the network it
    /// tracks).
    pub(crate) fn copy_params_from(&mut self, other: &Mlp) {
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.weights.as_mut_slice().copy_from_slice(src.weights.as_slice());
            dst.biases.copy_from_slice(&src.biases);
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("validated non-empty").outputs()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.weights.rows() * l.weights.cols() + l.biases.len()).sum()
    }

    /// Runs a forward pass and returns only the output.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>, AnnError> {
        let mut trace = self.forward_trace(input)?;
        Ok(trace.activations.pop().expect("forward trace always contains the output"))
    }

    /// Runs a forward pass keeping every intermediate activation.
    pub fn forward_trace(&self, input: &[f64]) -> Result<ForwardTrace, AnnError> {
        if input.len() != self.input_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: input.len(),
            });
        }
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(activations.last().expect("non-empty"))?;
            activations.push(next);
        }
        Ok(ForwardTrace { activations })
    }

    /// Widest activation block any layer of a batched pass needs, per sample.
    fn max_layer_width(&self) -> usize {
        self.layers.iter().map(|l| l.outputs()).max().unwrap_or(0).max(self.input_dim())
    }

    /// Batched forward pass over `n` row-major samples (`inputs` is
    /// `n × input_dim`), writing the row-major `n × output_dim` outputs into
    /// `out` — one GEMM-shaped loop per layer through the ping/pong
    /// [`BatchScratch`] instead of per-sample `Vec` allocations. Every
    /// output row is bit-identical to [`Mlp::predict`] on the matching input
    /// row (pinned by a proptest).
    pub fn forward_batch_into(
        &self,
        inputs: &[f64],
        n: usize,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        let in_dim = self.input_dim();
        if inputs.len() != n * in_dim {
            return Err(AnnError::LengthMismatch {
                what: "batched forward inputs",
                expected: n * in_dim,
                actual: inputs.len(),
            });
        }
        let (ping, pong) = scratch.buffers(n * self.max_layer_width());
        ping[..inputs.len()].copy_from_slice(inputs);
        let (mut src, mut dst) = (ping, pong);
        let mut width = in_dim;
        for layer in &self.layers {
            layer.forward_rows_into(&src[..n * width], n, &mut dst[..n * layer.outputs()])?;
            width = layer.outputs();
            std::mem::swap(&mut src, &mut dst);
        }
        out.clear();
        out.extend_from_slice(&src[..n * width]);
        Ok(())
    }

    /// Convenience wrapper over [`Mlp::forward_batch_into`]: predicts every
    /// row of `rows` in one batched pass.
    pub fn forward_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, AnnError> {
        let in_dim = self.input_dim();
        let mut flat = Vec::with_capacity(rows.len() * in_dim);
        for row in rows {
            if row.len() != in_dim {
                return Err(AnnError::DimensionMismatch { expected: in_dim, actual: row.len() });
            }
            flat.extend_from_slice(row);
        }
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        self.forward_batch_into(&flat, rows.len(), &mut scratch, &mut out)?;
        Ok(out.chunks_exact(self.output_dim()).map(<[f64]>::to_vec).collect())
    }

    /// True when all weights and biases are finite.
    pub fn is_finite(&self) -> bool {
        self.layers.iter().all(|l| l.weights.is_finite() && l.biases.iter().all(|b| b.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn construction_validation() {
        let mut r = rng();
        assert!(Mlp::new(&[3], Activation::Sigmoid, Activation::Linear, &mut r).is_err());
        assert!(Mlp::new(&[3, 0, 1], Activation::Sigmoid, Activation::Linear, &mut r).is_err());
        let net = Mlp::sigmoid_regressor(13, &[16], 1, &mut r).unwrap();
        assert_eq!(net.input_dim(), 13);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.num_parameters(), 13 * 16 + 16 + 16 + 1);
        assert!(net.is_finite());
    }

    #[test]
    fn weights_initialised_near_zero() {
        let mut r = rng();
        let net = Mlp::sigmoid_regressor(4, &[8], 1, &mut r).unwrap();
        for layer in net.layers() {
            assert!(layer.weights.frobenius_norm() < 2.0);
            for b in &layer.biases {
                assert!(b.abs() <= 0.1);
            }
        }
    }

    #[test]
    fn forward_pass_dimensions_and_errors() {
        let mut r = rng();
        let net = Mlp::sigmoid_regressor(3, &[5, 4], 2, &mut r).unwrap();
        let out = net.predict(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(net.predict(&[0.1]).is_err());
        let trace = net.forward_trace(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(trace.activations.len(), 4); // input + 3 layers
        assert_eq!(trace.output().len(), 2);
    }

    #[test]
    fn hidden_activations_bounded_by_sigmoid() {
        let mut r = rng();
        let net = Mlp::sigmoid_regressor(2, &[6], 1, &mut r).unwrap();
        let trace = net.forward_trace(&[100.0, -100.0]).unwrap();
        for &h in &trace.activations[1] {
            assert!((0.0..=1.0).contains(&h));
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = Mlp::sigmoid_regressor(4, &[7], 1, &mut r1).unwrap();
        let b = Mlp::sigmoid_regressor(4, &[7], 1, &mut r2).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.predict(&[0.1, 0.2, 0.3, 0.4]).unwrap(),
            b.predict(&[0.1, 0.2, 0.3, 0.4]).unwrap()
        );
    }

    #[test]
    fn forward_batch_matches_predict_exactly() {
        let mut r = rng();
        let net = Mlp::sigmoid_regressor(4, &[6, 3], 2, &mut r).unwrap();
        let rows: Vec<Vec<f64>> =
            (0..7).map(|i| (0..4).map(|j| (i * 4 + j) as f64 * 0.17 - 1.3).collect()).collect();
        let batched = net.forward_batch(&rows).unwrap();
        for (row, out) in rows.iter().zip(&batched) {
            assert_eq!(out, &net.predict(row).unwrap());
        }
        // Dimension errors surface, scratch reuse across differing batch
        // sizes stays exact.
        assert!(net.forward_batch(&[vec![1.0]]).is_err());
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        net.forward_batch_into(&flat, rows.len(), &mut scratch, &mut out).unwrap();
        net.forward_batch_into(&flat[..4], 1, &mut scratch, &mut out).unwrap();
        assert_eq!(out, net.predict(&rows[0]).unwrap());
        assert!(net.forward_batch_into(&flat[..3], 1, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let mut r = rng();
        let net = Mlp::sigmoid_regressor(3, &[4], 1, &mut r).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        // JSON prints f64 with enough digits for near-exact round trips; the
        // behavioural check is that predictions agree to float precision.
        assert_eq!(back.layers().len(), net.layers().len());
        let x = [0.1, -0.7, 0.4];
        let a = net.predict(&x).unwrap()[0];
        let b = back.predict(&x).unwrap()[0];
        assert!((a - b).abs() < 1e-12, "round-tripped prediction drifted: {a} vs {b}");
    }

    mod batch_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The batched pass must be *bit-for-bit* the per-sample pass on
            // random networks and inputs — the byte-identity contract of
            // every artefact downstream of the predictor rests on it.
            #[test]
            fn forward_batch_is_bitwise_forward(
                seed in 0u64..500,
                inputs in 1usize..5,
                hidden in 1usize..8,
                outputs in 1usize..4,
                n in 1usize..9,
            ) {
                let mut r = StdRng::seed_from_u64(seed);
                let net = Mlp::sigmoid_regressor(inputs, &[hidden], outputs, &mut r).unwrap();
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..inputs).map(|_| r.gen_range(-3.0..3.0)).collect())
                    .collect();
                let batched = net.forward_batch(&rows).unwrap();
                for (row, out) in rows.iter().zip(&batched) {
                    let single = net.predict(row).unwrap();
                    for (a, b) in out.iter().zip(&single) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }
}
