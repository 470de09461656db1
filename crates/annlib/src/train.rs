//! Backpropagation training with early stopping.
//!
//! Implements the paper's training procedure (Section IV-A): iterative
//! presentation of training samples, gradient descent on the squared error
//! via the backpropagation update rule (Equation 1), and *early stopping*
//! against a validation set "where we keep aside a validation set from the
//! training data and halt training as accuracy begins to decrease on this
//! set", restoring the best weights seen.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::AnnError;
use crate::matrix::Matrix;
use crate::network::Mlp;

/// Hyper-parameters of the backpropagation trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate η of the weight update rule.
    pub learning_rate: f64,
    /// Momentum coefficient applied to the previous update.
    pub momentum: f64,
    /// Maximum number of passes over the training set.
    pub max_epochs: usize,
    /// Early stopping patience: number of consecutive epochs without
    /// validation improvement tolerated before halting.
    pub patience: usize,
    /// Minimum relative improvement of the validation MSE that counts as
    /// progress.
    pub min_delta: f64,
    /// Optional L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            momentum: 0.6,
            max_epochs: 400,
            patience: 20,
            min_delta: 1e-5,
            weight_decay: 1e-5,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<(), AnnError> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(AnnError::InvalidConfig {
                reason: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(AnnError::InvalidConfig {
                reason: format!("momentum must be in [0,1), got {}", self.momentum),
            });
        }
        if self.max_epochs == 0 {
            return Err(AnnError::InvalidConfig { reason: "max_epochs must be >= 1".into() });
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(AnnError::InvalidConfig {
                reason: format!("weight_decay must be non-negative, got {}", self.weight_decay),
            });
        }
        Ok(())
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually executed.
    pub epochs_run: usize,
    /// Whether early stopping triggered before `max_epochs`.
    pub early_stopped: bool,
    /// Training MSE at the final (restored) weights.
    pub final_train_mse: f64,
    /// Best validation MSE observed (the restored weights achieve it).
    pub best_val_mse: f64,
    /// Validation MSE per epoch (useful for plotting learning curves).
    pub val_mse_history: Vec<f64>,
}

/// Backpropagation trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Result<Self, AnnError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` in place on `train`, early-stopping on `val`.
    ///
    /// The network, training set and validation set must agree on input and
    /// output dimensionality. Every buffer a training step needs is sized
    /// once up front, so allocations do not grow with the sample count.
    pub fn train<R: Rng + ?Sized>(
        &self,
        net: &mut Mlp,
        train: &Dataset,
        val: &Dataset,
        rng: &mut R,
    ) -> Result<TrainReport, AnnError> {
        self.check_dims(net, train)?;
        self.check_dims(net, val)?;

        let mut velocities: Vec<(Matrix, Vec<f64>)> = net
            .layers()
            .iter()
            .map(|l| (Matrix::zeros(l.weights.rows(), l.weights.cols()), vec![0.0; l.biases.len()]))
            .collect();
        let mut scratch = Scratch::new(net);

        let mut best = net.clone();
        let mut best_val = scratch.mse(net, val)?;
        let mut since_improvement = 0usize;
        let mut history = Vec::new();
        let mut epochs_run = 0usize;
        let mut early_stopped = false;

        let mut order: Vec<usize> = (0..train.len()).collect();

        for _epoch in 0..self.config.max_epochs {
            epochs_run += 1;
            order.shuffle(rng);
            for &idx in &order {
                let (x, t) = train.sample(idx);
                self.sgd_step(net, x, t, &mut velocities, &mut scratch)?;
            }
            if !net.is_finite() {
                return Err(AnnError::NumericalInstability);
            }

            let val_mse = scratch.mse(net, val)?;
            history.push(val_mse);
            if val_mse < best_val * (1.0 - self.config.min_delta) {
                best_val = val_mse;
                best.copy_params_from(net);
                since_improvement = 0;
            } else {
                since_improvement += 1;
                if since_improvement > self.config.patience {
                    early_stopped = true;
                    break;
                }
            }
        }

        // Restore the best weights seen on the validation set.
        *net = best;
        let final_train_mse = scratch.mse(net, train)?;
        Ok(TrainReport {
            epochs_run,
            early_stopped,
            final_train_mse,
            best_val_mse: best_val,
            val_mse_history: history,
        })
    }

    fn check_dims(&self, net: &Mlp, data: &Dataset) -> Result<(), AnnError> {
        if data.input_dim() != net.input_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: net.input_dim(),
                actual: data.input_dim(),
            });
        }
        if data.output_dim() != net.output_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: net.output_dim(),
                actual: data.output_dim(),
            });
        }
        Ok(())
    }

    /// One stochastic gradient step on a single sample (the iterative
    /// per-sample presentation described in the paper), fused: each weight
    /// row is visited once per layer. The visit first backpropagates the
    /// row's share of the lower layer's delta through the *pre-update*
    /// weights, then applies, element by element,
    /// `v = v·μ; v += (−η·δ_r)·x_c; v += (−η·λ)·w; w += v`. These are the
    /// IEEE operations, in the same order, of a transposed product, a
    /// momentum scale, a rank-1 update, a decay `axpy` and an apply `axpy`
    /// over whole matrices, so the trained weights are bit-identical to
    /// that unfused sequence (pinned by a proptest against it).
    fn sgd_step(
        &self,
        net: &mut Mlp,
        input: &[f64],
        target: &[f64],
        velocities: &mut [(Matrix, Vec<f64>)],
        scratch: &mut Scratch,
    ) -> Result<(), AnnError> {
        scratch.forward(net, input)?;
        let Scratch { acts, delta, below } = scratch;
        let layers = net.layers_mut();
        let num_layers = layers.len();

        // Output-layer delta: dE/dnet = (o - t) * f'(o) for squared error.
        let act = layers[num_layers - 1].activation;
        delta.clear();
        delta.extend(
            acts[num_layers - 1]
                .iter()
                .zip(target)
                .map(|(&o, &t)| (o - t) * act.derivative_from_output(o)),
        );

        let lr = self.config.learning_rate;
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;
        let decay_rate = -lr * decay;

        for layer_idx in (0..num_layers).rev() {
            let (lower, upper) = layers.split_at_mut(layer_idx);
            let layer = &mut upper[0];
            let x: &[f64] = if layer_idx == 0 { input } else { &acts[layer_idx - 1] };
            let (vel_w, vel_b) = &mut velocities[layer_idx];
            let propagate = layer_idx > 0;
            below.clear();
            below.resize(if propagate { x.len() } else { 0 }, 0.0);

            let cols = x.len();
            let rows = layer.weights.as_mut_slice().chunks_exact_mut(cols);
            for ((w_row, v_row), &d) in
                rows.zip(vel_w.as_mut_slice().chunks_exact_mut(cols)).zip(&*delta)
            {
                for (b, w) in below.iter_mut().zip(&*w_row) {
                    *b += w * d;
                }
                let rate = -lr * d;
                for ((w, v), &xc) in w_row.iter_mut().zip(v_row).zip(x) {
                    let mut vel = *v * momentum;
                    vel += rate * xc;
                    if decay > 0.0 {
                        vel += decay_rate * *w;
                    }
                    *v = vel;
                    *w += vel;
                }
            }
            for ((vb, b), d) in vel_b.iter_mut().zip(layer.biases.iter_mut()).zip(&*delta) {
                *vb = momentum * *vb - lr * d;
                *b += *vb;
            }

            if propagate {
                let act = lower[layer_idx - 1].activation;
                for (b, &y) in below.iter_mut().zip(x) {
                    *b *= act.derivative_from_output(y);
                }
                std::mem::swap(delta, below);
            }
        }
        Ok(())
    }
}

/// The buffers of one training run: every layer's output for the sample in
/// flight, the delta being applied and the delta accumulating for the
/// layer below. Sized from the network once, reused for every step and
/// every mean-squared-error pass.
struct Scratch {
    /// `acts[i]` is the output of layer `i` (the input is read in place).
    acts: Vec<Vec<f64>>,
    delta: Vec<f64>,
    below: Vec<f64>,
}

impl Scratch {
    fn new(net: &Mlp) -> Self {
        let widest = net.layers().iter().map(|l| l.inputs().max(l.outputs())).max().unwrap_or(0);
        Self {
            acts: net.layers().iter().map(|l| vec![0.0; l.outputs()]).collect(),
            delta: Vec::with_capacity(widest),
            below: Vec::with_capacity(widest),
        }
    }

    /// Forward pass of `input` through every layer, bit-identical to
    /// [`Mlp::predict`]; returns the network output.
    fn forward(&mut self, net: &Mlp, input: &[f64]) -> Result<&[f64], AnnError> {
        let mut x = input;
        for (layer, out) in net.layers().iter().zip(&mut self.acts) {
            layer.forward_into(x, out)?;
            x = out;
        }
        Ok(self.acts.last().expect("an MLP has at least one layer"))
    }

    /// Mean squared error of `net` over `data`.
    fn mse(&mut self, net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..data.len() {
            let (x, t) = data.sample(i);
            for (yi, ti) in self.forward(net, x)?.iter().zip(t) {
                let d = yi - ti;
                total += d * d;
                count += 1;
            }
        }
        Ok(total / count.max(1) as f64)
    }
}

/// Mean squared error of a network over a dataset.
pub fn mse(net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
    Scratch::new(net).mse(net, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![0.7 * x[0] - 0.3 * x[1] + 0.1 + noise * rng.gen_range(-1.0..1.0)])
            .collect();
        Dataset::new(xs, ys).unwrap()
    }

    fn nonlinear_dataset(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> =
            xs.iter().map(|x| vec![2.0 * x[0] * x[1] + x[0] * x[0] - 0.5]).collect();
        Dataset::new(xs, ys).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::default().validate().is_ok());
        assert!(Trainer::new(TrainConfig { learning_rate: -1.0, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { momentum: 1.5, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { max_epochs: 0, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { weight_decay: -0.1, ..Default::default() }).is_err());
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = linear_dataset(300, 0.0, 10);
        let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();
        let mut net = Mlp::sigmoid_regressor(2, &[8], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default()).unwrap();
        let before = mse(&net, &val).unwrap();
        let report = trainer.train(&mut net, &train, &val, &mut rng).unwrap();
        assert!(report.best_val_mse < before * 0.2, "training should cut validation error");
        assert!(report.final_train_mse < 0.02);
        let y = net.predict(&[0.5, -0.5]).unwrap()[0];
        let expected = 0.7 * 0.5 + 0.3 * 0.5 + 0.1;
        assert!((y - expected).abs() < 0.15, "prediction {y} vs {expected}");
    }

    #[test]
    fn learns_a_nonlinear_function_better_than_a_linear_model() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = nonlinear_dataset(400, 21);
        let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();

        // Linear model = MLP without hidden layers.
        let mut linear =
            Mlp::new(&[2, 1], Activation::Linear, Activation::Linear, &mut rng).unwrap();
        let mut nonlinear = Mlp::sigmoid_regressor(2, &[16], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 800,
            patience: 60,
            learning_rate: 0.1,
            ..Default::default()
        })
        .unwrap();
        trainer.train(&mut linear, &train, &val, &mut rng).unwrap();
        trainer.train(&mut nonlinear, &train, &val, &mut rng).unwrap();
        let lin_mse = mse(&linear, &val).unwrap();
        let non_mse = mse(&nonlinear, &val).unwrap();
        assert!(
            non_mse < lin_mse * 0.8,
            "the ANN ({non_mse}) should beat a linear model ({lin_mse}) on a nonlinear target"
        );
    }

    #[test]
    fn early_stopping_triggers_and_restores_best_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        // Tiny training set + long epoch budget => certain overfitting signal.
        let train = linear_dataset(12, 0.3, 31);
        let val = linear_dataset(60, 0.0, 32);
        let mut net = Mlp::sigmoid_regressor(2, &[16], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 2000,
            patience: 10,
            learning_rate: 0.1,
            ..Default::default()
        })
        .unwrap();
        let report = trainer.train(&mut net, &train, &val, &mut rng).unwrap();
        assert!(report.early_stopped, "expected early stopping on a noisy tiny dataset");
        assert!(report.epochs_run < 2000);
        // The restored network achieves the reported best validation MSE.
        let actual = mse(&net, &val).unwrap();
        assert!((actual - report.best_val_mse).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = linear_dataset(20, 0.0, 1);
        let (train, val) = data.train_val_split(0.25, &mut rng).unwrap();
        let mut wrong_inputs = Mlp::sigmoid_regressor(3, &[4], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default()).unwrap();
        assert!(trainer.train(&mut wrong_inputs, &train, &val, &mut rng).is_err());
        let mut wrong_outputs = Mlp::sigmoid_regressor(2, &[4], 3, &mut rng).unwrap();
        assert!(trainer.train(&mut wrong_outputs, &train, &val, &mut rng).is_err());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = linear_dataset(100, 0.05, 77);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();
            let mut net = Mlp::sigmoid_regressor(2, &[6], 1, &mut rng).unwrap();
            let trainer =
                Trainer::new(TrainConfig { max_epochs: 50, ..Default::default() }).unwrap();
            trainer.train(&mut net, &train, &val, &mut rng).unwrap();
            net.predict(&[0.3, 0.3]).unwrap()[0]
        };
        assert_eq!(run(123), run(123));
    }

    #[test]
    fn mse_helper() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = Mlp::new(&[1, 1], Activation::Linear, Activation::Linear, &mut rng).unwrap();
        let data = Dataset::new(vec![vec![0.0], vec![0.0]], vec![vec![1.0], vec![3.0]]).unwrap();
        // With near-zero weights the prediction is ~bias≈0, so MSE ≈ (1+9)/2 = 5.
        let e = mse(&net, &data).unwrap();
        assert!((e - 5.0).abs() < 0.5);
    }

    /// The fused trainer against the step it replaced.
    mod fused_vs_reference {
        use super::*;
        use proptest::prelude::*;

        /// The per-sample step as first written on the [`Matrix`] helpers — a
        /// forward trace, a transposed product for the lower delta, then whole-
        /// matrix momentum scale, rank-1 update, decay `axpy` and apply `axpy`
        /// — kept as the referee the fused [`Trainer::sgd_step`] must match
        /// bit for bit.
        fn reference_step(
            config: &TrainConfig,
            net: &mut Mlp,
            input: &[f64],
            target: &[f64],
            velocities: &mut [(Matrix, Vec<f64>)],
        ) -> Result<(), AnnError> {
            let trace = net.forward_trace(input)?;
            let activations = &trace.activations;
            let num_layers = net.layers().len();
            let out_act = net.layers()[num_layers - 1].activation;
            let mut delta: Vec<f64> = trace
                .output()
                .iter()
                .zip(target)
                .map(|(o, t)| (o - t) * out_act.derivative_from_output(*o))
                .collect();
            let (lr, momentum, decay) =
                (config.learning_rate, config.momentum, config.weight_decay);
            for layer_idx in (0..num_layers).rev() {
                let prev_activation = activations[layer_idx].clone();
                let next_delta: Option<Vec<f64>> = if layer_idx > 0 {
                    let propagated = net.layers()[layer_idx].weights.matvec_transposed(&delta)?;
                    let act = net.layers()[layer_idx - 1].activation;
                    Some(
                        propagated
                            .iter()
                            .zip(&activations[layer_idx])
                            .map(|(p, y)| p * act.derivative_from_output(*y))
                            .collect(),
                    )
                } else {
                    None
                };
                let layer = &mut net.layers_mut()[layer_idx];
                let (vel_w, vel_b) = &mut velocities[layer_idx];
                vel_w.scale(momentum);
                vel_w.rank1_update(-lr, &delta, &prev_activation)?;
                if decay > 0.0 {
                    vel_w.axpy(-lr * decay, &layer.weights.clone())?;
                }
                layer.weights.axpy(1.0, vel_w)?;
                for ((vb, b), d) in vel_b.iter_mut().zip(layer.biases.iter_mut()).zip(&delta) {
                    *vb = momentum * *vb - lr * d;
                    *b += *vb;
                }
                if let Some(nd) = next_delta {
                    delta = nd;
                }
            }
            Ok(())
        }

        /// [`mse`] as first written, one allocating [`Mlp::predict`] per sample.
        fn reference_mse(net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
            let mut total = 0.0;
            let mut count = 0usize;
            for i in 0..data.len() {
                let (x, t) = data.sample(i);
                for (yi, ti) in net.predict(x)?.iter().zip(t) {
                    let d = yi - ti;
                    total += d * d;
                    count += 1;
                }
            }
            Ok(total / count.max(1) as f64)
        }

        /// [`Trainer::train`] as first written: the same epoch loop over
        /// [`reference_step`], cloning the best network on every improvement.
        fn reference_train(
            config: &TrainConfig,
            net: &mut Mlp,
            train: &Dataset,
            val: &Dataset,
            rng: &mut StdRng,
        ) -> Result<TrainReport, AnnError> {
            let mut velocities: Vec<(Matrix, Vec<f64>)> = net
                .layers()
                .iter()
                .map(|l| {
                    (Matrix::zeros(l.weights.rows(), l.weights.cols()), vec![0.0; l.biases.len()])
                })
                .collect();
            let mut best = net.clone();
            let mut best_val = reference_mse(net, val)?;
            let (mut since_improvement, mut epochs_run, mut early_stopped) = (0, 0, false);
            let mut history = Vec::new();
            let mut order: Vec<usize> = (0..train.len()).collect();
            for _epoch in 0..config.max_epochs {
                epochs_run += 1;
                order.shuffle(rng);
                for &idx in &order {
                    let (x, t) = train.sample(idx);
                    reference_step(config, net, x, t, &mut velocities)?;
                }
                if !net.is_finite() {
                    return Err(AnnError::NumericalInstability);
                }
                let val_mse = reference_mse(net, val)?;
                history.push(val_mse);
                if val_mse < best_val * (1.0 - config.min_delta) {
                    best_val = val_mse;
                    best = net.clone();
                    since_improvement = 0;
                } else {
                    since_improvement += 1;
                    if since_improvement > config.patience {
                        early_stopped = true;
                        break;
                    }
                }
            }
            *net = best;
            let final_train_mse = reference_mse(net, train)?;
            Ok(TrainReport {
                epochs_run,
                early_stopped,
                final_train_mse,
                best_val_mse: best_val,
                val_mse_history: history,
            })
        }

        fn param_bits(net: &Mlp) -> Vec<u64> {
            net.layers()
                .iter()
                .flat_map(|l| l.weights.as_slice().iter().chain(&l.biases))
                .map(|v| v.to_bits())
                .collect()
        }

        fn report_bits(r: &TrainReport) -> (usize, bool, u64, u64, Vec<u64>) {
            (
                r.epochs_run,
                r.early_stopped,
                r.final_train_mse.to_bits(),
                r.best_val_mse.to_bits(),
                r.val_mse_history.iter().map(|v| v.to_bits()).collect(),
            )
        }

        const ACTIVATIONS: [Activation; 4] =
            [Activation::Sigmoid, Activation::Tanh, Activation::Relu, Activation::Linear];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // The fused, allocation-free trainer against the step it replaced:
            // every weight and bias, the whole report and the RNG's next draw
            // (so the draw order is unchanged) must agree bit for bit.
            #[test]
            fn fused_training_is_bitwise_the_reference(
                seed in 0u64..1_000_000,
                inputs in 1usize..5,
                depth in 1usize..3,
                width_a in 1usize..17,
                width_b in 1usize..17,
                outputs in 1usize..3,
                hidden_act in 0usize..4,
                output_act in 0usize..4,
                decay_on in 0u8..2,
                momentum_on in 0u8..2,
                epochs in 1usize..6,
                patience in 0usize..3,
                n in 8usize..40,
            ) {
                use rand::{Rng, RngCore};
                let mut rng = StdRng::seed_from_u64(seed);
                let xs: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
                let ys: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..outputs).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
                let (train, val) =
                    Dataset::new(xs, ys).unwrap().train_val_split(0.25, &mut rng).unwrap();
                let mut sizes = vec![inputs];
                sizes.extend_from_slice(&[width_a, width_b][..depth]);
                sizes.push(outputs);
                let net =
                    Mlp::new(&sizes, ACTIVATIONS[hidden_act], ACTIVATIONS[output_act], &mut rng)
                        .unwrap();
                let config = TrainConfig {
                    learning_rate: rng.gen_range(0.01..0.3),
                    momentum: if momentum_on == 1 { rng.gen_range(0.1..0.9) } else { 0.0 },
                    max_epochs: epochs,
                    patience,
                    weight_decay: if decay_on == 1 { rng.gen_range(1e-4..1e-2) } else { 0.0 },
                    ..TrainConfig::default()
                };

                let (mut fused_net, mut fused_rng) = (net.clone(), rng.clone());
                let fused = Trainer::new(config.clone())
                    .unwrap()
                    .train(&mut fused_net, &train, &val, &mut fused_rng);
                let (mut reference_net, mut reference_rng) = (net, rng);
                let reference =
                    reference_train(&config, &mut reference_net, &train, &val, &mut reference_rng);
                match (&fused, &reference) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(report_bits(a), report_bits(b)),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "fused {fused:?} vs reference {reference:?}"),
                }
                prop_assert_eq!(param_bits(&fused_net), param_bits(&reference_net));
                prop_assert_eq!(fused_rng.next_u64(), reference_rng.next_u64());
            }
        }
    }
}
