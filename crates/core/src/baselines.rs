//! Baseline strategies from the paper's related work.
//!
//! * **Multiple linear regression** — the predictor used by the authors'
//!   earlier work \[3\]; the paper argues ANNs match its accuracy while
//!   avoiding the hand-tuned, machine-specific model derivation. Implemented
//!   here as ridge-regularised least squares per target configuration, so the
//!   ANN-vs-regression ablation of Section IV-B can be reproduced.
//!
//! The other baseline, the online empirical search of \[17\], is
//! [`crate::controller::JointSearchController`] without a ladder.

use serde::{Deserialize, Serialize};

use hwcounters::EventSet;
use xeon_sim::Configuration;

use crate::corpus::TrainingCorpus;
use crate::error::ActorError;
use crate::predictor::IpcPredictor;

/// Multiple linear regression baseline (one weight vector per target
/// configuration), solved by ridge-regularised normal equations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegressionPredictor {
    event_set: EventSet,
    /// Per target configuration: intercept followed by one weight per feature.
    weights: Vec<(Configuration, Vec<f64>)>,
}

impl LinearRegressionPredictor {
    /// Fits the regression models on a corpus. `ridge` is the Tikhonov
    /// regularisation strength (the paper's regression baseline needs careful
    /// conditioning; a small ridge keeps the normal equations solvable).
    pub fn train(corpus: &TrainingCorpus, ridge: f64) -> Result<Self, ActorError> {
        if corpus.is_empty() {
            return Err(ActorError::EmptyCorpus {
                reason: "cannot fit regression on empty corpus".into(),
            });
        }
        let ridge = ridge.max(0.0);
        let mut weights = Vec::new();
        for &target in &Configuration::TARGETS {
            let dataset = corpus.dataset_for_target(target)?;
            let n = dataset.len();
            let d = dataset.input_dim() + 1; // + intercept
                                             // Normal equations: (XᵀX + λI) w = Xᵀy with X including a 1 column.
            let mut xtx = vec![vec![0.0f64; d]; d];
            let mut xty = vec![0.0f64; d];
            for i in 0..n {
                let (x, y) = dataset.sample(i);
                let mut row = Vec::with_capacity(d);
                row.push(1.0);
                row.extend_from_slice(x);
                for a in 0..d {
                    xty[a] += row[a] * y[0];
                    for b in 0..d {
                        xtx[a][b] += row[a] * row[b];
                    }
                }
            }
            for (a, row) in xtx.iter_mut().enumerate() {
                row[a] += ridge;
            }
            let w = solve_linear_system(xtx, xty).ok_or_else(|| ActorError::InvalidConfig {
                reason: format!("singular normal equations for target {target}"),
            })?;
            weights.push((target, w));
        }
        Ok(Self { event_set: corpus.event_set.clone(), weights })
    }

    /// The fitted weight vectors (intercept first), per target configuration.
    pub fn weights(&self) -> &[(Configuration, Vec<f64>)] {
        &self.weights
    }
}

impl IpcPredictor for LinearRegressionPredictor {
    fn predict(&self, features: &[f64]) -> Result<Vec<(Configuration, f64)>, ActorError> {
        let expected = self.feature_dim();
        if features.len() != expected {
            return Err(ActorError::FeatureMismatch { expected, actual: features.len() });
        }
        Ok(self
            .weights
            .iter()
            .map(|(c, w)| {
                let mut y = w[0];
                for (wi, xi) in w[1..].iter().zip(features) {
                    y += wi * xi;
                }
                (*c, y.max(0.0))
            })
            .collect())
    }

    fn event_set(&self) -> &EventSet {
        &self.event_set
    }
}

/// Gaussian elimination with partial pivoting. Returns `None` for singular
/// systems.
#[allow(clippy::needless_range_loop)] // textbook Gaussian elimination reads clearest with indices
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite matrix entries")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_workloads::{suite, BenchmarkId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xeon_sim::Machine;

    fn corpus() -> TrainingCorpus {
        let machine = Machine::xeon_qx6600();
        let benches = vec![
            suite::benchmark(BenchmarkId::Cg),
            suite::benchmark(BenchmarkId::Is),
            suite::benchmark(BenchmarkId::Bt),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        TrainingCorpus::build(&machine, &benches, &EventSet::full(), 3, 0.05, &mut rng).unwrap()
    }

    #[test]
    fn linear_system_solver_is_correct() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear_system(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        // Singular system.
        assert!(solve_linear_system(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn regression_trains_and_predicts_reasonably() {
        let c = corpus();
        let reg = LinearRegressionPredictor::train(&c, 1e-3).unwrap();
        assert_eq!(reg.weights().len(), 4);
        // On training samples the prediction should correlate with the truth.
        let mut abs_err = Vec::new();
        for s in &c.samples {
            let preds = reg.predict(&s.features).unwrap();
            for (cfg, pred) in preds {
                let obs = s.ipc_on(cfg).unwrap();
                abs_err.push(((obs - pred) / obs).abs());
            }
        }
        let mean: f64 = abs_err.iter().sum::<f64>() / abs_err.len() as f64;
        assert!(mean < 0.5, "regression in-sample mean relative error too high: {mean}");
    }

    #[test]
    fn regression_validates_inputs() {
        let c = corpus();
        let reg = LinearRegressionPredictor::train(&c, 1e-3).unwrap();
        assert!(reg.predict(&[1.0]).is_err());
        let empty = c.only(BenchmarkId::Mg);
        assert!(LinearRegressionPredictor::train(&empty, 1e-3).is_err());
    }
}
