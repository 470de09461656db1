//! # annlib — feed-forward neural networks for performance prediction
//!
//! The ACTOR paper predicts per-configuration IPC with an ensemble of
//! artificial neural networks (Section IV-A):
//!
//! * fully connected feed-forward networks with one or more hidden layers of
//!   **sigmoid** units;
//! * trained by **backpropagation** (gradient descent on the squared error),
//!   with weights initialised near zero;
//! * **early stopping** against a held-out validation fold to avoid
//!   overfitting;
//! * an **n-fold cross-validation ensemble**: n networks are trained on
//!   rotating folds and their outputs averaged, so all data contributes to
//!   the final predictor while error variance is reduced.
//!
//! This crate implements exactly that stack from scratch (no external ML
//! dependency): dense matrices ([`matrix`]), activation functions
//! ([`activation`]), multilayer perceptrons ([`network`]), an SGD +
//! momentum trainer with early stopping ([`train`]), dataset handling and
//! k-fold splitting ([`dataset`]), a feature/target scaler ([`scaler`]),
//! cross-validation ensembles ([`crossval`]) and regression metrics
//! ([`metrics`]). Models serialise with serde for offline training / online
//! reuse.
//!
//! ```
//! use annlib::prelude::*;
//! use rand::SeedableRng;
//!
//! // Learn y = x0 + x1 on a small synthetic dataset.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 10) as f64 / 10.0, (i % 7) as f64 / 7.0])
//!     .collect();
//! let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] + x[1]]).collect();
//! let data = Dataset::new(xs, ys).unwrap();
//! let config = EnsembleConfig { folds: 4, hidden: vec![8], ..EnsembleConfig::default() };
//! let ensemble = CrossValEnsemble::train(&data, &config, &mut rng).unwrap();
//! let pred = ensemble.predict(&[0.5, 0.5]).unwrap()[0];
//! assert!((pred - 1.0).abs() < 0.25);
//! ```

pub mod activation;
pub mod crossval;
pub mod dataset;
pub mod error;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod scaler;
pub mod train;

pub use activation::Activation;
pub use crossval::{CrossValEnsemble, EnsembleConfig, EnsembleScratch, FoldReport};
pub use dataset::Dataset;
pub use error::AnnError;
pub use matrix::{BatchScratch, Matrix};
pub use network::Mlp;
pub use scaler::StandardScaler;
pub use train::{TrainConfig, TrainReport, Trainer};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::crossval::{CrossValEnsemble, EnsembleConfig, EnsembleScratch, FoldReport};
    pub use crate::dataset::Dataset;
    pub use crate::error::AnnError;
    pub use crate::matrix::{BatchScratch, Matrix};
    pub use crate::metrics;
    pub use crate::network::Mlp;
    pub use crate::scaler::StandardScaler;
    pub use crate::train::{TrainConfig, TrainReport, Trainer};
}
