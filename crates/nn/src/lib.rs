//! # p4guard-nn
//!
//! A from-scratch, CPU-only neural-network library sized for the small MLPs
//! the `p4guard` pipeline trains over packet-header bytes: dense layers with
//! backprop, the Adam optimizer, dropout, a minibatch trainer with
//! per-epoch history, classification metrics (including ROC/AUC), and
//! saliency attribution for learned feature selection.
//!
//! The paper used a GPU deep-learning framework; this crate substitutes for
//! it because (per the reproduction brief) the Rust ML ecosystem is
//! immature, and the networks involved — a few dense layers over at most a
//! few hundred byte features — train in seconds on a CPU.
//!
//! # Examples
//!
//! Train a classifier on a toy problem:
//!
//! ```
//! use p4guard_nn::data::Dataset;
//! use p4guard_nn::matrix::Matrix;
//! use p4guard_nn::network::{Mlp, MlpConfig};
//! use p4guard_nn::optim::Adam;
//! use p4guard_nn::train::{train, TrainConfig};
//!
//! // class = x0 > 0.5, 64 samples.
//! let features = Matrix::from_fn(64, 2, |r, c| if c == 0 { (r % 10) as f32 / 10.0 } else { 0.3 });
//! let labels: Vec<usize> = (0..64).map(|r| usize::from((r % 10) as f32 / 10.0 > 0.5)).collect();
//! let data = Dataset::new(features, labels);
//!
//! let mut model = Mlp::new(MlpConfig::classifier(2, 2));
//! let mut optimizer = Adam::new(0.01);
//! let history = train(&mut model, &data, &mut optimizer, &TrainConfig::default());
//! assert!(history.final_accuracy().unwrap() > 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod data;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod optim;
pub mod saliency;
pub mod train;

pub use data::{Dataset, Standardizer};
pub use matrix::Matrix;
pub use metrics::{binary_metrics, BinaryMetrics, Confusion};
pub use network::{logistic_regression, Mlp, MlpConfig};
pub use optim::{Adam, Optimizer};
pub use train::{train, History, TrainConfig};
