//! # drcell-neural — from-scratch neural-network substrate
//!
//! The DR-Cell paper trains its Q-functions with TensorFlow; this crate
//! provides the equivalent machinery in pure Rust: dense and LSTM layers
//! with exact backpropagation (including BPTT through sequences), the Adam
//! optimizer DR-Cell trains with (plus plain SGD, which the gradient tests
//! use), and parameter flattening for target-network copies and transfer
//! learning (paper §4.3–4.4).
//!
//! The networks needed are small (a few hundred inputs, one recurrent
//! layer), so everything is `f64` on the CPU, with correctness guarded by
//! numerical gradient checks in the test suite.
//!
//! ```
//! use drcell_neural::{Activation, Mlp, MlpConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mlp = Mlp::new(
//!     &MlpConfig {
//!         layer_sizes: vec![4, 16, 2],
//!         hidden_activation: Activation::Relu,
//!         output_activation: Activation::Identity,
//!     },
//!     &mut rng,
//! )
//! .unwrap();
//! let y = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
//! assert_eq!(y.len(), 2);
//! ```

#![deny(missing_docs)]

mod activation;
mod dense;
mod error;
mod loss;
mod lstm;
mod mlp;
mod optimizer;
mod recurrent;

pub use activation::Activation;
pub use dense::DenseLayer;
pub use error::NeuralError;
pub use loss::Loss;
pub use lstm::{LstmBatchCache, LstmCache, LstmLayer};
pub use mlp::{Mlp, MlpConfig};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use recurrent::{RecurrentNetwork, RecurrentNetworkConfig};

/// Anything with a flat parameter vector: supports target-network copies
/// and transfer-learning initialisation.
pub trait Parameterized {
    /// Total number of scalar parameters.
    fn param_len(&self) -> usize;

    /// Copies all parameters into a flat vector (layer by layer, row-major).
    fn params(&self) -> Vec<f64>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_len()`.
    fn set_params(&mut self, params: &[f64]);

    /// Copies the gradient accumulators into a flat vector with the same
    /// layout as [`Parameterized::params`].
    fn grads(&self) -> Vec<f64>;

    /// Clears the gradient accumulators.
    fn zero_grads(&mut self);
}
