//! # drcell-linalg — dense linear algebra substrate
//!
//! The dense linear algebra the DR-Cell reproduction runs: the [`Matrix`]
//! type, BLAS-1 style vector helpers, the cache-blocked [`gemm`] that the
//! neural-network layers and [`Matrix::matmul`] drive, the in-place SPD
//! solve of the ALS sweeps ([`solve::solve_spd_in_place`]) and the
//! backend-dispatched [`kernels`] of the inference and neural hot paths.
//! The allocating [`decomp::Cholesky`] and [`gemm::gemm_reference`] stay as
//! the oracles the fast paths are pinned against.
//!
//! The crate is deliberately small and dependency-free (besides `serde`
//! derives): everything the paper's system needs, nothing more. All numerics
//! are `f64`.
//!
//! ```
//! use drcell_linalg::Matrix;
//!
//! # fn main() -> Result<(), drcell_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]])?;
//! let mut x = vec![1.0, 2.0];
//! drcell_linalg::solve::solve_spd_in_place(&mut a.clone(), &mut x)?;
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod matrix;
mod simd;

pub mod backend;
pub mod decomp;
pub mod gemm;
pub mod kernels;
pub mod solve;
pub mod vector;

pub use backend::{BackendChoice, BackendKind};
pub use error::LinalgError;
pub use matrix::Matrix;
