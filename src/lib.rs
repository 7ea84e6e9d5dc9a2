//! # edsr
//!
//! Umbrella crate for the Rust reproduction of **"Effective Data Selection
//! and Replay for Unsupervised Continual Learning"** (ICDE 2024).
//!
//! Re-exports every subsystem so examples and downstream users can depend
//! on a single crate. See `README.md` for a tour and `DESIGN.md` for the
//! paper-to-module map.

pub use edsr_cl as cl;
pub use edsr_core as core;
pub use edsr_data as data;
pub use edsr_linalg as linalg;
pub use edsr_nn as nn;
pub use edsr_obs as obs;
pub use edsr_par as par;
pub use edsr_quant as quant;
pub use edsr_serve as serve;
pub use edsr_ssl as ssl;
pub use edsr_tensor as tensor;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use edsr_tensor::{Matrix, Tape, Var};
}
