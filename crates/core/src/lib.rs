//! # edsr-core
//!
//! The paper's contribution: **E**ffective **D**ata **S**election and
//! **R**eplay for unsupervised continual learning (ICDE 2024).
//!
//! - [`select`]: entropy-based data selection (Eq. 12–15), the Table-V
//!   baseline selectors and the storage rules of the CompEmb and R2R
//!   replay baselines.
//! - [`noise`]: the kNN-std replay-noise magnitude `r(x^m)` (§III-B).
//! - [`method`]: the [`Edsr`] continual-learning method (Fig. 2) with all
//!   ablation switches (replay loss, selection strategy, neighbour count,
//!   similarity-weighted replay); CaSSLe, CompEmb, R2R and Lin et al. are
//!   four of its configurations.
//! - [`config`]: one [`EnvConfig`] reader for every env-var/CLI knob
//!   (`EDSR_THREADS`, `EDSR_OBS`, `--checkpoint`, …; CLI > env > default).
//! - [`registry`]: [`method_by_name`], every method with its paper-default
//!   hyperparameters, and [`seeded_run`], the seed convention of every
//!   run.
//!
//! This crate also re-exports the substrate crates as a facade, so
//! `edsr_core::prelude::*` is enough to run experiments.

pub mod config;
pub mod error;
pub mod method;
pub mod noise;
pub mod registry;
pub mod select;

pub use config::EnvConfig;
pub use error::Error;
pub use method::{Edsr, EdsrConfig, ReplayLoss, ReplaySampling};
pub use noise::noise_magnitudes;
pub use registry::{method_by_name, seeded_run, tabular_method_by_name};
pub use select::{table5_strategies, trace_cov, SelectionContext, SelectionStrategy};

/// One-stop imports for examples and experiment binaries.
pub mod prelude {
    pub use crate::{
        Edsr, EdsrConfig, EnvConfig, Error, ReplayLoss, ReplaySampling, SelectionStrategy,
    };
    pub use edsr_cl::{
        image_augmenters, run_multitask, tabular_augmenters, CheckpointConfig, ContinualModel, Der,
        Finetune, Lump, Method, ModelConfig, RunBuilder, RunResult, Si, TrainConfig, TrainError,
    };
    pub use edsr_data::{
        build_scenario, cifar100_sim, cifar10_sim, domainnet_sim, test_sim, tiny_imagenet_sim,
        write_scenario, ShardStream, TaskSource, SCENARIO_NAMES,
    };
    pub use edsr_ssl::SslVariant;
    pub use edsr_tensor::rng::seeded;
}

#[cfg(test)]
mod proptests;
