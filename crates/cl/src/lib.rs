//! # edsr-cl
//!
//! The continual-learning harness of the EDSR reproduction: the
//! [`ContinualModel`] (encoder + SSL head + distillation head), episodic
//! [`MemoryBuffer`], the kNN evaluation protocol and Acc/Fgt metrics
//! (paper Eq. 17–18), the sequence [`trainer`], and all baseline methods
//! of Table III (Finetune, SI, DER, LUMP, CaSSLe, Multitask).

pub mod checkpoint;
pub mod error;
pub mod eval;
pub mod fault;
pub mod guard;
pub mod memory;
pub mod methods;
pub mod metrics;
pub mod model;
pub mod trainer;

pub use checkpoint::{
    latest_valid_run_state, latest_valid_serve_snapshot, list_serve_snapshots,
    load_any_serve_snapshot, load_run_state, memory_representations, quantize_serve_snapshot,
    save_quant_serve_snapshot, save_run_state, save_serve_snapshot, serve_snapshot_path,
    AnyServeSnapshot, CheckpointConfig, RunState, ServeSnapshot, UnreadableSnapshot,
    SERVE_SNAPSHOT_MAGIC,
};
pub use error::TrainError;
pub use eval::{accuracy, knn_classify};
pub use fault::{Fault, FaultInjector, FaultPlan};
pub use guard::{GuardConfig, StepGuard};
pub use memory::{MemoryBatch, MemoryBuffer, MemoryItem};
pub use methods::{Cassle, Der, Finetune, LinReplay, Lump, Si};
pub use metrics::{mean_std, AccuracyMatrix};
pub use model::{ContinualModel, FrozenModel, ModelConfig};
pub use trainer::{
    apply_step, evaluate_row, image_augmenters, run_multitask, tabular_augmenters, Method,
    MultitaskResult, OptimizerKind, RunBuilder, RunResult, TrainConfig,
};

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod trainer_tests;
