//! Baseline continual-learning methods from the paper's comparison
//! (Table III) that are not EDSR configurations: Finetune, SI, DER,
//! LUMP. The Multitask upper bound lives in
//! [`crate::trainer::run_multitask`]; EDSR itself, and the CaSSLe,
//! CompEmb, R2R and Lin et al. baselines built as its configurations,
//! are the `edsr-core` crate.

pub mod der;
pub mod finetune;
pub mod lump;
pub mod si;

pub use der::Der;
pub use finetune::Finetune;
pub use lump::Lump;
pub use si::Si;
