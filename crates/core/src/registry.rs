//! One registry of the continual-learning methods by name, so the
//! paper-default hyperparameters are written once: SI λ = 0.1, DER α = 0.5,
//! EDSR per [`Edsr::paper_default`]. The CLI, every experiment table
//! (Table VII through [`tabular_method_by_name`], which adds the tabular
//! stream's 1% memory and noise neighbour count), the scenario sweep and
//! the examples all build their methods here.
//!
//! Four baselines are EDSR configurations built here. CaSSLe stores
//! nothing and keeps the teacher term on new data. CompEmb, R2R and Lin
//! et al. store by their own [`SelectionStrategy`] (farthest-point
//! traversal; the largest spread over EDSR's 4 augmented views; k-means
//! centers) and replay through their own term (`L_css` alone; `L_css`
//! alone; the frozen model's memory-to-batch distances), with no teacher
//! term on new data and no replay noise.
//!
//! The seed convention of every run the CLI and the experiment sweeps make
//! is written here once too, in [`seeded_run`].

use edsr_cl::{ContinualModel, Der, Finetune, Lump, Method, ModelConfig, Si};
use edsr_data::TaskSequence;
use edsr_tensor::rng::seeded;
use rand::rngs::StdRng;

use crate::{Edsr, EdsrConfig, ReplayLoss, SelectionStrategy};

/// Builds the named method with its paper defaults. Names are the CLI's
/// lowercase spellings (`cassle`, `edsr`, …); a caller holding a display
/// name ([`Method::name`], e.g. `CaSSLe`) lowercases it first. `budget` is
/// the per-increment memory budget, `replay_batch` the replayed rows per
/// step and `noise_k` the neighbour count of EDSR's replay noise. `None`
/// for an unknown name (the joint `multitask` bound is not a [`Method`]).
pub fn method_by_name(
    name: &str,
    budget: usize,
    replay_batch: usize,
    noise_k: usize,
) -> Option<Box<dyn Method>> {
    Some(match name {
        "finetune" => Box::new(Finetune::new()),
        "si" => Box::new(Si::new(0.1)),
        "der" => Box::new(Der::new(budget, replay_batch, 0.5)),
        "lump" => Box::new(Lump::new(budget)),
        _ => {
            let cfg = edsr_config_by_name(name, budget, replay_batch, noise_k)?;
            Box::new(Edsr::new(cfg))
        }
    })
}

/// The [`EdsrConfig`] of the [`method_by_name`] entries that are EDSR
/// configurations: `edsr`, `cassle`, `compemb`, `r2r` and `lin`.
pub(crate) fn edsr_config_by_name(
    name: &str,
    budget: usize,
    replay_batch: usize,
    noise_k: usize,
) -> Option<EdsrConfig> {
    let baseline = |selection, replay_loss| EdsrConfig {
        selection,
        replay_loss,
        distill_new: false,
        ..EdsrConfig::paper_default(budget, replay_batch, 0)
    };
    Some(match name {
        "edsr" => EdsrConfig::paper_default(budget, replay_batch, noise_k),
        "cassle" => EdsrConfig {
            replay_loss: ReplayLoss::None,
            ..EdsrConfig::paper_default(0, replay_batch, noise_k)
        },
        "compemb" => baseline(SelectionStrategy::FarthestPoint, ReplayLoss::Css),
        "r2r" => baseline(SelectionStrategy::MaxVar, ReplayLoss::Css),
        "lin" => baseline(SelectionStrategy::KMeans, ReplayLoss::Distance),
        _ => return None,
    })
}

/// [`method_by_name`] sized for the tabular stream `seq` (§IV-E, Table
/// VII): the memory budget is 1% of the largest increment's train split,
/// at least 2 (`end_task` clamps it on smaller increments), and EDSR's
/// replay noise uses 10 neighbours.
pub fn tabular_method_by_name(
    name: &str,
    seq: &TaskSequence,
    replay_batch: usize,
) -> Option<Box<dyn Method>> {
    let largest = seq.tasks.iter().map(|t| t.train.len()).max().unwrap_or(100);
    method_by_name(name, (largest / 100).max(2), replay_batch, 10)
}

/// The model and run RNG of the run with base seed `seed`, by the one seed
/// convention every run of the CLI and the experiment sweeps follows: the
/// caller builds the data from `seeded(seed)`, the initial weights come
/// from the seed 1000 above it and the run's RNG (batch order,
/// augmentation draws) from the seed 2000 above it. A sweep's runs are
/// then paired across methods: the same seed gives every method the same
/// data and the same initial weights.
pub fn seeded_run(model_cfg: &ModelConfig, seed: u64) -> (ContinualModel, StdRng) {
    let (model_seed, run_seed) = (seed + 1000, seed + 2000);
    (
        ContinualModel::new(model_cfg, &mut seeded(model_seed)),
        seeded(run_seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_resolves_under_its_lowercased_display_name() {
        for name in [
            "Finetune", "SI", "DER", "LUMP", "CaSSLe", "EDSR", "CompEmb", "R2R", "Lin",
        ] {
            let method = method_by_name(&name.to_ascii_lowercase(), 4, 8, 10).expect(name);
            assert_eq!(method.name(), name);
        }
        for unknown in ["EDSR", "CaSSLe", "multitask", "edsr2"] {
            assert!(method_by_name(unknown, 4, 8, 10).is_none(), "{unknown}");
        }
    }
}
