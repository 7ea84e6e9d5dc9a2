//! One registry of the continual-learning methods by name, so the
//! paper-default hyperparameters are written once: SI λ = 0.1, DER α = 0.5,
//! R2R with 4 augmentation views, EDSR per [`Edsr::paper_default`]. The CLI,
//! the experiment tables, the scenario sweep and the examples all build
//! their methods here.

use edsr_cl::{Cassle, Der, Finetune, Lump, Method, Si};

use crate::{CompEmb, Edsr, R2r};

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
        "cassle" => Box::new(Cassle::new()),
        "edsr" => Box::new(Edsr::paper_default(budget, replay_batch, noise_k)),
        "compemb" => Box::new(CompEmb::new(budget, replay_batch)),
        "r2r" => Box::new(R2r::new(budget, replay_batch, 4)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_resolves_under_its_lowercased_display_name() {
        for name in [
            "Finetune", "SI", "DER", "LUMP", "CaSSLe", "EDSR", "CompEmb", "R2R",
        ] {
            let method = method_by_name(&name.to_ascii_lowercase(), 4, 8, 10).expect(name);
            assert_eq!(method.name(), name);
        }
        for unknown in ["EDSR", "CaSSLe", "multitask", "edsr2"] {
            assert!(method_by_name(unknown, 4, 8, 10).is_none(), "{unknown}");
        }
    }
}
