//! Finetune: plain `L_css` on each increment, no forgetting prevention
//! (the paper's vanilla baseline).

use edsr_data::Augmenter;
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::model::ContinualModel;
use crate::trainer::{apply_step, Method};

/// The vanilla baseline.
#[derive(Debug, Default)]
pub struct Finetune;

impl Finetune {
    /// Creates the method.
    pub fn new() -> Self {
        Self
    }
}

impl Method for Finetune {
    fn name(&self) -> String {
        "Finetune".into()
    }

    fn train_step(
        &mut self,
        model: &mut ContinualModel,
        opt: &mut dyn Optimizer,
        augs: &[Augmenter],
        batch: &Matrix,
        task_idx: usize,
        ws: &mut Workspace,
        rng: &mut StdRng,
    ) -> f32 {
        let aug = &augs[task_idx.min(augs.len() - 1)];
        ws.reset();
        let (_, _, loss) =
            model.css_on_batch(&mut ws.tape, &mut ws.binder, aug, batch, task_idx, rng);
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    // Stateless: resumable with an empty payload.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    #[test]
    fn step_reduces_css_loss_over_time() {
        let mut rng = seeded(330);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let batch = Matrix::randn(24, 16, 1.0, &mut rng);
        let mut m = Finetune::new();
        let mut ws = Workspace::new();
        let first = m.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            0,
            &mut ws,
            &mut rng,
        );
        let mut last = first;
        for _ in 0..60 {
            last = m.train_step(
                &mut model,
                &mut opt,
                std::slice::from_ref(&aug),
                &batch,
                0,
                &mut ws,
                &mut rng,
            );
        }
        assert!(
            last < first - 0.05,
            "SimSiam loss did not decrease: {first} -> {last}"
        );
    }
}
