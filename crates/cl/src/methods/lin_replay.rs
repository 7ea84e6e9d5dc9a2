//! Lin et al. \[61\] — continual contrastive learning with k-means
//! storage and representation-distance preservation.
//!
//! The paper's related work describes this memory-based UCL method as:
//! *"store data based on k-means and maintain the representation
//! distances between stored and new data to prevent forgetting."* Its
//! Min-Var storage rule appears in Table V; the full method (implemented
//! here as an additional baseline beyond the paper's tables) also adds a
//! distance-preservation loss: the pairwise squared distances between
//! memory representations and new-batch representations under the current
//! model are pulled toward the same distances under the frozen previous
//! model.

use edsr_data::{Augmenter, Dataset};
use edsr_linalg::{kmeans, nearest_to_centers};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

use crate::memory::{MemoryBuffer, MemoryItem};
use crate::model::{ContinualModel, FrozenModel};
use crate::trainer::{apply_step, Method};

/// Lin et al.'s continual contrastive learner.
pub struct LinReplay {
    memory: MemoryBuffer,
    per_task_budget: usize,
    replay_batch: usize,
    /// Weight of the distance-preservation term.
    lambda: f32,
    frozen: Option<FrozenModel>,
}

impl LinReplay {
    /// Creates the method.
    pub fn new(per_task_budget: usize, replay_batch: usize, lambda: f32) -> Self {
        Self {
            memory: MemoryBuffer::new(),
            per_task_budget,
            replay_batch,
            lambda,
            frozen: None,
        }
    }

    /// Stored sample count.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }
}

/// Records the `M x B` matrix of squared Euclidean distances between the
/// rows of `a` (`M x d`) and `b` (`B x d`):
/// `D = ‖a‖²·1ᵀ + 1·‖b‖²ᵀ − 2abᵀ`.
fn pairwise_sq_dists(tape: &mut Tape, a: Var, b: Var) -> Var {
    let (m, d) = tape.value(a).shape();
    let n = tape.value(b).rows();
    let ones_d1 = tape.constant_filled(d, 1, 1.0);
    let sq_a = tape.square(a);
    let row_sq_a = tape.matmul(sq_a, ones_d1); // M x 1
    let sq_b = tape.square(b);
    let row_sq_b = tape.matmul(sq_b, ones_d1); // B x 1
    let ones_1b = tape.constant_filled(1, n, 1.0);
    let left = tape.matmul(row_sq_a, ones_1b); // M x B
    let ones_m1 = tape.constant_filled(m, 1, 1.0);
    let row_sq_b_t = tape.transpose(row_sq_b); // 1 x B
    let right = tape.matmul(ones_m1, row_sq_b_t); // M x B
    let bt = tape.transpose(b);
    let cross = tape.matmul(a, bt); // M x B
    let cross2 = tape.scale(cross, -2.0);
    let s = tape.add(left, right);
    tape.add(s, cross2)
}

impl Method for LinReplay {
    fn name(&self) -> String {
        "Lin et al.".into()
    }

    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        _train: &Dataset,
        _rng: &mut StdRng,
    ) {
        if task_idx > 0 {
            self.frozen = Some(model.freeze());
        }
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
        let (x1, x2) = aug.two_views(batch, rng);
        ws.reset();
        let (z1, _, mut loss) =
            model.css_on_views(&mut ws.tape, &mut ws.binder, &x1, &x2, task_idx);

        if let Some(frozen) = &self.frozen {
            for group in self.memory.draw(self.replay_batch, None, true, rng) {
                // Distances under the frozen model are the anchor; the
                // frozen forwards live on the auxiliary tape so their
                // buffers recycle with the workspace.
                let fm = frozen.represent_on(
                    &mut ws.aux_tape,
                    &mut ws.aux_binder,
                    &group.inputs,
                    group.task,
                );
                let fnew = frozen.represent_on(&mut ws.aux_tape, &mut ws.aux_binder, &x1, task_idx);
                let anchor = edsr_linalg::stats::pairwise_sq_euclidean(
                    ws.aux_tape.value(fm),
                    ws.aux_tape.value(fnew),
                );
                let tape = &mut ws.tape;
                // Distances under the current model.
                let zm = model.repr_var(tape, &mut ws.binder, &group.inputs, group.task);
                let dists = pairwise_sq_dists(tape, zm, z1);
                let target = tape.constant_copy(&anchor);
                let keep = tape.mse(dists, target);
                // Normalize by the anchor scale so λ is dimensionless.
                let scale = self.lambda / anchor.map(|v| v * v).mean().max(1e-6);
                let keep = tape.scale(keep, scale);
                loss = tape.add(loss, keep);
            }
        }
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        _aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let k = self.per_task_budget.min(train.len());
        if k == 0 {
            return;
        }
        // k-means storage: the samples nearest the k cluster centers.
        let reps = model.represent(&train.inputs, task_idx);
        let clustering = kmeans(&reps, k, 50, rng);
        let mut chosen = nearest_to_centers(&reps, &clustering.centers);
        // Top up if center-dedup returned fewer than k.
        let mut i = 0;
        while chosen.len() < k && i < train.len() {
            if !chosen.contains(&i) {
                chosen.push(i);
            }
            i += 1;
        }
        self.memory.extend(chosen.into_iter().map(|i| MemoryItem {
            input: train.inputs.row(i).to_vec(),
            task: task_idx,
            noise_scale: 0.0,
            stored_features: None,
        }));
    }

    // The episodic memory is the only persistent state: the frozen model
    // is refreshed from the live weights in `begin_task`, which resume
    // re-runs at the increment boundary.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.memory.to_bytes())
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.memory = MemoryBuffer::from_bytes(state).map_err(|e| e.to_string())?;
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
    fn pairwise_distance_node_matches_reference() {
        let mut rng = seeded(380);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(3, 6, 1.0, &mut rng);
        let reference = edsr_linalg::stats::pairwise_sq_euclidean(&a, &b);
        let mut tape = Tape::new();
        let va = tape.leaf(a);
        let vb = tape.leaf(b);
        let d = pairwise_sq_dists(&mut tape, va, vb);
        assert!(tape.value(d).max_abs_diff(&reference) < 1e-4);
    }

    #[test]
    fn pairwise_distance_node_is_differentiable() {
        let mut rng = seeded(381);
        let a = Matrix::randn(3, 4, 1.0, &mut rng);
        let b = Matrix::randn(2, 4, 1.0, &mut rng);
        edsr_tensor::gradcheck::check_gradients(&[a, b], 1e-2, 3e-2, |t, vars| {
            let d = pairwise_sq_dists(t, vars[0], vars[1]);
            let sq = t.square(d);
            t.mean(sq)
        });
    }

    #[test]
    fn kmeans_storage_fills_budget() {
        let mut rng = seeded(382);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let train = Dataset::new("d", Matrix::randn(30, 16, 1.0, &mut rng), vec![0; 30]);
        let mut lin = LinReplay::new(6, 4, 1.0);
        lin.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        assert_eq!(lin.memory_len(), 6);
    }

    #[test]
    fn full_two_task_cycle_runs() {
        let mut rng = seeded(383);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let train = Dataset::new("d", Matrix::randn(24, 16, 1.0, &mut rng), vec![0; 24]);
        let mut lin = LinReplay::new(5, 4, 1.0);
        let mut ws = Workspace::new();
        lin.begin_task(&mut model, 0, &train, &mut rng);
        let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
        let l0 = lin.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            0,
            &mut ws,
            &mut rng,
        );
        assert!(l0.is_finite());
        lin.end_task(&mut model, 0, &train, &aug, &mut rng);
        lin.begin_task(&mut model, 1, &train, &mut rng);
        let l1 = lin.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            1,
            &mut ws,
            &mut rng,
        );
        assert!(l1.is_finite());
    }
}
