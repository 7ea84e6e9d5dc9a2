//! EDSR — the paper's method (§III-C, Fig. 2).
//!
//! Training stage: `L_css` on the new increment, `½(L_dis(x_1)+L_dis(x_2))`
//! distillation on the new increment (the CaSSLe-style anchor), and
//! `½ L_rpl` noise-enhanced distillation replay on the stored memory.
//! Selecting stage: extract un-augmented representations with the
//! optimized model, run entropy-based selection, compute each stored
//! sample's kNN-std noise magnitude, and append to the memory.
//!
//! The configuration also exposes every ablation the paper evaluates:
//! replay-loss choice (Table IV), selection strategy (Table V), noise
//! neighbourhood size (Fig. 6), and the §IV-F similarity-weighted replay
//! extension. Four baselines are configurations too, and
//! [`Method::name`] reports each by its published name:
//!
//! - CaSSLe stores nothing (`per_task_budget: 0`, [`ReplayLoss::None`]).
//! - CompEmb ([`SelectionStrategy::FarthestPoint`]) and R2R
//!   ([`SelectionStrategy::MaxVar`]) replay through [`ReplayLoss::Css`].
//! - Lin et al. store k-means centers ([`SelectionStrategy::KMeans`]) and
//!   replay through [`ReplayLoss::Distance`].
//!
//! The last three have no teacher term on new data and no replay noise.
//! The frozen teacher is copied only when a term reads it.

use edsr_cl::memory::{MemoryBatch, MemoryBuffer, MemoryItem};
use edsr_cl::model::{ContinualModel, FrozenModel};
use edsr_cl::trainer::{apply_step, Method};
use edsr_data::{Augmenter, Dataset};
use edsr_linalg::stats::{cosine_similarity, pairwise_sq_euclidean, scalar_std};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

use crate::noise::noise_magnitudes;
use crate::select::{SelectionContext, SelectionStrategy};

/// How the stored data are replayed (Table IV's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayLoss {
    /// No replay at all (the memory is still selected; CaSSLe with no
    /// memory and `distill_new = true`).
    None,
    /// Replay directly through `L_css` on two augmented memory views (the
    /// over-fitting ablation).
    Css,
    /// Distillation replay without noise (`L_dis`).
    Dis,
    /// EDSR's noise-enhanced distillation replay (`L_rpl`, Eq. 16).
    Rpl,
    /// Lin et al. \[61\]: the squared distances between the raw memory
    /// rows' and the first new view's representations are pulled toward
    /// the frozen model's. Added unscaled, normalized by the frozen
    /// distances' mean square.
    Distance,
}

impl ReplayLoss {
    /// Display name used by the Table-IV harness.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayLoss::None => "No Replay",
            ReplayLoss::Css => "L_css",
            ReplayLoss::Dis => "L_dis",
            ReplayLoss::Rpl => "L_rpl",
            ReplayLoss::Distance => "L_dist",
        }
    }
}

/// How memory samples are drawn each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySampling {
    /// Uniform without replacement (the paper's default).
    Uniform,
    /// §IV-F extension: sample proportionally to the stored
    /// representation's similarity to the current batch.
    SimilarityWeighted,
}

/// Views drawn per train sample when estimating Min-Var's and Max-Var's
/// augmentation variance.
const MIN_VAR_VIEWS: usize = 4;

/// Full EDSR configuration.
#[derive(Debug, Clone)]
pub struct EdsrConfig {
    /// Memory budget `s` per increment.
    pub per_task_budget: usize,
    /// Memory samples replayed per step.
    pub replay_batch: usize,
    /// Neighbour count for `r(x)` (0 ⇒ `L_rpl` degenerates to `L_dis`).
    pub noise_neighbors: usize,
    /// Selection strategy (Table V).
    pub selection: SelectionStrategy,
    /// Replay loss (Table IV).
    pub replay_loss: ReplayLoss,
    /// Replay sampling rule.
    pub replay_sampling: ReplaySampling,
    /// Keep the CaSSLe-style distillation on *new* data (the paper's full
    /// objective includes it; disable to isolate replay).
    pub distill_new: bool,
}

impl EdsrConfig {
    /// The paper's default EDSR: high-entropy selection, noise-enhanced
    /// replay, uniform sampling, distillation on new data.
    pub fn paper_default(
        per_task_budget: usize,
        replay_batch: usize,
        noise_neighbors: usize,
    ) -> Self {
        Self {
            per_task_budget,
            replay_batch,
            noise_neighbors,
            selection: SelectionStrategy::HighEntropy,
            replay_loss: ReplayLoss::Rpl,
            replay_sampling: ReplaySampling::Uniform,
            distill_new: true,
        }
    }
}

/// The EDSR method.
pub struct Edsr {
    cfg: EdsrConfig,
    memory: MemoryBuffer,
    frozen: Option<FrozenModel>,
}

impl Edsr {
    /// Creates EDSR from a configuration.
    pub fn new(cfg: EdsrConfig) -> Self {
        Self {
            cfg,
            memory: MemoryBuffer::new(),
            frozen: None,
        }
    }

    /// Convenience: the paper's default configuration.
    pub fn paper_default(
        per_task_budget: usize,
        replay_batch: usize,
        noise_neighbors: usize,
    ) -> Self {
        Self::new(EdsrConfig::paper_default(
            per_task_budget,
            replay_batch,
            noise_neighbors,
        ))
    }

    /// Stored sample count.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// Read-only view of the memory (diagnostics / tests).
    pub fn memory(&self) -> &MemoryBuffer {
        &self.memory
    }

    /// The active configuration.
    pub fn config(&self) -> &EdsrConfig {
        &self.cfg
    }

    /// Draws memory groups per the configured sampling rule. For
    /// similarity weighting, each item's weight is the cosine similarity
    /// (shifted ≥ 0) between its stored representation and the mean
    /// current-batch representation.
    fn draw_memory(
        &self,
        model: &ContinualModel,
        batch: &Matrix,
        task_idx: usize,
        rng: &mut StdRng,
    ) -> Vec<MemoryBatch> {
        let weights: Option<Vec<f32>> = match self.cfg.replay_sampling {
            ReplaySampling::Uniform => None,
            ReplaySampling::SimilarityWeighted => {
                let mean_rep = model.represent(batch, task_idx).col_means();
                Some(
                    self.memory
                        .items()
                        .iter()
                        .map(|item| match &item.stored_features {
                            Some(rep) => 1.0 + cosine_similarity(rep, mean_rep.row(0)),
                            None => 1.0,
                        })
                        .collect(),
                )
            }
        };
        // One shared adapter: one merged batch, since batch-statistic
        // losses (BarlowTwins) degenerate on tiny per-task groups.
        let merged = model.encoder.num_adapters() == 1;
        self.memory
            .draw(self.cfg.replay_batch, weights.as_deref(), merged, rng)
    }
}

impl Method for Edsr {
    fn name(&self) -> String {
        let c = &self.cfg;
        if c.per_task_budget == 0 && c.replay_loss == ReplayLoss::None && c.distill_new {
            return "CaSSLe".into();
        }
        // CompEmb, R2R and Lin et al.: a published storage rule and replay
        // term, with no teacher term on new data and no replay noise.
        let baseline = !c.distill_new
            && c.noise_neighbors == 0
            && c.replay_sampling == ReplaySampling::Uniform;
        match (c.selection, c.replay_loss) {
            (SelectionStrategy::FarthestPoint, ReplayLoss::Css) if baseline => "CompEmb".into(),
            (SelectionStrategy::MaxVar, ReplayLoss::Css) if baseline => "R2R".into(),
            (SelectionStrategy::KMeans, ReplayLoss::Distance) if baseline => "Lin".into(),
            (SelectionStrategy::HighEntropy, ReplayLoss::Rpl) => "EDSR".into(),
            (sel, rpl) => format!("EDSR[{},{}]", sel.name(), rpl.name()),
        }
    }

    fn begin_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        _train: &Dataset,
        _rng: &mut StdRng,
    ) {
        // Every term but the `L_css` replay reads the frozen teacher.
        let reads_teacher = self.cfg.distill_new
            || !matches!(self.cfg.replay_loss, ReplayLoss::None | ReplayLoss::Css);
        if task_idx > 0 && reads_teacher {
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
        let (z1, z2, mut loss) =
            model.css_on_views(&mut ws.tape, &mut ws.binder, &x1, &x2, task_idx);
        // The tape is eager, so each term's scalar is readable the moment
        // its node exists; behind the `enabled()` gate this costs nothing
        // when observability is off (zero_alloc.rs covers this step).
        let obs_on = edsr_obs::enabled();
        if obs_on {
            edsr_obs::gauge_at(
                "loss/css",
                task_idx as u64,
                f64::from(ws.tape.value(loss).get(0, 0)),
            );
        }

        let frozen = self.frozen.as_ref();
        // ½(L_dis(x_1) + L_dis(x_2)) on the new increment.
        if let (true, Some(frozen)) = (self.cfg.distill_new, frozen) {
            let d = frozen.distill_views(model, ws, [&x1, &x2], [z1, z2], task_idx);
            loss = ws.tape.add(loss, d);
        }

        // The replay term on the stored data: `L_css` needs the memory
        // alone, every other term the frozen teacher too.
        let replay = match self.cfg.replay_loss {
            ReplayLoss::None => false,
            ReplayLoss::Css => true,
            _ => frozen.is_some(),
        };
        if replay && !self.memory.is_empty() {
            let mut rpl_sum = 0.0f64;
            for group in self.draw_memory(model, batch, task_idx, rng) {
                // Old data is augmented by its source increment's own
                // view generator.
                let mem_aug = &augs[group.task.min(augs.len() - 1)];
                let term = match (self.cfg.replay_loss, frozen) {
                    (ReplayLoss::Css, _) => {
                        let (m1, m2) = mem_aug.two_views(&group.inputs, rng);
                        let (_, _, l) =
                            model.css_on_views(&mut ws.tape, &mut ws.binder, &m1, &m2, group.task);
                        ws.tape.scale(l, 0.5)
                    }
                    (ReplayLoss::Dis | ReplayLoss::Rpl, Some(frozen)) => {
                        let m1 = mem_aug.view_batch(&group.inputs, rng);
                        let zm = model.repr_var(&mut ws.tape, &mut ws.binder, &m1, group.task);
                        let target = frozen.represent_on(
                            &mut ws.aux_tape,
                            &mut ws.aux_binder,
                            &m1,
                            group.task,
                        );
                        let zeros;
                        let scales: &[f32] = if self.cfg.replay_loss == ReplayLoss::Rpl {
                            &group.noise_scales
                        } else {
                            zeros = vec![0.0; group.noise_scales.len()];
                            &zeros
                        };
                        let l = model.distill.replay_loss(
                            &mut ws.tape,
                            &mut ws.binder,
                            &model.params,
                            &model.ssl,
                            zm,
                            ws.aux_tape.value(target),
                            scales,
                            rng,
                        );
                        ws.tape.scale(l, 0.5)
                    }
                    (ReplayLoss::Distance, Some(frozen)) => {
                        // The raw memory rows against the first new view:
                        // the frozen model's distances are the anchor.
                        let (aux, aux_binder) = (&mut ws.aux_tape, &mut ws.aux_binder);
                        let fm = frozen.represent_on(aux, aux_binder, &group.inputs, group.task);
                        let fnew = frozen.represent_on(aux, aux_binder, &x1, task_idx);
                        let anchor = pairwise_sq_euclidean(aux.value(fm), aux.value(fnew));
                        let zm =
                            model.repr_var(&mut ws.tape, &mut ws.binder, &group.inputs, group.task);
                        let dists = pairwise_sq_dists(&mut ws.tape, zm, z1);
                        let target = ws.tape.constant_copy(&anchor);
                        let keep = ws.tape.mse(dists, target);
                        // Normalized by the anchor scale, so the term is
                        // dimensionless.
                        ws.tape
                            .scale(keep, 1.0 / anchor.map(|v| v * v).mean().max(1e-6))
                    }
                    _ => unreachable!("gated above"),
                };
                if obs_on {
                    rpl_sum += f64::from(ws.tape.value(term).get(0, 0));
                }
                loss = ws.tape.add(loss, term);
            }
            if obs_on {
                edsr_obs::gauge_at("loss/rpl", task_idx as u64, rpl_sum);
            }
        }
        apply_step(model, opt, &mut ws.tape, &ws.binder, loss)
    }

    fn end_task(
        &mut self,
        model: &mut ContinualModel,
        task_idx: usize,
        train: &Dataset,
        aug: &Augmenter,
        rng: &mut StdRng,
    ) {
        let budget = self.cfg.per_task_budget.min(train.len());
        if budget == 0 {
            return;
        }
        // Selecting stage: un-augmented representations from f̂.
        let reps = model.represent(&train.inputs, task_idx);

        // Min-Var and Max-Var rank by the augmented-view representation
        // spread.
        let aug_std: Option<Vec<f32>> = if matches!(
            self.cfg.selection,
            SelectionStrategy::MinVar | SelectionStrategy::MaxVar
        ) {
            Some(
                (0..train.len())
                    .map(|i| {
                        let row = train.inputs.select_rows(&[i]);
                        let mut view_reps = Matrix::zeros(MIN_VAR_VIEWS, model.repr_dim());
                        for v in 0..MIN_VAR_VIEWS {
                            let view = aug.view_batch(&row, rng);
                            let rep = model.represent(&view, task_idx);
                            view_reps.row_mut(v).copy_from_slice(rep.row(0));
                        }
                        scalar_std(&view_reps)
                    })
                    .collect(),
            )
        } else {
            None
        };

        let ctx = SelectionContext {
            reps: &reps,
            aug_view_std: aug_std.as_deref(),
            cluster_hint: train.classes().len().max(1),
        };
        let selected = self.cfg.selection.select(&ctx, budget, rng);
        let scales = noise_magnitudes(&reps, &selected, self.cfg.noise_neighbors);
        if edsr_obs::enabled() {
            edsr_obs::gauge_at("memory/stored", task_idx as u64, selected.len() as f64);
            edsr_obs::gauge_at(
                "select/entropy",
                task_idx as u64,
                crate::select::trace_cov(&reps, &selected),
            );
        }

        self.memory
            .extend(selected.iter().zip(&scales).map(|(&i, &scale)| MemoryItem {
                input: train.inputs.row(i).to_vec(),
                task: task_idx,
                noise_scale: scale,
                // Cache the selection-time representation for similarity-
                // weighted replay.
                stored_features: Some(reps.row(i).to_vec()),
            }));
    }

    // The episodic memory (inputs, noise magnitudes, cached selection-time
    // representations) is the only persistent state: the frozen model is
    // refreshed from the live weights in `begin_task`, which resume
    // re-runs at the increment boundary. An empty memory (CaSSLe's) saves
    // as an empty state, which is what CaSSLe run states written before
    // CaSSLe became an EDSR configuration hold, so those resume too.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(if self.memory.is_empty() {
            Vec::new()
        } else {
            self.memory.to_bytes()
        })
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.memory = if state.is_empty() {
            MemoryBuffer::new()
        } else {
            MemoryBuffer::from_bytes(state).map_err(|e| e.to_string())?
        };
        Ok(())
    }

    // Serve snapshots bundle the cached selection-time representations so
    // the server can answer kNN queries against replay memory without
    // re-encoding the stored inputs. The representation width is inferred
    // from the memory itself: every item stores its feature vector at
    // selection time, all in the model's `repr_dim`.
    fn replay_representations(&self) -> Option<(Matrix, Vec<u64>)> {
        let dim = self
            .memory
            .items()
            .iter()
            .find_map(|item| item.stored_features.as_ref().map(Vec::len))?;
        Some(edsr_cl::memory_representations(&self.memory, dim))
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

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_cl::model::ModelConfig;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    fn setup(seed: u64) -> (ContinualModel, edsr_nn::Adam, Augmenter, Dataset) {
        let mut rng = seeded(seed);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let train = Dataset::new(
            "d",
            Matrix::randn(24, 16, 1.0, &mut rng),
            (0..24).map(|i| i % 2).collect(),
        );
        (model, opt, aug, train)
    }

    #[test]
    fn selection_stores_budget_with_noise_scales() {
        let (mut model, _opt, aug, train) = setup(430);
        let mut rng = seeded(431);
        let mut edsr = Edsr::paper_default(6, 4, 5);
        edsr.end_task(&mut model, 0, &train, &aug, &mut rng);
        assert_eq!(edsr.memory_len(), 6);
        assert!(
            edsr.memory().items().iter().any(|i| i.noise_scale > 0.0),
            "no noise scales computed"
        );
        assert!(edsr
            .memory()
            .items()
            .iter()
            .all(|i| i.stored_features.is_some()));
    }

    #[test]
    fn zero_neighbors_stores_zero_scales() {
        let (mut model, _opt, aug, train) = setup(432);
        let mut rng = seeded(433);
        let mut edsr = Edsr::paper_default(6, 4, 0);
        edsr.end_task(&mut model, 0, &train, &aug, &mut rng);
        assert!(edsr.memory().items().iter().all(|i| i.noise_scale == 0.0));
    }

    #[test]
    fn full_two_task_cycle_runs_all_loss_paths() {
        for replay in [
            ReplayLoss::None,
            ReplayLoss::Css,
            ReplayLoss::Dis,
            ReplayLoss::Rpl,
            ReplayLoss::Distance,
        ] {
            let (mut model, mut opt, aug, train) = setup(434);
            let mut rng = seeded(435);
            let mut ws = Workspace::new();
            let mut cfg = EdsrConfig::paper_default(6, 4, 3);
            cfg.replay_loss = replay;
            let mut edsr = Edsr::new(cfg);

            edsr.begin_task(&mut model, 0, &train, &mut rng);
            let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
            let l0 = edsr.train_step(
                &mut model,
                &mut opt,
                std::slice::from_ref(&aug),
                &batch,
                0,
                &mut ws,
                &mut rng,
            );
            assert!(l0.is_finite(), "{:?} task0 loss", replay);
            edsr.end_task(&mut model, 0, &train, &aug, &mut rng);

            edsr.begin_task(&mut model, 1, &train, &mut rng);
            let l1 = edsr.train_step(
                &mut model,
                &mut opt,
                std::slice::from_ref(&aug),
                &batch,
                1,
                &mut ws,
                &mut rng,
            );
            assert!(l1.is_finite(), "{:?} task1 loss", replay);
        }
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(Edsr::paper_default(4, 4, 5).name(), "EDSR");
        let mut cfg = EdsrConfig::paper_default(4, 4, 5);
        cfg.selection = SelectionStrategy::Random;
        cfg.replay_loss = ReplayLoss::Dis;
        assert_eq!(Edsr::new(cfg).name(), "EDSR[Random,L_dis]");
        // The published baseline names belong to their exact
        // configurations only: with replay noise it is an ablation.
        let mut cfg = registry("r2r", 4, 4).cfg;
        cfg.noise_neighbors = 5;
        assert_eq!(Edsr::new(cfg).name(), "EDSR[Max-Var,L_css]");
    }

    #[test]
    fn min_var_selection_path_runs() {
        let (mut model, _opt, aug, train) = setup(436);
        let mut rng = seeded(437);
        let mut cfg = EdsrConfig::paper_default(4, 4, 3);
        cfg.selection = SelectionStrategy::MinVar;
        let mut edsr = Edsr::new(cfg);
        edsr.end_task(&mut model, 0, &train, &aug, &mut rng);
        assert_eq!(edsr.memory_len(), 4);
    }

    #[test]
    fn similarity_weighted_replay_runs() {
        let (mut model, mut opt, aug, train) = setup(438);
        let mut rng = seeded(439);
        let mut ws = Workspace::new();
        let mut cfg = EdsrConfig::paper_default(6, 4, 3);
        cfg.replay_sampling = ReplaySampling::SimilarityWeighted;
        let mut edsr = Edsr::new(cfg);
        edsr.begin_task(&mut model, 0, &train, &mut rng);
        edsr.end_task(&mut model, 0, &train, &aug, &mut rng);
        edsr.begin_task(&mut model, 1, &train, &mut rng);
        let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
        let l = edsr.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            1,
            &mut ws,
            &mut rng,
        );
        assert!(l.is_finite());
    }

    /// The registry's method `name` (`cassle`, `compemb`, `r2r`, `lin`,
    /// `edsr`) with its own budget and replay batch.
    fn registry(name: &str, budget: usize, replay_batch: usize) -> Edsr {
        let cfg = crate::registry::edsr_config_by_name(name, budget, replay_batch, 3);
        Edsr::new(cfg.expect(name))
    }

    #[test]
    fn compemb_stores_budget_and_replays() {
        let (mut model, mut opt, aug, train) = setup(910);
        let mut rng = seeded(911);
        let mut ws = Workspace::new();
        let mut m = registry("compemb", 6, 4);
        let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
        let l0 = m.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            0,
            &mut ws,
            &mut rng,
        );
        assert!(l0.is_finite());
        m.end_task(&mut model, 0, &train, &aug, &mut rng);
        assert_eq!(m.memory_len(), 6);
        assert!(m
            .memory()
            .items()
            .iter()
            .all(|i| i.stored_features.is_some()));
        m.begin_task(&mut model, 1, &train, &mut rng);
        let l1 = m.train_step(
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

    #[test]
    fn r2r_stores_most_uncertain_samples() {
        let (mut model, mut opt, aug, train) = setup(920);
        let mut rng = seeded(921);
        let mut m = registry("r2r", 6, 4);
        m.end_task(&mut model, 0, &train, &aug, &mut rng);
        assert_eq!(m.memory_len(), 6);
        m.begin_task(&mut model, 1, &train, &mut rng);
        let mut ws = Workspace::new();
        let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
        let l = m.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            1,
            &mut ws,
            &mut rng,
        );
        assert!(l.is_finite());
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let (mut model, _opt, aug, train) = setup(930);
        let mut rng = seeded(931);
        for name in ["compemb", "r2r"] {
            let mut method = registry(name, 4, 4);
            method.end_task(&mut model, 0, &train, &aug, &mut rng);
            let bytes = method.save_state().expect("state bytes");
            let mut fresh = registry(name, 4, 4);
            fresh.load_state(&bytes).expect("restore");
            assert_eq!(fresh.save_state().expect("bytes"), bytes);
        }
    }

    #[test]
    fn replay_representations_expose_memory() {
        let (mut model, _opt, aug, train) = setup(940);
        let mut rng = seeded(941);
        let mut m = registry("compemb", 5, 4);
        assert!(m.replay_representations().is_none());
        m.end_task(&mut model, 0, &train, &aug, &mut rng);
        let (reps, tasks) = m.replay_representations().expect("cached reps");
        assert_eq!(reps.rows(), 5);
        assert_eq!(tasks.len(), 5);
    }

    #[test]
    fn no_replay_before_first_selection() {
        // On the first increment there is no frozen model and no memory:
        // the step must be pure L_css (loss ≥ −1 for SimSiam).
        let (mut model, mut opt, aug, train) = setup(440);
        let mut rng = seeded(441);
        let mut ws = Workspace::new();
        let mut edsr = Edsr::paper_default(6, 4, 3);
        edsr.begin_task(&mut model, 0, &train, &mut rng);
        let batch = train.inputs.select_rows(&(0..8).collect::<Vec<_>>());
        let l = edsr.train_step(
            &mut model,
            &mut opt,
            std::slice::from_ref(&aug),
            &batch,
            0,
            &mut ws,
            &mut rng,
        );
        assert!(l >= -1.0 - 1e-4, "first-task loss had extra terms: {l}");
    }

    impl Edsr {
        /// Whether a frozen teacher is currently held.
        fn has_frozen(&self) -> bool {
            self.frozen.is_some()
        }
    }

    #[test]
    fn no_frozen_model_on_first_task() {
        let mut rng = seeded(370);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let train = Dataset::new("d", Matrix::zeros(4, 16), vec![0; 4]);
        for name in ["cassle", "lin", "edsr"] {
            let mut c = registry(name, 4, 4);
            c.begin_task(&mut model, 0, &train, &mut rng);
            assert!(!c.has_frozen(), "{name}");
            c.begin_task(&mut model, 1, &train, &mut rng);
            assert!(c.has_frozen(), "{name}");
        }
        // CompEmb and R2R replay through `L_css` alone: no term reads a
        // teacher, so none is copied.
        for name in ["compemb", "r2r"] {
            let mut c = registry(name, 4, 4);
            for task in 0..3 {
                c.begin_task(&mut model, task, &train, &mut rng);
                assert!(!c.has_frozen(), "{name} at increment {task}");
            }
        }
    }

    /// During increment 1, CaSSLe's distillation term should drive the
    /// projected current representations into alignment with the frozen
    /// model (loss component → −1 for SimSiam), demonstrating knowledge
    /// transfer; the full forgetting-ordering claim is exercised by the
    /// integration tests on class-incremental streams.
    #[test]
    fn distillation_aligns_with_frozen_model() {
        let mut rng = seeded(371);
        let cfg = ModelConfig::image(16);
        let mut model = ContinualModel::new(&cfg, &mut rng);
        let mut ft_model = ContinualModel::new(&cfg, &mut seeded(371));
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let old_batch = Matrix::randn(12, 16, 1.0, &mut rng);
        let train = Dataset::new("d", old_batch.clone(), vec![0; 12]);

        let mut cassle = registry("cassle", 4, 4);
        let mut ft = edsr_cl::Finetune::new();
        let mut opt_a = edsr_nn::Adam::new(3e-3, 0.0);
        let mut opt_b = edsr_nn::Adam::new(3e-3, 0.0);

        // Properly learn task 0 first (identical trajectories: CaSSLe has
        // no distillation term on the first increment).
        let mut rng_a = seeded(372);
        let mut rng_b = seeded(372);
        let mut ws_a = Workspace::new();
        let mut ws_b = Workspace::new();
        cassle.begin_task(&mut model, 0, &train, &mut rng_a);
        for _ in 0..40 {
            cassle.train_step(
                &mut model,
                &mut opt_a,
                std::slice::from_ref(&aug),
                &old_batch,
                0,
                &mut ws_a,
                &mut rng_a,
            );
            ft.train_step(
                &mut ft_model,
                &mut opt_b,
                std::slice::from_ref(&aug),
                &old_batch,
                0,
                &mut ws_b,
                &mut rng_b,
            );
        }
        let anchor = model.represent(&old_batch, 0);

        let _ = (&ft, &mut ft_model, &mut opt_b, &mut rng_b, anchor);

        cassle.begin_task(&mut model, 1, &train, &mut rng_a);
        let frozen_reps_before = cassle
            .frozen
            .as_ref()
            .expect("frozen after task 1 begins")
            .represent(&old_batch, 0);
        let new_batch = Matrix::randn(16, 16, 1.0, &mut rng).scale(1.5);
        let mut losses = Vec::new();
        for _ in 0..80 {
            losses.push(cassle.train_step(
                &mut model,
                &mut opt_a,
                std::slice::from_ref(&aug),
                &new_batch,
                1,
                &mut ws_a,
                &mut rng_a,
            ));
        }
        // Total loss = L_css (≥ −1) + L_dis (≥ −1): alignment success shows
        // as a clear drop toward the −2 floor.
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            late < early - 0.2,
            "distillation never aligned: {early} -> {late}"
        );

        // The frozen model must not move while the live model trains.
        let frozen_reps_after = cassle.frozen.as_ref().unwrap().represent(&old_batch, 0);
        assert_eq!(frozen_reps_before.max_abs_diff(&frozen_reps_after), 0.0);
    }

    #[test]
    fn empty_memory_saves_as_an_empty_state() {
        let cassle = registry("cassle", 4, 4);
        assert_eq!(cassle.save_state().expect("state"), Vec::<u8>::new());
        let mut lin = registry("lin", 4, 4);
        lin.load_state(&[])
            .expect("an empty state is an empty memory");
        assert_eq!(lin.memory_len(), 0);
        // The memory codec itself stays strict.
        assert!(MemoryBuffer::from_bytes(&[]).is_err());
    }

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
        let mut lin = registry("lin", 6, 4);
        lin.end_task(&mut model, 0, &train, &Augmenter::Identity, &mut rng);
        assert_eq!(lin.memory_len(), 6);
    }

    #[test]
    fn lin_full_two_task_cycle_runs() {
        let mut rng = seeded(383);
        let mut model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let mut opt = edsr_nn::Adam::new(3e-3, 0.0);
        let aug = Augmenter::standard_image(GridSpec::new(4, 4, 1));
        let train = Dataset::new("d", Matrix::randn(24, 16, 1.0, &mut rng), vec![0; 24]);
        let mut lin = registry("lin", 5, 4);
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
