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
//! extension. Two related-work baselines are configurations too: CompEmb
//! ([`SelectionStrategy::FarthestPoint`]) and R2R
//! ([`SelectionStrategy::MaxVar`]) store by their own rule and replay
//! through `L_css` alone (`ReplayLoss::Css`, no distillation on new data,
//! no replay noise), and [`Method::name`] reports them by their published
//! names.

use edsr_cl::memory::{MemoryBatch, MemoryBuffer, MemoryItem};
use edsr_cl::model::{ContinualModel, FrozenModel};
use edsr_cl::trainer::{apply_step, Method};
use edsr_data::{Augmenter, Dataset};
use edsr_linalg::stats::{cosine_similarity, scalar_std};
use edsr_nn::{Optimizer, Workspace};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;

use crate::noise::noise_magnitudes;
use crate::select::{SelectionContext, SelectionStrategy};

/// How the stored data are replayed (Table IV's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayLoss {
    /// No replay at all (the memory is still selected; equivalent to
    /// CaSSLe when `distill_new = true`).
    None,
    /// Replay directly through `L_css` on two augmented memory views (the
    /// over-fitting ablation).
    Css,
    /// Distillation replay without noise (`L_dis`).
    Dis,
    /// EDSR's noise-enhanced distillation replay (`L_rpl`, Eq. 16).
    Rpl,
}

impl ReplayLoss {
    /// Display name used by the Table-IV harness.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayLoss::None => "No Replay",
            ReplayLoss::Css => "L_css",
            ReplayLoss::Dis => "L_dis",
            ReplayLoss::Rpl => "L_rpl",
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
    /// Views of the train split drawn per sample when estimating Min-Var's
    /// and Max-Var's augmentation variance.
    pub min_var_views: usize,
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
            min_var_views: 4,
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
        // CompEmb and R2R: a published storage rule replayed through L_css
        // alone, with no teacher term and no replay noise.
        let css_only = !c.distill_new
            && c.noise_neighbors == 0
            && c.replay_sampling == ReplaySampling::Uniform;
        match (c.selection, c.replay_loss) {
            (SelectionStrategy::FarthestPoint, ReplayLoss::Css) if css_only => "CompEmb".into(),
            (SelectionStrategy::MaxVar, ReplayLoss::Css) if css_only => "R2R".into(),
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

        if let Some(frozen) = &self.frozen {
            // ½(L_dis(x_1) + L_dis(x_2)) on the new increment.
            if self.cfg.distill_new {
                let d = frozen.distill_views(model, ws, [&x1, &x2], [z1, z2], task_idx);
                loss = ws.tape.add(loss, d);
            }

            // ½ L_rpl on the stored data.
            if self.cfg.replay_loss != ReplayLoss::None && !self.memory.is_empty() {
                let mut rpl_sum = 0.0f64;
                for group in self.draw_memory(model, batch, task_idx, rng) {
                    // Old data is augmented by its source increment's own
                    // view generator.
                    let mem_aug = &augs[group.task.min(augs.len() - 1)];
                    let term = match self.cfg.replay_loss {
                        ReplayLoss::None => unreachable!("filtered above"),
                        ReplayLoss::Css => {
                            let (m1, m2) = mem_aug.two_views(&group.inputs, rng);
                            let (_, _, l) = model.css_on_views(
                                &mut ws.tape,
                                &mut ws.binder,
                                &m1,
                                &m2,
                                group.task,
                            );
                            l
                        }
                        ReplayLoss::Dis | ReplayLoss::Rpl => {
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
                            model.distill.replay_loss(
                                &mut ws.tape,
                                &mut ws.binder,
                                &model.params,
                                &model.ssl,
                                zm,
                                ws.aux_tape.value(target),
                                scales,
                                rng,
                            )
                        }
                    };
                    let term = ws.tape.scale(term, 0.5);
                    if obs_on {
                        rpl_sum += f64::from(ws.tape.value(term).get(0, 0));
                    }
                    loss = ws.tape.add(loss, term);
                }
                if obs_on {
                    edsr_obs::gauge_at("loss/rpl", task_idx as u64, rpl_sum);
                }
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
            let views = self.cfg.min_var_views.max(2);
            Some(
                (0..train.len())
                    .map(|i| {
                        let row = train.inputs.select_rows(&[i]);
                        let mut view_reps = Matrix::zeros(views, model.repr_dim());
                        for v in 0..views {
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
    // re-runs at the increment boundary.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.memory.to_bytes())
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.memory = MemoryBuffer::from_bytes(state).map_err(|e| e.to_string())?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_cl::model::ModelConfig;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    fn setup(seed: u64) -> (ContinualModel, edsr_nn::Sgd, Augmenter, Dataset) {
        let mut rng = seeded(seed);
        let model = ContinualModel::new(&ModelConfig::image(16), &mut rng);
        let opt = edsr_nn::Sgd::new(0.05, 0.9, 0.0);
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
        let mut cfg = css_baseline(SelectionStrategy::MaxVar, 4, 4).cfg;
        cfg.noise_neighbors = 5;
        assert_eq!(Edsr::new(cfg).name(), "EDSR[Max-Var,L_css]");
    }

    #[test]
    fn min_var_selection_path_runs() {
        let (mut model, _opt, aug, train) = setup(436);
        let mut rng = seeded(437);
        let mut cfg = EdsrConfig::paper_default(4, 4, 3);
        cfg.selection = SelectionStrategy::MinVar;
        cfg.min_var_views = 2;
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

    /// The registry's CompEmb (`FarthestPoint`) or R2R (`MaxVar`)
    /// configuration with its own budget and replay batch.
    fn css_baseline(selection: SelectionStrategy, budget: usize, replay_batch: usize) -> Edsr {
        let edsr = Edsr::new(EdsrConfig {
            selection,
            replay_loss: ReplayLoss::Css,
            distill_new: false,
            ..EdsrConfig::paper_default(budget, replay_batch, 0)
        });
        assert!(["CompEmb", "R2R"].contains(&edsr.name().as_str()));
        edsr
    }

    #[test]
    fn compemb_stores_budget_and_replays() {
        let (mut model, mut opt, aug, train) = setup(910);
        let mut rng = seeded(911);
        let mut ws = Workspace::new();
        let mut m = css_baseline(SelectionStrategy::FarthestPoint, 6, 4);
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
        let mut m = css_baseline(SelectionStrategy::MaxVar, 6, 4);
        m.cfg.min_var_views = 3;
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
        for selection in [SelectionStrategy::FarthestPoint, SelectionStrategy::MaxVar] {
            let mut method = css_baseline(selection, 4, 4);
            method.cfg.min_var_views = 2;
            method.end_task(&mut model, 0, &train, &aug, &mut rng);
            let bytes = method.save_state().expect("state bytes");
            let mut fresh = css_baseline(selection, 4, 4);
            fresh.load_state(&bytes).expect("restore");
            assert_eq!(fresh.save_state().expect("bytes"), bytes);
        }
    }

    #[test]
    fn replay_representations_expose_memory() {
        let (mut model, _opt, aug, train) = setup(940);
        let mut rng = seeded(941);
        let mut m = css_baseline(SelectionStrategy::FarthestPoint, 5, 4);
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
}
