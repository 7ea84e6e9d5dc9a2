//! The continual model: encoder + SSL head + distillation head sharing one
//! [`ParamSet`], with snapshotting for the frozen old model `f̃`.

use crate::error::TrainError;
use edsr_data::Augmenter;
use edsr_nn::ConvShape;
use edsr_nn::{Binder, ParamSet, Workspace};
use edsr_ssl::{DistillHead, Encoder, EncoderConfig, SslHead, SslVariant, StemConfig};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

/// Architecture + objective configuration.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Input dimensionality per adapter (one entry = shared adapter).
    pub input_dims: Vec<usize>,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Representation dimensionality `d`.
    pub repr_dim: usize,
    /// Hidden backbone layers beyond the adapter.
    pub backbone_layers: usize,
    /// Which `L_css` to optimize.
    pub variant: SslVariant,
    /// Optional convolutional stem `(shape, kernel, filters)` — the
    /// paper's CNN-backbone analogue (architecture ablation).
    pub conv_stem: Option<(ConvShape, usize, usize)>,
}

impl ModelConfig {
    /// Default image configuration at simulation scale.
    pub fn image(input_dim: usize) -> Self {
        Self {
            input_dims: vec![input_dim],
            hidden_dim: 96,
            repr_dim: 48,
            backbone_layers: 1,
            variant: SslVariant::BarlowTwins { lambda: 0.02 },
            conv_stem: None,
        }
    }

    /// Image configuration with a convolutional stem (`kernel`=3,
    /// `filters` chosen for the grid).
    pub fn conv_image(shape: ConvShape, filters: usize) -> Self {
        Self {
            input_dims: vec![shape.dim()],
            hidden_dim: 96,
            repr_dim: 48,
            backbone_layers: 1,
            variant: SslVariant::BarlowTwins { lambda: 0.02 },
            conv_stem: Some((shape, 3, filters)),
        }
    }

    /// Default tabular configuration (paper: deeper MLP, 128-d reps —
    /// scaled).
    pub fn tabular(input_dims: Vec<usize>) -> Self {
        Self {
            input_dims,
            hidden_dim: 64,
            repr_dim: 32,
            backbone_layers: 2,
            variant: SslVariant::SimSiam,
            conv_stem: None,
        }
    }

    /// Switches the SSL objective (Table VI).
    pub fn with_variant(mut self, variant: SslVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Checks the conditions [`ContinualModel::new`]'s layer constructors
    /// assert (input dims present, a conv stem whose kernel fits its one
    /// input shape, at least one backbone layer) and returns the number of
    /// parameter scalars the model will hold, in checked arithmetic.
    /// Decoders call this before building a model from a file.
    pub fn checked_num_scalars(&self) -> Result<usize, String> {
        let overflow = || format!("parameter count overflows: {self:?}");
        let (h, d) = (self.hidden_dim, self.repr_dim);
        if self.input_dims.is_empty() {
            return Err("no input dims".into());
        }
        if self.backbone_layers == 0 {
            return Err("the backbone needs at least one layer".into());
        }
        // (in, out) of every linear map but the backbone's: projector,
        // distillation head, stem and (SimSiam) predictor.
        let mut maps = vec![(h, d), (d, d), (d, d), (d, d)];
        match self.conv_stem {
            None => maps.extend(self.input_dims.iter().map(|&i| (i, h))),
            Some((shape, kernel, filters)) => {
                let dim = shape
                    .channels
                    .checked_mul(shape.height)
                    .and_then(|n| n.checked_mul(shape.width))
                    .ok_or_else(overflow)?;
                if self.input_dims != [dim] {
                    return Err(format!(
                        "a conv stem over {shape:?} needs input dims [{dim}], not {:?}",
                        self.input_dims
                    ));
                }
                if kernel == 0 || kernel > shape.height || kernel > shape.width {
                    return Err(format!("conv kernel {kernel} does not fit {shape:?}"));
                }
                // Neither product overflows: the kernel fits the input,
                // whose size fits.
                let positions = (shape.height - kernel + 1) * (shape.width - kernel + 1);
                let out = positions.checked_mul(filters).ok_or_else(overflow)?;
                maps.extend([(shape.channels * kernel * kernel, filters), (out, h)]);
            }
        }
        if let SslVariant::SimSiam = self.variant {
            let mid = (d / 2).max(1);
            maps.extend([(d, mid), (mid, d)]);
        }
        let linear = |(i, o): (usize, usize)| i.checked_mul(o)?.checked_add(o);
        let backbone = linear((h, h)).and_then(|l| l.checked_mul(self.backbone_layers));
        maps.into_iter()
            .map(linear)
            .chain([backbone])
            .try_fold(0usize, |n, l| n.checked_add(l?))
            .ok_or_else(overflow)
    }
}

/// A frozen copy of the model before learning the current increment.
#[derive(Clone)]
pub struct FrozenModel {
    encoder: Encoder,
    params: ParamSet,
}

impl FrozenModel {
    /// Records a frozen-model representation forward on a caller-provided
    /// auxiliary tape, returning the repr node. The value stays pool-backed
    /// on that tape — borrow it via `tape.value(var)` instead of cloning —
    /// which is what keeps the distillation/replay targets allocation-free.
    pub fn represent_on(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        x: &Matrix,
        task: usize,
    ) -> Var {
        self.encoder
            .represent_on(tape, binder, &self.params, x, task)
    }

    /// Records the teacher term `½(L_dis(x₁) + L_dis(x₂))` of CaSSLe and
    /// EDSR (Eq. 9 on both views): the live model's projections `z` of the
    /// two views `x` are aligned, through `p_dis`, with this frozen model's
    /// representations of the same views. The frozen forwards are recorded
    /// on the workspace's auxiliary tape, so their targets stay
    /// pool-backed and the main tape borrows them by value ref. Emits the
    /// term as the `loss/dis` gauge when observability is on.
    pub fn distill_views(
        &self,
        model: &ContinualModel,
        ws: &mut Workspace,
        [x1, x2]: [&Matrix; 2],
        [z1, z2]: [Var; 2],
        task: usize,
    ) -> Var {
        let t1 = self.represent_on(&mut ws.aux_tape, &mut ws.aux_binder, x1, task);
        let t2 = self.represent_on(&mut ws.aux_tape, &mut ws.aux_binder, x2, task);
        let mut term = |z, t| {
            model.distill.distill_loss(
                &mut ws.tape,
                &mut ws.binder,
                &model.params,
                &model.ssl,
                z,
                ws.aux_tape.value(t),
            )
        };
        let d1 = term(z1, t1);
        let d2 = term(z2, t2);
        let d = ws.tape.add(d1, d2);
        let d = ws.tape.scale(d, 0.5);
        if edsr_obs::enabled() {
            edsr_obs::gauge_at(
                "loss/dis",
                task as u64,
                f64::from(ws.tape.value(d).get(0, 0)),
            );
        }
        d
    }

    /// Representations under the old parameters.
    pub fn represent(&self, x: &Matrix, task: usize) -> Matrix {
        self.encoder.represent(&self.params, x, task)
    }

    /// Backbone features under the old parameters (DER's medium).
    pub fn features(&self, x: &Matrix, task: usize) -> Matrix {
        self.encoder.features(&self.params, x, task)
    }
}

/// Live model `f(·)` plus its loss heads.
pub struct ContinualModel {
    /// All trainable parameters (encoder + predictor + `p_dis`).
    pub params: ParamSet,
    /// The encoder `f(·)`.
    pub encoder: Encoder,
    /// The `L_css` head.
    pub ssl: SslHead,
    /// The distillation head `p_dis`.
    pub distill: DistillHead,
    /// The configuration this model was built from — kept so snapshots
    /// (serve exports, see `checkpoint::ServeSnapshot`) are
    /// self-describing and can rebuild a structurally identical model.
    config: ModelConfig,
}

impl ContinualModel {
    /// Builds the model.
    pub fn new(cfg: &ModelConfig, rng: &mut StdRng) -> Self {
        let mut params = ParamSet::new();
        let stem = match cfg.conv_stem {
            Some((shape, kernel, filters)) => StemConfig::Conv {
                shape,
                kernel,
                filters,
            },
            None => StemConfig::PerTaskLinear,
        };
        let enc_cfg = EncoderConfig {
            input_dims: cfg.input_dims.clone(),
            hidden_dim: cfg.hidden_dim,
            backbone_layers: cfg.backbone_layers,
            repr_dim: cfg.repr_dim,
            stem,
        };
        let encoder = Encoder::new(&mut params, &enc_cfg, rng);
        let ssl = SslHead::new(&mut params, cfg.variant, cfg.repr_dim, rng);
        let distill = DistillHead::new(&mut params, cfg.repr_dim, rng);
        Self {
            params,
            encoder,
            ssl,
            distill,
            config: cfg.clone(),
        }
    }

    /// The architecture/objective configuration the model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Representation dimensionality.
    pub fn repr_dim(&self) -> usize {
        self.encoder.repr_dim()
    }

    /// Inference representations with the live parameters.
    pub fn represent(&self, x: &Matrix, task: usize) -> Matrix {
        self.encoder.represent(&self.params, x, task)
    }

    /// Eval-mode inference representations: batch standardization is
    /// skipped, so each row is independent of its batch-mates. This is
    /// the forward `edsr-serve` answers embed requests with.
    pub fn represent_eval(&self, x: &Matrix, task: usize) -> Matrix {
        self.encoder.represent_eval(&self.params, x, task)
    }

    /// Inference backbone features with the live parameters.
    pub fn features(&self, x: &Matrix, task: usize) -> Matrix {
        self.encoder.features(&self.params, x, task)
    }

    /// Deep-copies the current weights into a frozen `f̃`.
    pub fn freeze(&self) -> FrozenModel {
        FrozenModel {
            encoder: self.encoder.clone(),
            params: self.params.clone(),
        }
    }

    /// Saves the model's weights to a checkpoint file.
    ///
    /// Errors surface as the crate's structured [`TrainError`] rather
    /// than leaking `edsr_nn::CheckpointError` at this API boundary; the
    /// retained `From<CheckpointError> for TrainError` impl (and
    /// `edsr_core::Error`'s `From<TrainError>`) keep existing `?` call
    /// sites compiling unchanged.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), TrainError> {
        edsr_nn::save_params(&self.params, path).map_err(TrainError::from)
    }

    /// Restores weights from a checkpoint written by [`save`](Self::save)
    /// on a structurally identical model.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), TrainError> {
        edsr_nn::load_params(&mut self.params, path).map_err(TrainError::from)
    }

    /// Records `L_css` on two augmented views of `batch`; returns
    /// `(z1, z2, loss)` so callers can attach additional terms.
    pub fn css_on_views(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        x1: &Matrix,
        x2: &Matrix,
        task: usize,
    ) -> (Var, Var, Var) {
        let v1 = tape.constant_copy(x1);
        let v2 = tape.constant_copy(x2);
        let (_, z1) = self.encoder.forward(tape, binder, &self.params, v1, task);
        let (_, z2) = self.encoder.forward(tape, binder, &self.params, v2, task);
        let loss = self.ssl.loss(tape, binder, &self.params, z1, z2);
        (z1, z2, loss)
    }

    /// Convenience: augments `batch` into two views and records `L_css`.
    pub fn css_on_batch(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        aug: &Augmenter,
        batch: &Matrix,
        task: usize,
        rng: &mut StdRng,
    ) -> (Var, Var, Var) {
        let (x1, x2) = aug.two_views(batch, rng);
        self.css_on_views(tape, binder, &x1, &x2, task)
    }

    /// Records the current model's representation of a raw (already
    /// augmented) view — used by distillation paths.
    pub fn repr_var(&self, tape: &mut Tape, binder: &mut Binder, x: &Matrix, task: usize) -> Var {
        let v = tape.constant_copy(x);
        let (_, z) = self.encoder.forward(tape, binder, &self.params, v, task);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_data::GridSpec;
    use edsr_tensor::rng::seeded;

    fn model(seed: u64) -> ContinualModel {
        let mut rng = seeded(seed);
        ContinualModel::new(&ModelConfig::image(16), &mut rng)
    }

    #[test]
    fn checked_num_scalars_matches_the_built_model() {
        let shape = ConvShape {
            channels: 2,
            height: 5,
            width: 4,
        };
        for cfg in [
            ModelConfig::image(16),
            ModelConfig::conv_image(shape, 3),
            ModelConfig::tabular(vec![16, 9, 12]),
            ModelConfig::image(16).with_variant(SslVariant::SimSiam),
            ModelConfig::tabular(vec![7]).with_variant(SslVariant::BarlowTwins { lambda: 0.1 }),
        ] {
            let built = ContinualModel::new(&cfg, &mut seeded(302))
                .params
                .num_scalars();
            assert_eq!(cfg.checked_num_scalars(), Ok(built), "{cfg:?}");
        }
    }

    #[test]
    fn checked_num_scalars_refuses_what_the_constructors_assert() {
        let shape = ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        let with = |edit: fn(&mut ModelConfig)| {
            let mut cfg = ModelConfig::conv_image(shape, 3);
            edit(&mut cfg);
            cfg
        };
        for cfg in [
            with(|c| c.input_dims.clear()),
            with(|c| c.backbone_layers = 0),
            with(|c| c.input_dims = vec![15]),
            with(|c| c.conv_stem = c.conv_stem.map(|(s, _, f)| (s, 0, f))),
            with(|c| c.conv_stem = c.conv_stem.map(|(s, _, f)| (s, 5, f))),
            with(|c| {
                c.conv_stem = None;
                c.input_dims = vec![usize::MAX / 2];
                c.hidden_dim = 1 << 40;
            }),
        ] {
            assert!(cfg.checked_num_scalars().is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn construction_and_shapes() {
        let m = model(300);
        assert_eq!(m.repr_dim(), 48);
        let mut rng = seeded(301);
        let x = Matrix::randn(4, 16, 1.0, &mut rng);
        assert_eq!(m.represent(&x, 0).shape(), (4, 48));
        assert_eq!(m.features(&x, 0).shape(), (4, 96));
    }

    #[test]
    fn freeze_is_independent_of_live_updates() {
        let mut m = model(302);
        let mut rng = seeded(303);
        let x = Matrix::randn(3, 16, 1.0, &mut rng);
        let frozen = m.freeze();
        let before = frozen.represent(&x, 0);
        for id in m.params.ids().collect::<Vec<_>>() {
            m.params.value_mut(id).scale_inplace(1.7);
        }
        let after_frozen = frozen.represent(&x, 0);
        assert_eq!(
            before.max_abs_diff(&after_frozen),
            0.0,
            "frozen model drifted"
        );
        assert!(
            m.represent(&x, 0).max_abs_diff(&before) > 1e-4,
            "live model did not change"
        );
    }

    #[test]
    fn css_on_batch_is_differentiable() {
        let m = model(304);
        let mut rng = seeded(305);
        let grid = GridSpec::new(4, 4, 1);
        let aug = Augmenter::standard_image(grid);
        let batch = Matrix::randn(6, 16, 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let (_, _, loss) = m.css_on_batch(&mut tape, &mut binder, &aug, &batch, 0, &mut rng);
        assert!(tape.value(loss).get(0, 0).is_finite());
        let grads = tape.backward(loss);
        let mut ps = m.params.clone();
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);
        let got: f32 = ps.ids().map(|id| ps.grad(id).frobenius_norm()).sum();
        assert!(got > 0.0, "no gradient from css_on_batch");
    }

    #[test]
    fn model_save_load_roundtrip() {
        let mut m = model(307);
        let mut rng = seeded(308);
        let x = Matrix::randn(3, 16, 1.0, &mut rng);
        let reference = m.represent(&x, 0);
        let mut path = std::env::temp_dir();
        path.push(format!("edsr-model-{}.ckpt", std::process::id()));
        m.save(&path).expect("save");
        for id in m.params.ids().collect::<Vec<_>>() {
            m.params.value_mut(id).scale_inplace(0.1);
        }
        assert!(m.represent(&x, 0).max_abs_diff(&reference) > 1e-4);
        m.load(&path).expect("load");
        assert_eq!(m.represent(&x, 0).max_abs_diff(&reference), 0.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_load_surface_structured_train_errors() {
        // Loading into a structurally different model must fail with the
        // crate's TrainError (wrapping the checkpoint cause), not leak
        // edsr_nn::CheckpointError at the API boundary.
        let m = model(330);
        let mut path = std::env::temp_dir();
        path.push(format!("edsr-model-err-{}.ckpt", std::process::id()));
        m.save(&path).expect("save");
        let mut rng = seeded(331);
        let mut other = ContinualModel::new(
            &ModelConfig::image(16).with_variant(SslVariant::SimSiam),
            &mut rng,
        );
        let err = other.load(&path).unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn model_remembers_its_config() {
        let m = model(332);
        assert_eq!(m.config().input_dims, vec![16]);
        assert_eq!(m.config().repr_dim, 48);
    }

    #[test]
    fn conv_model_trains_and_represents() {
        let mut rng = seeded(309);
        let shape = edsr_nn::ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        let m = ContinualModel::new(&ModelConfig::conv_image(shape, 3), &mut rng);
        let x = Matrix::randn(4, 16, 1.0, &mut rng);
        assert_eq!(m.represent(&x, 0).shape(), (4, 48));
    }

    #[test]
    fn tabular_config_builds_heterogeneous_model() {
        let mut rng = seeded(306);
        let m = ContinualModel::new(&ModelConfig::tabular(vec![16, 17, 14, 20, 10]), &mut rng);
        let x = Matrix::randn(2, 20, 1.0, &mut rng);
        assert_eq!(m.represent(&x, 3).shape(), (2, 32));
    }
}
