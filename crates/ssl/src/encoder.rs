//! The encoder `f(·)`: per-task input adapter → shared backbone →
//! projector, producing the representation `x = f(x)` the whole paper
//! operates on.
//!
//! Paper (§IV-A5): images use ResNet-18 + 2-layer MLP (2048-d reps);
//! tabular uses a 7-layer MLP whose *first layer is data-specific* to
//! unify heterogeneous input dims. This reproduction keeps exactly that
//! topology with MLP backbones: one `Linear` adapter per task-input-shape,
//! a shared hidden backbone, and a 2-layer projector.

use edsr_nn::{Activation, Binder, Conv2d, ConvShape, Init, Linear, Mlp, ParamId, ParamSet};
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

/// The encoder's input stem.
#[derive(Debug, Clone)]
pub enum StemConfig {
    /// One linear adapter per task-input shape (the default; the paper's
    /// tabular setup and the MLP image encoder).
    PerTaskLinear,
    /// A convolutional stem (paper: CNN backbone): `Conv2d` → ReLU →
    /// linear projection to the hidden width. Single input shape only.
    Conv {
        /// Spatial layout of the (single) input shape.
        shape: ConvShape,
        /// Square kernel size.
        kernel: usize,
        /// Number of filters.
        filters: usize,
    },
}

/// Architecture description for [`Encoder::new`].
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Input dimensionality per adapter. Homogeneous benchmarks (images)
    /// pass one entry; the tabular stream passes one per increment.
    pub input_dims: Vec<usize>,
    /// Hidden width of adapter outputs and backbone layers.
    pub hidden_dim: usize,
    /// Number of hidden backbone layers (beyond the adapter).
    pub backbone_layers: usize,
    /// Representation dimensionality `d` (paper: 2048 images, 128 tabular).
    pub repr_dim: usize,
    /// Input stem (linear adapters or a convolutional stem).
    pub stem: StemConfig,
}

impl EncoderConfig {
    /// Convenience config for a single-input-shape benchmark.
    pub fn image(input_dim: usize, hidden_dim: usize, repr_dim: usize) -> Self {
        Self {
            input_dims: vec![input_dim],
            hidden_dim,
            backbone_layers: 1,
            repr_dim,
            stem: StemConfig::PerTaskLinear,
        }
    }

    /// Convenience config for a convolutional image encoder.
    pub fn conv_image(
        shape: ConvShape,
        kernel: usize,
        filters: usize,
        hidden_dim: usize,
        repr_dim: usize,
    ) -> Self {
        Self {
            input_dims: vec![shape.dim()],
            hidden_dim,
            backbone_layers: 1,
            repr_dim,
            stem: StemConfig::Conv {
                shape,
                kernel,
                filters,
            },
        }
    }

    /// Convenience config for the heterogeneous tabular stream.
    pub fn tabular(input_dims: Vec<usize>, hidden_dim: usize, repr_dim: usize) -> Self {
        Self {
            input_dims,
            hidden_dim,
            backbone_layers: 2,
            repr_dim,
            stem: StemConfig::PerTaskLinear,
        }
    }
}

/// The instantiated stem.
#[derive(Debug, Clone)]
enum Stem {
    Linear(Vec<Linear>),
    Conv { conv: Conv2d, proj: Linear },
}

/// The model `f(·)` (architecture only — weights live in a [`ParamSet`],
/// so the frozen old model `f̃` is simply a cloned set).
#[derive(Debug, Clone)]
pub struct Encoder {
    stem: Stem,
    backbone: Mlp,
    projector: Mlp,
    repr_dim: usize,
}

impl Encoder {
    /// Builds the encoder, registering all parameters in `params`.
    ///
    /// All adapters are created up front (the task schedule's input shapes
    /// are known), so snapshots of `params` are structurally compatible
    /// across increments.
    ///
    /// # Panics
    /// Panics if `input_dims` is empty.
    pub fn new(params: &mut ParamSet, cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        assert!(
            !cfg.input_dims.is_empty(),
            "Encoder: need at least one input dim"
        );
        let stem = match &cfg.stem {
            StemConfig::PerTaskLinear => Stem::Linear(
                cfg.input_dims
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        Linear::new(
                            params,
                            &format!("enc.adapter{i}"),
                            d,
                            cfg.hidden_dim,
                            Init::He,
                            rng,
                        )
                    })
                    .collect(),
            ),
            StemConfig::Conv {
                shape,
                kernel,
                filters,
            } => {
                assert_eq!(
                    cfg.input_dims.len(),
                    1,
                    "Encoder: conv stem requires a single input shape"
                );
                assert_eq!(
                    cfg.input_dims[0],
                    shape.dim(),
                    "Encoder: conv shape mismatch"
                );
                let conv = Conv2d::new(params, "enc.conv", *shape, *kernel, *filters, rng);
                let proj = Linear::new(
                    params,
                    "enc.convproj",
                    conv.out_dim(),
                    cfg.hidden_dim,
                    Init::He,
                    rng,
                );
                Stem::Conv { conv, proj }
            }
        };
        let mut backbone_dims = vec![cfg.hidden_dim];
        backbone_dims.extend(std::iter::repeat_n(cfg.hidden_dim, cfg.backbone_layers));
        let backbone = Mlp::new(
            params,
            "enc.backbone",
            &backbone_dims,
            Activation::Relu,
            Init::He,
            rng,
        )
        .with_batch_norm(true);
        let projector = Mlp::new(
            params,
            "enc.projector",
            &[cfg.hidden_dim, cfg.repr_dim, cfg.repr_dim],
            Activation::Relu,
            Init::He,
            rng,
        )
        .with_batch_norm(true);
        Self {
            stem,
            backbone,
            projector,
            repr_dim: cfg.repr_dim,
        }
    }

    /// Representation dimensionality `d`.
    pub fn repr_dim(&self) -> usize {
        self.repr_dim
    }

    /// Number of input adapters (a conv stem counts as one shared adapter).
    pub fn num_adapters(&self) -> usize {
        match &self.stem {
            Stem::Linear(adapters) => adapters.len(),
            Stem::Conv { .. } => 1,
        }
    }

    /// Adapter index used for `task` (single-adapter encoders share 0).
    fn adapter_for(&self, task: usize) -> usize {
        let n = self.num_adapters();
        if n == 1 {
            0
        } else {
            assert!(task < n, "Encoder: no adapter for task {task}");
            task
        }
    }

    /// The eval-mode compute graph for one adapter, flattened to a pure
    /// linear chain: ordered `(weight, bias, relu_after)` triples for
    /// adapter → backbone → projector. Eval mode never standardizes
    /// (see [`forward_mode`](Self::forward_eval)), so this chain *is* the
    /// whole serve-time forward: ReLU follows every layer except the final
    /// projector layer. Returns `None` for conv stems, whose first stage
    /// is not a single linear map (`edsr-quant` rejects those models).
    ///
    /// `adapter` indexes [`num_adapters`](Self::num_adapters), not tasks;
    /// single-adapter encoders share entry 0 across all tasks.
    pub fn eval_linear_chain(&self, adapter: usize) -> Option<Vec<(ParamId, ParamId, bool)>> {
        let adapters = match &self.stem {
            Stem::Linear(adapters) => adapters,
            Stem::Conv { .. } => return None,
        };
        let mut chain = Vec::with_capacity(1 + self.backbone.depth() + self.projector.depth());
        let (w, b) = adapters[adapter].param_ids();
        chain.push((w, b, true));
        // Mlp applies the activation between layers only, but the encoder
        // adds a ReLU after the backbone output, so every backbone layer
        // ends up ReLU-terminated.
        for pair in self.backbone.param_ids().chunks_exact(2) {
            chain.push((pair[0], pair[1], true));
        }
        let proj = self.projector.param_ids();
        let depth = self.projector.depth();
        for (i, pair) in proj.chunks_exact(2).enumerate() {
            chain.push((pair[0], pair[1], i + 1 < depth));
        }
        Some(chain)
    }

    /// Records the full (train-mode) forward pass; returns
    /// `(backbone_out, repr)`.
    ///
    /// `backbone_out` is the pre-projector feature (what DER distills on);
    /// `repr` is the representation `x` used everywhere else.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        x: Var,
        task: usize,
    ) -> (Var, Var) {
        self.forward_mode(tape, binder, params, x, task, true)
    }

    /// Eval-mode forward: batch standardization in the backbone and
    /// projector is skipped, so each output row depends only on its own
    /// input row. Identical to [`forward`](Self::forward) for single-row
    /// batches (where BN statistics are undefined and already skipped);
    /// this is the mode `edsr-serve` uses so batched responses are
    /// bit-identical to single-request responses.
    pub fn forward_eval(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        x: Var,
        task: usize,
    ) -> (Var, Var) {
        self.forward_mode(tape, binder, params, x, task, false)
    }

    fn forward_mode(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        x: Var,
        task: usize,
        train: bool,
    ) -> (Var, Var) {
        let h = match &self.stem {
            Stem::Linear(adapters) => {
                let adapter = &adapters[self.adapter_for(task)];
                adapter.forward(tape, binder, params, x)
            }
            Stem::Conv { conv, proj } => {
                let fmap = conv.forward(tape, binder, params, x);
                let fmap = tape.relu(fmap);
                proj.forward(tape, binder, params, fmap)
            }
        };
        let h = tape.relu(h);
        let features = if train {
            self.backbone.forward(tape, binder, params, h)
        } else {
            self.backbone.forward_eval(tape, binder, params, h)
        };
        let features = tape.relu(features);
        let repr = if train {
            self.projector.forward(tape, binder, params, features)
        } else {
            self.projector.forward_eval(tape, binder, params, features)
        };
        (features, repr)
    }

    /// Records a no-gradient-needed representation forward on a
    /// caller-provided (typically auxiliary) tape, returning the repr node.
    /// Unlike [`represent`](Self::represent) the value stays pool-backed on
    /// `tape` — borrow it via `tape.value(var)` instead of cloning it out.
    pub fn represent_on(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        x: &Matrix,
        task: usize,
    ) -> Var {
        let input = tape.constant_copy(x);
        let (_, repr) = self.forward(tape, binder, params, input, task);
        repr
    }

    /// Eval-mode sibling of [`represent_on`](Self::represent_on): the
    /// forward skips batch standardization, making every output row
    /// independent of its batch-mates (see
    /// [`forward_eval`](Self::forward_eval)).
    pub fn represent_eval_on(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        params: &ParamSet,
        x: &Matrix,
        task: usize,
    ) -> Var {
        let input = tape.constant_copy(x);
        let (_, repr) = self.forward_eval(tape, binder, params, input, task);
        repr
    }

    /// Inference-only eval-mode representation extraction.
    pub fn represent_eval(&self, params: &ParamSet, x: &Matrix, task: usize) -> Matrix {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let repr = self.represent_eval_on(&mut tape, &mut binder, params, x, task);
        tape.value(repr).clone()
    }

    /// Inference-only representation extraction (no caller-visible tape).
    pub fn represent(&self, params: &ParamSet, x: &Matrix, task: usize) -> Matrix {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let repr = self.represent_on(&mut tape, &mut binder, params, x, task);
        tape.value(repr).clone()
    }

    /// Inference-only backbone features (DER's distillation medium).
    pub fn features(&self, params: &ParamSet, x: &Matrix, task: usize) -> Matrix {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let input = tape.constant_copy(x);
        let (features, _) = self.forward(&mut tape, &mut binder, params, input, task);
        tape.value(features).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    #[test]
    fn image_encoder_shapes() {
        let mut rng = seeded(200);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::image(48, 32, 16), &mut rng);
        assert_eq!(enc.repr_dim(), 16);
        assert_eq!(enc.num_adapters(), 1);
        let x = Matrix::randn(5, 48, 1.0, &mut rng);
        let r = enc.represent(&ps, &x, 0);
        assert_eq!(r.shape(), (5, 16));
        let f = enc.features(&ps, &x, 0);
        assert_eq!(f.shape(), (5, 32));
    }

    #[test]
    fn single_adapter_shared_across_tasks() {
        let mut rng = seeded(201);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::image(8, 8, 4), &mut rng);
        let x = Matrix::randn(2, 8, 1.0, &mut rng);
        let a = enc.represent(&ps, &x, 0);
        let b = enc.represent(&ps, &x, 7);
        assert_eq!(
            a.max_abs_diff(&b),
            0.0,
            "shared adapter must ignore task id"
        );
    }

    #[test]
    fn tabular_adapters_unify_dimensions() {
        let mut rng = seeded(202);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(
            &mut ps,
            &EncoderConfig::tabular(vec![16, 17, 14], 24, 12),
            &mut rng,
        );
        assert_eq!(enc.num_adapters(), 3);
        for (task, d) in [16usize, 17, 14].iter().enumerate() {
            let x = Matrix::randn(3, *d, 1.0, &mut rng);
            let r = enc.represent(&ps, &x, task);
            assert_eq!(r.shape(), (3, 12));
        }
    }

    #[test]
    #[should_panic(expected = "no adapter for task")]
    fn missing_adapter_panics() {
        let mut rng = seeded(203);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::tabular(vec![4, 5], 8, 4), &mut rng);
        let x = Matrix::randn(1, 9, 1.0, &mut rng);
        let _ = enc.represent(&ps, &x, 2);
    }

    #[test]
    fn eval_represent_is_row_independent_and_matches_single_row() {
        let mut rng = seeded(208);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::image(12, 16, 8), &mut rng);
        let x = Matrix::randn(5, 12, 1.0, &mut rng);
        let batched = enc.represent_eval(&ps, &x, 0);
        for i in 0..x.rows() {
            let row = Matrix::from_vec(1, 12, x.row(i).to_vec());
            let solo_eval = enc.represent_eval(&ps, &row, 0);
            let solo_train = enc.represent(&ps, &row, 0);
            let batch_bits: Vec<u32> = batched.row(i).iter().map(|v| v.to_bits()).collect();
            let eval_bits: Vec<u32> = solo_eval.row(0).iter().map(|v| v.to_bits()).collect();
            let train_bits: Vec<u32> = solo_train.row(0).iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, eval_bits, "row {i} depends on batch-mates");
            assert_eq!(
                eval_bits, train_bits,
                "row {i}: eval and train modes disagree on a single row"
            );
        }
    }

    #[test]
    fn snapshot_clone_freezes_old_model() {
        let mut rng = seeded(204);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::image(8, 8, 4), &mut rng);
        let x = Matrix::randn(2, 8, 1.0, &mut rng);
        let before = enc.represent(&ps, &x, 0);
        let frozen = ps.snapshot();

        // Mutate the live parameters.
        for id in ps.ids().collect::<Vec<_>>() {
            ps.value_mut(id).scale_inplace(1.3);
        }
        let after = enc.represent(&ps, &x, 0);
        assert!(after.max_abs_diff(&before) > 1e-4);

        // Restore → old behaviour returns.
        ps.restore(&frozen);
        let restored = enc.represent(&ps, &x, 0);
        assert!(restored.max_abs_diff(&before) < 1e-6);
    }

    #[test]
    fn conv_stem_shapes_and_gradients() {
        let mut rng = seeded(206);
        let mut ps = ParamSet::new();
        let shape = ConvShape {
            channels: 3,
            height: 6,
            width: 6,
        };
        let cfg = EncoderConfig::conv_image(shape, 3, 4, 24, 12);
        let enc = Encoder::new(&mut ps, &cfg, &mut rng);
        assert_eq!(enc.num_adapters(), 1);
        let x = Matrix::randn(5, shape.dim(), 1.0, &mut rng);
        let r = enc.represent(&ps, &x, 0);
        assert_eq!(r.shape(), (5, 12));

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let vx = tape.leaf(x);
        let (_, repr) = enc.forward(&mut tape, &mut binder, &ps, vx, 0);
        let sq = tape.square(repr);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);
        let conv_grad: f32 = ps
            .ids()
            .filter(|&id| ps.name(id).starts_with("enc.conv"))
            .map(|id| ps.grad(id).frobenius_norm())
            .sum();
        assert!(conv_grad > 0.0, "conv stem received no gradient");
    }

    #[test]
    #[should_panic(expected = "conv shape mismatch")]
    fn conv_stem_dim_mismatch_panics() {
        let mut rng = seeded(207);
        let mut ps = ParamSet::new();
        let shape = ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        let mut cfg = EncoderConfig::conv_image(shape, 3, 2, 8, 4);
        cfg.input_dims = vec![99];
        let _ = Encoder::new(&mut ps, &cfg, &mut rng);
    }

    #[test]
    fn gradients_reach_all_components() {
        let mut rng = seeded(205);
        let mut ps = ParamSet::new();
        let enc = Encoder::new(&mut ps, &EncoderConfig::image(6, 10, 5), &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.leaf(Matrix::randn(4, 6, 1.0, &mut rng));
        let (_, repr) = enc.forward(&mut tape, &mut binder, &ps, x, 0);
        let sq = tape.square(repr);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);
        let nonzero = ps
            .ids()
            .filter(|&id| ps.grad(id).frobenius_norm() > 0.0)
            .count();
        // Adapter (w,b) + backbone (w,b) + projector 2×(w,b) = 8 params.
        assert!(nonzero >= 6, "only {nonzero} params received gradient");
    }
}
