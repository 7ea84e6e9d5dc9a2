//! Stochastic augmentations — the view generators `T(·; O)` of paper
//! §II-A1.
//!
//! Image ops mirror the paper's `{crop, horizontalFlip, colorJitter,
//! grayScale, gaussianBlur}` as structured analogues on the synthetic
//! grid; the tabular op is SCARF's `tabularCrop` (random feature
//! corruption from the empirical marginal) per \[75\].

use edsr_tensor::rng::{index, uniform};
use edsr_tensor::Matrix;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::grid::{GridSpec, Tap};

/// One augmentation operation on a grid sample.
#[derive(Debug, Clone)]
pub enum AugOp {
    /// Random crop of relative size in `[min_scale, 1]`, resized back.
    Crop {
        /// Smallest crop window relative to full size (0, 1].
        min_scale: f32,
    },
    /// Horizontal mirror with probability `p`.
    HorizontalFlip {
        /// Application probability.
        p: f32,
    },
    /// Per-channel affine jitter `x·(1+a)+b` (brightness/contrast analogue).
    ColorJitter {
        /// Magnitude of `a` and `b` (uniform in `±strength`).
        strength: f32,
    },
    /// With probability `p`, replaces every channel by the channel mean.
    GrayScale {
        /// Application probability.
        p: f32,
    },
    /// With probability `p`, 3×3 box blur per channel.
    GaussianBlur {
        /// Application probability.
        p: f32,
    },
    /// Nuisance-subspace jitter: adds a fresh random draw over the
    /// benchmark's fixed nuisance patterns (`x += Σ c_j·g_j`,
    /// `c ~ N(0, scale²)`). The colorJitter analogue of this simulation —
    /// it re-randomizes exactly the nuisance the generator planted, giving
    /// same-class samples overlapping view distributions (the
    /// augmentation-overlap property \[71\] contrastive clustering needs).
    PatternJitter {
        /// The benchmark's shared nuisance patterns (unit RMS, flattened).
        patterns: std::sync::Arc<Vec<Vec<f32>>>,
        /// Coefficient std of the fresh draw.
        scale: f32,
    },
}

/// Buffers the image ops reuse from one view to the next: the copy of
/// the sample that crop and blur read from, and crop's source taps per
/// output row and per output column.
#[derive(Default)]
struct Scratch {
    src: Vec<f32>,
    rows: Vec<Tap>,
    cols: Vec<Tap>,
}

impl AugOp {
    /// Applies the op in place (Eq. 2: ops compose sequentially).
    fn apply(&self, sample: &mut [f32], grid: GridSpec, scratch: &mut Scratch, rng: &mut StdRng) {
        match *self {
            AugOp::Crop { min_scale } => crop_resize(sample, grid, min_scale, scratch, rng),
            AugOp::HorizontalFlip { p } => {
                if rng.random::<f32>() < p {
                    horizontal_flip(sample, grid);
                }
            }
            AugOp::ColorJitter { strength } => color_jitter(sample, grid, strength, rng),
            AugOp::GrayScale { p } => {
                if rng.random::<f32>() < p {
                    gray_scale(sample, grid);
                }
            }
            AugOp::GaussianBlur { p } => {
                if rng.random::<f32>() < p {
                    box_blur(sample, grid, scratch);
                }
            }
            AugOp::PatternJitter {
                ref patterns,
                scale,
            } => {
                for p in patterns.iter() {
                    let c = edsr_tensor::rng::gaussian(rng) * scale;
                    for (v, &pi) in sample.iter_mut().zip(p) {
                        *v += c * pi;
                    }
                }
            }
        }
    }
}

fn crop_resize(
    sample: &mut [f32],
    grid: GridSpec,
    min_scale: f32,
    scratch: &mut Scratch,
    rng: &mut StdRng,
) {
    let scale = uniform(rng, min_scale.clamp(0.05, 1.0), 1.0);
    let ch = ((grid.height as f32 * scale).round() as usize).clamp(1, grid.height);
    let cw = ((grid.width as f32 * scale).round() as usize).clamp(1, grid.width);
    let top = if grid.height > ch {
        index(rng, grid.height - ch + 1)
    } else {
        0
    };
    let left = if grid.width > cw {
        index(rng, grid.width - cw + 1)
    } else {
        0
    };

    // Output position `i` of an axis `n` long samples the crop window
    // `start..start + len` at `start + i / (n - 1) * (len - 1)`.
    let taps = |taps: &mut Vec<Tap>, start: usize, len: usize, n: usize| {
        taps.clear();
        taps.extend((0..n).map(|i| {
            let p = start as f32 + i as f32 / (n - 1).max(1) as f32 * (len - 1) as f32;
            Tap::new(p, n)
        }));
    };
    taps(&mut scratch.rows, top, ch, grid.height);
    taps(&mut scratch.cols, left, cw, grid.width);
    let Scratch { src, rows, cols } = scratch;
    src.clear();
    src.extend_from_slice(sample);
    let plane = grid.height * grid.width;
    for (out, src) in sample.chunks_exact_mut(plane).zip(src.chunks_exact(plane)) {
        for (out, &y) in out.chunks_exact_mut(grid.width).zip(rows.iter()) {
            for (v, &x) in out.iter_mut().zip(cols.iter()) {
                *v = grid.bilinear_taps(src, y, x);
            }
        }
    }
}

fn horizontal_flip(sample: &mut [f32], grid: GridSpec) {
    for c in 0..grid.channels {
        for r in 0..grid.height {
            for col in 0..grid.width / 2 {
                let a = grid.index(c, r, col);
                let b = grid.index(c, r, grid.width - 1 - col);
                sample.swap(a, b);
            }
        }
    }
}

fn color_jitter(sample: &mut [f32], grid: GridSpec, strength: f32, rng: &mut StdRng) {
    let plane = grid.height * grid.width;
    for c in 0..grid.channels {
        let a = uniform(rng, -strength, strength);
        let b = uniform(rng, -strength, strength);
        for v in &mut sample[c * plane..(c + 1) * plane] {
            *v = *v * (1.0 + a) + b;
        }
    }
}

fn gray_scale(sample: &mut [f32], grid: GridSpec) {
    if grid.channels < 2 {
        return;
    }
    let plane = grid.height * grid.width;
    for p in 0..plane {
        let mean: f32 = (0..grid.channels)
            .map(|c| sample[c * plane + p])
            .sum::<f32>()
            / grid.channels as f32;
        for c in 0..grid.channels {
            sample[c * plane + p] = mean;
        }
    }
}

fn box_blur(sample: &mut [f32], grid: GridSpec, scratch: &mut Scratch) {
    let src = &mut scratch.src;
    src.clear();
    src.extend_from_slice(sample);
    for c in 0..grid.channels {
        for r in 0..grid.height {
            for col in 0..grid.width {
                let mut acc = 0.0f32;
                let mut n = 0u32;
                for dr in -1i32..=1 {
                    for dc in -1i32..=1 {
                        let rr = r as i32 + dr;
                        let cc = col as i32 + dc;
                        if rr >= 0
                            && cc >= 0
                            && (rr as usize) < grid.height
                            && (cc as usize) < grid.width
                        {
                            acc += src[grid.index(c, rr as usize, cc as usize)];
                            n += 1;
                        }
                    }
                }
                sample[grid.index(c, r, col)] = acc / n as f32;
            }
        }
    }
}

/// Runs the image `ops` in order over `sample` in place.
fn image_view(
    grid: GridSpec,
    ops: &[AugOp],
    sample: &mut [f32],
    scratch: &mut Scratch,
    rng: &mut StdRng,
) {
    debug_assert_eq!(sample.len(), grid.dim(), "augment: sample/grid mismatch");
    for op in ops {
        op.apply(sample, grid, scratch, rng);
    }
}

/// A view generator: either an image-op sequence over a grid, or SCARF
/// feature corruption over a reference corpus, or the identity.
#[derive(Debug, Clone)]
pub enum Augmenter {
    /// Sequential image-style ops on a [`GridSpec`] sample (Eq. 2).
    Image {
        /// Geometry of each sample.
        grid: GridSpec,
        /// Ops applied in order.
        ops: Vec<AugOp>,
    },
    /// SCARF `tabularCrop` \[75\]: each feature is independently replaced,
    /// with probability `corruption_prob`, by the same feature of a random
    /// row of `reference`.
    TabularCrop {
        /// Empirical marginal source (usually the current train split).
        reference: Matrix,
        /// Per-feature corruption probability.
        corruption_prob: f32,
    },
    /// No-op (raw views; useful in tests and for the selection stage,
    /// where the paper extracts representations without augmentation).
    Identity,
}

impl Augmenter {
    /// The paper's image pipeline analogue with default magnitudes (no
    /// nuisance-subspace jitter — use
    /// [`standard_image_with_patterns`](Self::standard_image_with_patterns)
    /// for benchmark data).
    pub fn standard_image(grid: GridSpec) -> Self {
        Augmenter::Image {
            grid,
            ops: vec![
                AugOp::Crop { min_scale: 0.6 },
                AugOp::HorizontalFlip { p: 0.5 },
                AugOp::ColorJitter { strength: 0.25 },
                AugOp::GrayScale { p: 0.2 },
                AugOp::GaussianBlur { p: 0.2 },
            ],
        }
    }

    /// The image pipeline including the nuisance-subspace jitter coupled
    /// to the benchmark's pattern world.
    pub fn standard_image_with_patterns(
        grid: GridSpec,
        patterns: std::sync::Arc<Vec<Vec<f32>>>,
        scale: f32,
    ) -> Self {
        Augmenter::Image {
            grid,
            ops: vec![
                AugOp::Crop { min_scale: 0.92 },
                AugOp::HorizontalFlip { p: 0.3 },
                AugOp::PatternJitter { patterns, scale },
                AugOp::GaussianBlur { p: 0.1 },
            ],
        }
    }

    /// SCARF corruption with the reference corpus.
    pub fn tabular(reference: Matrix, corruption_prob: f32) -> Self {
        Augmenter::TabularCrop {
            reference,
            corruption_prob,
        }
    }

    /// Augments one sample (row slice) into a new view.
    pub fn view(&self, sample: &[f32], rng: &mut StdRng) -> Vec<f32> {
        match self {
            Augmenter::Image { grid, ops } => {
                let mut out = sample.to_vec();
                image_view(*grid, ops, &mut out, &mut Scratch::default(), rng);
                out
            }
            Augmenter::TabularCrop {
                reference,
                corruption_prob,
            } => {
                let mut out = sample.to_vec();
                for (f, v) in out.iter_mut().enumerate() {
                    if rng.random::<f32>() < *corruption_prob {
                        let row = index(rng, reference.rows());
                        *v = reference.get(row, f);
                    }
                }
                out
            }
            Augmenter::Identity => sample.to_vec(),
        }
    }

    /// Augments each row of `batch`, producing one full view matrix. The
    /// image pipeline writes each view in place into its output row.
    pub fn view_batch(&self, batch: &Matrix, rng: &mut StdRng) -> Matrix {
        let mut out = Matrix::zeros(batch.rows(), batch.cols());
        let mut scratch = Scratch::default();
        for r in 0..batch.rows() {
            if let Augmenter::Image { grid, ops } = self {
                out.row_mut(r).copy_from_slice(batch.row(r));
                image_view(*grid, ops, out.row_mut(r), &mut scratch, rng);
            } else {
                let v = self.view(batch.row(r), rng);
                out.row_mut(r).copy_from_slice(&v);
            }
        }
        out
    }

    /// Two independent views of each row — the positive pair `(x_1, x_2)`.
    pub fn two_views(&self, batch: &Matrix, rng: &mut StdRng) -> (Matrix, Matrix) {
        (self.view_batch(batch, rng), self.view_batch(batch, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::rng::seeded;

    fn grid() -> GridSpec {
        GridSpec::new(6, 6, 2)
    }

    fn ramp_sample(g: GridSpec) -> Vec<f32> {
        (0..g.dim()).map(|i| i as f32).collect()
    }

    #[test]
    fn flip_is_involution() {
        let g = grid();
        let mut s = ramp_sample(g);
        let orig = s.clone();
        horizontal_flip(&mut s, g);
        assert_ne!(s, orig);
        horizontal_flip(&mut s, g);
        assert_eq!(s, orig);
    }

    #[test]
    fn gray_scale_equalizes_channels() {
        let g = grid();
        let mut s = ramp_sample(g);
        gray_scale(&mut s, g);
        let plane = g.height * g.width;
        for p in 0..plane {
            assert_eq!(s[p], s[plane + p]);
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let g = grid();
        let mut s = vec![3.5f32; g.dim()];
        box_blur(&mut s, g, &mut Scratch::default());
        assert!(s.iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn blur_smooths_a_spike() {
        let g = GridSpec::new(5, 5, 1);
        let mut s = vec![0.0f32; g.dim()];
        s[g.index(0, 2, 2)] = 9.0;
        box_blur(&mut s, g, &mut Scratch::default());
        assert!((s[g.index(0, 2, 2)] - 1.0).abs() < 1e-6); // 9/9
        assert!(s[g.index(0, 1, 2)] > 0.0);
        assert_eq!(s[g.index(0, 0, 0)], 0.0);
    }

    #[test]
    fn crop_full_scale_is_identity() {
        let g = grid();
        let mut rng = seeded(150);
        let mut s = ramp_sample(g);
        let orig = s.clone();
        crop_resize(&mut s, g, 1.0, &mut Scratch::default(), &mut rng);
        for (a, b) in s.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// The image pipeline as it ran before views were written in place:
    /// crop samples through [`GridSpec::bilinear`] at each (channel,
    /// pixel) from a fresh copy of the sample.
    fn per_pixel_view(aug: &Augmenter, sample: &[f32], rng: &mut StdRng) -> Vec<f32> {
        let Augmenter::Image { grid: g, ops } = aug else {
            panic!("image augmenter expected");
        };
        let mut out = sample.to_vec();
        for op in ops {
            let AugOp::Crop { min_scale } = *op else {
                op.apply(&mut out, *g, &mut Scratch::default(), rng);
                continue;
            };
            let scale = uniform(rng, min_scale.clamp(0.05, 1.0), 1.0);
            let ch = ((g.height as f32 * scale).round() as usize).clamp(1, g.height);
            let cw = ((g.width as f32 * scale).round() as usize).clamp(1, g.width);
            let top = if g.height > ch {
                index(rng, g.height - ch + 1)
            } else {
                0
            };
            let left = if g.width > cw {
                index(rng, g.width - cw + 1)
            } else {
                0
            };
            let src = out.clone();
            for c in 0..g.channels {
                for r in 0..g.height {
                    for col in 0..g.width {
                        let y =
                            top as f32 + r as f32 / (g.height - 1).max(1) as f32 * (ch - 1) as f32;
                        let x = left as f32
                            + col as f32 / (g.width - 1).max(1) as f32 * (cw - 1) as f32;
                        out[g.index(c, r, col)] = g.bilinear(&src, c, y, x);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn in_place_views_match_per_pixel_views_bit_for_bit() {
        for (h, w, c) in [(6, 6, 2), (10, 10, 3), (8, 8, 3), (1, 5, 1), (4, 1, 2)] {
            let g = GridSpec::new(h, w, c);
            let mut rng = seeded(158);
            let patterns = (0..3)
                .map(|_| Matrix::randn(1, g.dim(), 1.0, &mut rng).data().to_vec())
                .collect();
            let batch = Matrix::randn(9, g.dim(), 1.0, &mut rng);
            for aug in [
                Augmenter::standard_image(g),
                Augmenter::standard_image_with_patterns(g, std::sync::Arc::new(patterns), 0.5),
            ] {
                let views = aug.view_batch(&batch, &mut seeded(159));
                let mut rng = seeded(159);
                for r in 0..batch.rows() {
                    let want = per_pixel_view(&aug, batch.row(r), &mut rng);
                    let got = views.row(r);
                    assert!(
                        got.iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{h}x{w}x{c} row {r}: {got:?} vs {want:?}"
                    );
                }
                let mut single_rng = seeded(159);
                for r in 0..batch.rows() {
                    assert_eq!(aug.view(batch.row(r), &mut single_rng), views.row(r));
                }
            }
        }
    }

    #[test]
    fn jitter_changes_values_boundedly() {
        let g = grid();
        let mut rng = seeded(151);
        let mut s = vec![1.0f32; g.dim()];
        color_jitter(&mut s, g, 0.2, &mut rng);
        assert!(s.iter().all(|&v| v > 0.5 && v < 1.5));
    }

    #[test]
    fn two_views_differ_but_correlate() {
        let g = grid();
        let mut rng = seeded(152);
        let aug = Augmenter::standard_image(g);
        let batch = Matrix::from_vec(1, g.dim(), ramp_sample(g));
        let (v1, v2) = aug.two_views(&batch, &mut rng);
        assert!(v1.max_abs_diff(&v2) > 1e-3, "views identical");
        // Still correlated with the source (label-preserving).
        let corr = edsr_linalg::stats::cosine_similarity(v1.row(0), batch.row(0));
        assert!(corr > 0.5, "view destroyed content: corr {corr}");
    }

    #[test]
    fn tabular_crop_replaces_from_marginal() {
        let mut rng = seeded(153);
        let reference = Matrix::from_vec(2, 3, vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let aug = Augmenter::tabular(reference, 1.0);
        let v = aug.view(&[-1.0, -2.0, -3.0], &mut rng);
        // With prob 1 every feature must come from the reference column.
        assert!(v[0] == 10.0 || v[0] == 40.0);
        assert!(v[1] == 20.0 || v[1] == 50.0);
        assert!(v[2] == 30.0 || v[2] == 60.0);
    }

    #[test]
    fn tabular_crop_zero_prob_is_identity() {
        let mut rng = seeded(154);
        let reference = Matrix::zeros(2, 3);
        let aug = Augmenter::tabular(reference, 0.0);
        let v = aug.view(&[1.0, 2.0, 3.0], &mut rng);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pattern_jitter_stays_in_affine_subspace() {
        // The jittered view differs from the input only within the span
        // of the patterns.
        let mut rng = seeded(156);
        let p1 = vec![1.0f32, 0.0, 0.0, 0.0];
        let p2 = vec![0.0f32, 1.0, 0.0, 0.0];
        let patterns = std::sync::Arc::new(vec![p1, p2]);
        let op = AugOp::PatternJitter {
            patterns,
            scale: 2.0,
        };
        let g = GridSpec::new(2, 2, 1);
        let base = vec![5.0f32, 6.0, 7.0, 8.0];
        let mut v = base.clone();
        op.apply(&mut v, g, &mut Scratch::default(), &mut rng);
        assert_eq!(v[2], 7.0, "outside-span coordinate changed");
        assert_eq!(v[3], 8.0, "outside-span coordinate changed");
        assert!(
            (v[0] - 5.0).abs() > 1e-4 || (v[1] - 6.0).abs() > 1e-4,
            "no jitter applied"
        );
    }

    #[test]
    fn pattern_jitter_zero_scale_is_identity() {
        let mut rng = seeded(157);
        let patterns = std::sync::Arc::new(vec![vec![1.0f32; 4]]);
        let op = AugOp::PatternJitter {
            patterns,
            scale: 0.0,
        };
        let g = GridSpec::new(2, 2, 1);
        let mut v = vec![1.0f32, 2.0, 3.0, 4.0];
        op.apply(&mut v, g, &mut Scratch::default(), &mut rng);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn standard_image_with_patterns_includes_jitter() {
        let g = GridSpec::new(4, 4, 1);
        let patterns = std::sync::Arc::new(vec![vec![1.0f32; 16]]);
        let aug = Augmenter::standard_image_with_patterns(g, patterns, 1.0);
        match aug {
            Augmenter::Image { ops, .. } => {
                assert!(ops.iter().any(|o| matches!(o, AugOp::PatternJitter { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identity_augmenter_copies() {
        let mut rng = seeded(155);
        let aug = Augmenter::Identity;
        let v = aug.view(&[5.0, 6.0], &mut rng);
        assert_eq!(v, vec![5.0, 6.0]);
    }
}
