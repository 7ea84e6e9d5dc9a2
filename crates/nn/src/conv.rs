//! 2-D convolution, lowered to matmul via the tape's gather op (im2col).
//!
//! The paper's image encoder is a CNN (ResNet-18). The default simulation
//! backbone is an MLP (DESIGN.md §2), but this layer provides a true
//! convolutional stem for the `Conv` encoder variant and the architecture
//! ablation: valid-padding stride-1 convolution over channel-major
//! flattened `C x H x W` samples.
//!
//! Lowering: `im2col` (a pure index gather, so its backward is a scatter
//! handled by the tape) turns the input batch into a
//! `(B·OH·OW) x (C·kh·kw)` patch matrix; a matmul with the
//! `(C·kh·kw) x K` filter bank plus bias gives the responses; a second
//! gather permutes the layout back to channel-major `B x (K·OH·OW)` rows.

use std::cell::RefCell;
use std::sync::Arc;

use edsr_tensor::rng::gaussian;
use edsr_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;

use crate::layers::Init;
use crate::params::{Binder, ParamId, ParamSet};

/// Spatial geometry of the convolution input (channel-major flattening,
/// matching `edsr-data`'s `GridSpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
}

impl ConvShape {
    /// Flattened input dimensionality.
    pub fn dim(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// A stride-1, valid-padding 2-D convolution layer.
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    shape: ConvShape,
    kernel: usize,
    filters: usize,
    /// Gather maps for the last-seen batch size. The maps are pure
    /// functions of `(geometry, batch)`, so caching them makes repeated
    /// same-size forward passes allocation-free (the `Arc`s are shared with
    /// the tape nodes that recorded them).
    maps: RefCell<Option<CachedMaps>>,
}

#[derive(Debug, Clone)]
struct CachedMaps {
    batch: usize,
    im2col: Arc<Vec<usize>>,
    regroup: Arc<Vec<usize>>,
}

impl Conv2d {
    /// Creates the layer (He-initialized filters).
    ///
    /// # Panics
    /// Panics if the kernel does not fit inside the input.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        shape: ConvShape,
        kernel: usize,
        filters: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            kernel >= 1 && kernel <= shape.height && kernel <= shape.width,
            "Conv2d: kernel {kernel} does not fit {}x{}",
            shape.height,
            shape.width
        );
        let fan_in = shape.channels * kernel * kernel;
        let std = Init::He.std(fan_in, filters);
        let mut w = Matrix::zeros(fan_in, filters);
        for v in w.data_mut() {
            *v = gaussian(rng) * std;
        }
        let w = params.register(format!("{name}.w"), w);
        let b = params.register(format!("{name}.b"), Matrix::zeros(1, filters));
        Self {
            w,
            b,
            shape,
            kernel,
            filters,
            maps: RefCell::new(None),
        }
    }

    /// Output spatial height (valid padding, stride 1).
    pub fn out_height(&self) -> usize {
        self.shape.height - self.kernel + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        self.shape.width - self.kernel + 1
    }

    /// Flattened output dimensionality (`filters · OH · OW`).
    pub fn out_dim(&self) -> usize {
        self.filters * self.out_height() * self.out_width()
    }

    /// Number of filters.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Builds the im2col gather map for a batch of `b` rows.
    fn im2col_map(&self, b: usize) -> Vec<usize> {
        let (c, h, w) = (self.shape.channels, self.shape.height, self.shape.width);
        let (oh, ow, k) = (self.out_height(), self.out_width(), self.kernel);
        let sample_stride = c * h * w;
        let per_sample = oh * ow * c * k * k;
        let mut map = vec![0usize; b * per_sample];
        let fill = |range: std::ops::Range<usize>, chunk: &mut [usize]| {
            let mut pos = 0;
            for batch in range {
                for oy in 0..oh {
                    for ox in 0..ow {
                        for ch in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let y = oy + ky;
                                    let x = ox + kx;
                                    chunk[pos] = batch * sample_stride + ch * h * w + y * w + x;
                                    pos += 1;
                                }
                            }
                        }
                    }
                }
            }
        };
        edsr_par::par_for_rows(&mut map, b, b * per_sample, fill);
        map
    }

    /// Builds the layout-restoring gather map: from `(B·OH·OW) x K`
    /// responses to channel-major `B x (K·OH·OW)` rows.
    fn regroup_map(&self, b: usize) -> Vec<usize> {
        let (oh, ow, k) = (self.out_height(), self.out_width(), self.filters);
        let per_sample = k * oh * ow;
        let mut map = vec![0usize; b * per_sample];
        let fill = |range: std::ops::Range<usize>, chunk: &mut [usize]| {
            let mut pos = 0;
            for batch in range {
                for filter in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let response_row = batch * oh * ow + oy * ow + ox;
                            chunk[pos] = response_row * k + filter;
                            pos += 1;
                        }
                    }
                }
            }
        };
        edsr_par::par_for_rows(&mut map, b, b * per_sample, fill);
        map
    }

    /// Returns the (cached) gather maps for a batch of `b` rows,
    /// rebuilding them only when the batch size changes.
    fn maps_for(&self, b: usize) -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
        let mut cache = self.maps.borrow_mut();
        match cache.as_ref() {
            Some(c) if c.batch == b => (Arc::clone(&c.im2col), Arc::clone(&c.regroup)),
            _ => {
                let im2col = Arc::new(self.im2col_map(b));
                let regroup = Arc::new(self.regroup_map(b));
                *cache = Some(CachedMaps {
                    batch: b,
                    im2col: Arc::clone(&im2col),
                    regroup: Arc::clone(&regroup),
                });
                (im2col, regroup)
            }
        }
    }

    /// Records the convolution of a `B x (C·H·W)` batch; returns a
    /// channel-major `B x (K·OH·OW)` node.
    ///
    /// # Panics
    /// Panics if the input width is not `shape.dim()`.
    pub fn forward(&self, tape: &mut Tape, binder: &mut Binder, params: &ParamSet, x: Var) -> Var {
        let (b, d) = tape.value(x).shape();
        assert_eq!(
            d,
            self.shape.dim(),
            "Conv2d: input width {d} != {}",
            self.shape.dim()
        );
        let (oh, ow) = (self.out_height(), self.out_width());
        let patch = self.shape.channels * self.kernel * self.kernel;

        let (im2col, regroup) = self.maps_for(b);
        let cols = tape.gather(x, im2col, b * oh * ow, patch);
        let w = binder.bind(tape, params, self.w);
        let bias = binder.bind(tape, params, self.b);
        let responses = tape.matmul(cols, w);
        let responses = tape.add_row(responses, bias);
        tape.gather(responses, regroup, b, self.out_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::gradcheck::check_gradients;
    use edsr_tensor::rng::seeded;

    fn layer(seed: u64, shape: ConvShape, kernel: usize, filters: usize) -> (Conv2d, ParamSet) {
        let mut rng = seeded(seed);
        let mut ps = ParamSet::new();
        let conv = Conv2d::new(&mut ps, "c", shape, kernel, filters, &mut rng);
        (conv, ps)
    }

    #[test]
    fn output_shape() {
        let shape = ConvShape {
            channels: 3,
            height: 8,
            width: 8,
        };
        let (conv, ps) = layer(600, shape, 3, 5);
        assert_eq!(conv.out_height(), 6);
        assert_eq!(conv.out_width(), 6);
        assert_eq!(conv.out_dim(), 5 * 36);
        let mut rng = seeded(601);
        let x = Matrix::randn(4, shape.dim(), 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let vx = tape.leaf(x);
        let y = conv.forward(&mut tape, &mut binder, &ps, vx);
        assert_eq!(tape.value(y).shape(), (4, 180));
    }

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        // 1x1 kernel, single filter, weight selecting channel 0 with gain 1.
        let shape = ConvShape {
            channels: 2,
            height: 3,
            width: 3,
        };
        let (conv, mut ps) = layer(602, shape, 1, 1);
        let (w, b) = (conv.w, conv.b);
        *ps.value_mut(w) = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        *ps.value_mut(b) = Matrix::zeros(1, 1);
        let x = Matrix::from_vec(1, 18, (0..18).map(|i| i as f32).collect());
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let vx = tape.leaf(x.clone());
        let y = conv.forward(&mut tape, &mut binder, &ps, vx);
        assert_eq!(tape.value(y).data(), &x.data()[..9]);
    }

    #[test]
    fn known_3x3_box_filter() {
        // Single channel 4x4 ramp, 3x3 all-ones kernel: each output is the
        // sum of its 3x3 window.
        let shape = ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        let (conv, mut ps) = layer(603, shape, 3, 1);
        *ps.value_mut(conv.w) = Matrix::filled(9, 1, 1.0);
        *ps.value_mut(conv.b) = Matrix::zeros(1, 1);
        let x = Matrix::from_vec(1, 16, (0..16).map(|i| i as f32).collect());
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let vx = tape.leaf(x);
        let y = conv.forward(&mut tape, &mut binder, &ps, vx);
        // Window sums for top-left 2x2 outputs of a 0..15 ramp.
        let out = tape.value(y);
        assert_eq!(out.shape(), (1, 4));
        assert_eq!(out.data(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn gradcheck_conv_parameters_and_input() {
        let shape = ConvShape {
            channels: 2,
            height: 3,
            width: 3,
        };
        let mut rng = seeded(604);
        let x = Matrix::randn(2, shape.dim(), 1.0, &mut rng);
        let w0 = Matrix::randn(2 * 4, 3, 0.5, &mut rng); // 2x2 kernel, 3 filters
        let b0 = Matrix::randn(1, 3, 0.1, &mut rng);
        // Hand-roll the conv graph with leaf weights so finite differences
        // reach them.
        let conv_shape = shape;
        check_gradients(&[x.clone(), w0, b0], 1e-2, 3e-2, |t, vars| {
            let mut ps = ParamSet::new();
            let mut rng2 = seeded(605);
            let conv = Conv2d::new(&mut ps, "c", conv_shape, 2, 3, &mut rng2);
            // Overwrite layer weights with the leaf values (structure
            // reuse; gradients flow to the leaves through gather/matmul).
            let b = t.value(vars[0]).rows();
            let cols = t.gather(
                vars[0],
                std::sync::Arc::new(conv.im2col_map(b)),
                b * conv.out_height() * conv.out_width(),
                2 * 4,
            );
            let r = t.matmul(cols, vars[1]);
            let r = t.add_row(r, vars[2]);
            let y = t.gather(
                r,
                std::sync::Arc::new(conv.regroup_map(b)),
                b,
                conv.out_dim(),
            );
            let sq = t.square(y);
            t.mean(sq)
        });
    }

    #[test]
    fn gradients_reach_filters_through_layer_api() {
        let shape = ConvShape {
            channels: 1,
            height: 4,
            width: 4,
        };
        let (conv, mut ps) = layer(606, shape, 3, 2);
        let mut rng = seeded(607);
        let x = Matrix::randn(3, shape.dim(), 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let vx = tape.leaf(x);
        let y = conv.forward(&mut tape, &mut binder, &ps, vx);
        let sq = tape.square(y);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        ps.zero_grads();
        binder.accumulate_into(&grads, &mut ps);
        assert!(ps.grad(conv.w).frobenius_norm() > 0.0);
        assert!(ps.grad(conv.b).frobenius_norm() > 0.0);
    }

    #[test]
    fn gather_maps_cached_per_batch_size() {
        let shape = ConvShape {
            channels: 2,
            height: 5,
            width: 5,
        };
        let (conv, _ps) = layer(609, shape, 3, 2);
        let (a1, a2) = conv.maps_for(4);
        let (b1, b2) = conv.maps_for(4);
        assert!(
            Arc::ptr_eq(&a1, &b1) && Arc::ptr_eq(&a2, &b2),
            "cache missed"
        );
        let (c1, _) = conv.maps_for(2);
        assert!(
            !Arc::ptr_eq(&a1, &c1),
            "stale map served for new batch size"
        );
        assert_eq!(c1.len(), 2 * conv.out_height() * conv.out_width() * 2 * 9);
    }

    /// Determinism contract (DESIGN.md §9): both gather maps are the same
    /// at every thread count. 27 filters over 3x8x8 inputs with a 3x3
    /// kernel give 972 indices per sample in each map, so 4,320 samples
    /// put each map past two `edsr_par::CUT`s and onto the pool (two
    /// chunks at 2 and 7 threads; three would need a 50 MB map).
    #[test]
    fn gather_maps_bit_identical_across_thread_counts() {
        let shape = ConvShape {
            channels: 3,
            height: 8,
            width: 8,
        };
        let (conv, _ps) = layer(610, shape, 3, 27);
        let b = 4320;
        assert!(b * 972 >= 2 * edsr_par::CUT);
        type Build = fn(&Conv2d, usize) -> Vec<usize>;
        for (name, build) in [
            ("im2col", Conv2d::im2col_map as Build),
            ("regroup", Conv2d::regroup_map),
        ] {
            let serial = edsr_par::with_threads(1, || build(&conv, b));
            assert_eq!(serial.len(), b * 972);
            for threads in [2usize, 7] {
                let before = edsr_par::handoffs();
                let par = edsr_par::with_threads(threads, || build(&conv, b));
                assert!(
                    edsr_par::pool_workers() == 0 || edsr_par::handoffs() > before,
                    "{name} map never reached the pool at {threads} threads"
                );
                assert!(serial == par, "{name} map differs at {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_panics() {
        let shape = ConvShape {
            channels: 1,
            height: 2,
            width: 2,
        };
        let _ = layer(608, shape, 3, 1);
    }
}
