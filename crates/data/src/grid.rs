//! Spatial grid geometry for the synthetic image-like data.
//!
//! Samples are flattened `height x width x channels` grids (channel-major:
//! all of channel 0's pixels, then channel 1's, …), small stand-ins for the
//! paper's 32×32 / 64×64 images. The geometry type lets augmentations
//! (crop, flip, blur) act spatially rather than on an opaque vector.

/// Shape of a flattened image-like sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Rows of the spatial grid.
    pub height: usize,
    /// Columns of the spatial grid.
    pub width: usize,
    /// Number of channels.
    pub channels: usize,
}

impl GridSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics on any zero dimension.
    pub fn new(height: usize, width: usize, channels: usize) -> Self {
        assert!(
            height > 0 && width > 0 && channels > 0,
            "GridSpec: zero dimension"
        );
        Self {
            height,
            width,
            channels,
        }
    }

    /// Flattened dimensionality.
    pub fn dim(&self) -> usize {
        self.height * self.width * self.channels
    }

    /// Flat index of `(channel, row, col)`.
    #[inline]
    pub fn index(&self, channel: usize, row: usize, col: usize) -> usize {
        debug_assert!(channel < self.channels && row < self.height && col < self.width);
        channel * self.height * self.width + row * self.width + col
    }

    /// Bilinear sample at fractional coordinates `(y, x)` within a channel
    /// plane of `data` (clamped to borders).
    pub fn bilinear(&self, data: &[f32], channel: usize, y: f32, x: f32) -> f32 {
        let plane = self.height * self.width;
        let (y, x) = (Tap::new(y, self.height), Tap::new(x, self.width));
        self.bilinear_taps(&data[channel * plane..], y, x)
    }

    /// [`bilinear`](Self::bilinear) in the channel plane that `plane`
    /// starts with, at source taps already resolved along each axis.
    pub(crate) fn bilinear_taps(&self, plane: &[f32], y: Tap, x: Tap) -> f32 {
        let (top, bottom) = (y.lo * self.width, y.hi * self.width);
        plane[top + x.lo] * y.w_lo * x.w_lo
            + plane[top + x.hi] * y.w_lo * x.w_hi
            + plane[bottom + x.lo] * y.w_hi * x.w_lo
            + plane[bottom + x.hi] * y.w_hi * x.w_hi
    }
}

/// One axis of a bilinear sample: the two neighbouring indices and their
/// weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tap {
    lo: usize,
    hi: usize,
    w_lo: f32,
    w_hi: f32,
}

impl Tap {
    /// Clamps `p` to an axis `n` long and splits it into floor and
    /// fraction.
    pub(crate) fn new(p: f32, n: usize) -> Self {
        let p = p.clamp(0.0, (n - 1) as f32);
        let lo = p.floor() as usize;
        let frac = p - lo as f32;
        Self {
            lo,
            hi: (lo + 1).min(n - 1),
            w_lo: 1.0 - frac,
            w_hi: frac,
        }
    }
}

/// Renders one flattened sample as ASCII art (one block per channel,
/// intensity mapped to ` .:-=+*#%@`) — handy for eyeballing synthetic
/// samples and augmentation effects in examples and debugging sessions.
pub fn render_ascii(sample: &[f32], grid: GridSpec) -> String {
    assert_eq!(
        sample.len(),
        grid.dim(),
        "render_ascii: sample/grid mismatch"
    );
    const RAMP: &[u8] = b" .:-=+*#%@";
    let lo = sample.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = sample.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-9);
    let mut out = String::new();
    for c in 0..grid.channels {
        out.push_str(&format!("channel {c}:\n"));
        for r in 0..grid.height {
            for col in 0..grid.width {
                let v = (sample[grid.index(c, r, col)] - lo) / span;
                let idx = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_and_index() {
        let g = GridSpec::new(4, 3, 2);
        assert_eq!(g.dim(), 24);
        assert_eq!(g.index(0, 0, 0), 0);
        assert_eq!(g.index(0, 1, 0), 3);
        assert_eq!(g.index(1, 0, 0), 12);
        assert_eq!(g.index(1, 3, 2), 23);
    }

    #[test]
    fn bilinear_at_grid_points_is_exact() {
        let g = GridSpec::new(2, 2, 1);
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(g.bilinear(&data, 0, 0.0, 0.0), 1.0);
        assert_eq!(g.bilinear(&data, 0, 0.0, 1.0), 2.0);
        assert_eq!(g.bilinear(&data, 0, 1.0, 0.0), 3.0);
        assert_eq!(g.bilinear(&data, 0, 1.0, 1.0), 4.0);
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let g = GridSpec::new(2, 2, 1);
        let data = [0.0, 2.0, 4.0, 6.0];
        assert_eq!(g.bilinear(&data, 0, 0.5, 0.5), 3.0);
    }

    #[test]
    fn bilinear_clamps_out_of_range() {
        let g = GridSpec::new(2, 2, 1);
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(g.bilinear(&data, 0, -5.0, -5.0), 1.0);
        assert_eq!(g.bilinear(&data, 0, 99.0, 99.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_panics() {
        let _ = GridSpec::new(0, 4, 1);
    }

    #[test]
    fn ascii_render_shape_and_extremes() {
        let g = GridSpec::new(2, 3, 1);
        let sample = [0.0, 0.5, 1.0, 1.0, 0.5, 0.0];
        let art = render_ascii(&sample, g);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 rows
        assert_eq!(lines[1].len(), 3);
        assert!(lines[1].starts_with(' '), "min maps to lightest glyph");
        assert!(lines[1].ends_with('@'), "max maps to darkest glyph");
    }

    #[test]
    fn ascii_render_constant_sample_is_uniform() {
        let g = GridSpec::new(2, 2, 1);
        let art = render_ascii(&[3.0; 4], g);
        let body: String = art.lines().skip(1).collect();
        let first = body.chars().next().unwrap();
        assert!(body.chars().all(|ch| ch == first));
    }
}
