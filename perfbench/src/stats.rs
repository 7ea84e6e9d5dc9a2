//! Percentiles that carry their sample count, and the small order
//! statistics the report needs.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The percentile asked for, in [0, 100].
    pub p: f64,
    /// The value, `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it (the percentile is refused, not printed).
    pub value: Option<f64>,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Pct {
    /// The value, or 0 for a refused percentile (the report flags it).
    pub fn or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value {
            Some(v) => write!(f, "p{}={v:.1} (n={})", self.p, self.n),
            None => write!(
                f,
                "p{}=refused (n={}, {} beyond < {MIN_BEYOND})",
                self.p, self.n, self.beyond
            ),
        }
    }
}

/// Unsorted samples; percentiles sort a copy on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`% of
    /// the set at or below it.
    pub fn pct(&self, p: f64) -> Pct {
        let n = self.0.len();
        if n == 0 {
            return Pct {
                p,
                value: None,
                n,
                beyond: 0,
            };
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n - rank;
        // The median is always reported; tails need samples beyond them.
        let value = (p <= 50.0 || beyond >= MIN_BEYOND).then(|| sorted[rank - 1]);
        Pct {
            p,
            value,
            n,
            beyond,
        }
    }

    /// The median (0 for an empty set).
    pub fn median(&self) -> f64 {
        self.pct(50.0).or_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_on_unsorted_input() {
        let s = samples(100);
        assert_eq!(s.pct(50.0).value, Some(50.0));
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.pct(90.0).value, Some(90.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short = samples(999).pct(99.0);
        assert_eq!(short.value, None);
        assert_eq!((short.n, short.beyond), (999, 9));
        assert!(short.to_string().contains("refused"));
        let enough = samples(1000).pct(99.0);
        assert_eq!(enough.value, Some(990.0));
        assert_eq!(enough.beyond, 10);
    }

    #[test]
    fn empty_set_reports_nothing() {
        assert_eq!(Samples::default().pct(50.0).value, None);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
