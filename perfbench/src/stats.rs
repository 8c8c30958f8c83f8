//! Order statistics shared by every workload.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of a sample (nearest rank); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Equal parts a measured window is split into. Each end-to-end metric is
/// computed per part and reported as the median over the parts, so a few
/// seconds of interference from outside the process move at most one or two
/// parts and leave the reported value alone.
pub const PARTS: usize = 5;

/// Samples stamped with the time (seconds into the window) they belong to.
#[derive(Debug, Default)]
pub struct Series(Vec<(f64, f64)>);

impl Series {
    /// Adds `value`, belonging to time `t`.
    pub fn push(&mut self, t: f64, value: f64) {
        self.0.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median over the [`PARTS`] equal parts of a `window_s`-second
    /// window of `f(values, part_seconds)` applied to each part's samples.
    /// Samples past the window (a drain) belong to the last part.
    pub fn per_part(&self, window_s: f64, f: impl Fn(&[f64], f64) -> f64) -> f64 {
        let part_s = window_s / PARTS as f64;
        let mut parts = vec![Vec::new(); PARTS];
        for &(t, v) in &self.0 {
            parts[((t / part_s) as usize).min(PARTS - 1)].push(v);
        }
        median(&parts.iter().map(|p| f(p, part_s)).collect::<Vec<_>>())
    }

    /// Median over parts of the `q` quantile.
    pub fn quantile(&self, window_s: f64, q: f64) -> f64 {
        self.per_part(window_s, |v, _| quantile(v, q))
    }

    /// Median over parts of the mean.
    pub fn mean(&self, window_s: f64) -> f64 {
        self.per_part(window_s, |v, _| mean(v))
    }

    /// Median over parts of the per-second sum.
    pub fn rate(&self, window_s: f64) -> f64 {
        self.per_part(window_s, |v, s| v.iter().sum::<f64>() / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn per_part_medians_ignore_one_disturbed_part() {
        let mut s = Series::default();
        for i in 0..100 {
            let t = f64::from(i) / 10.0;
            s.push(t, if t < 2.0 { 50.0 } else { 1.0 });
        }
        assert_eq!(s.quantile(10.0, 0.9), 1.0);
        assert_eq!(s.rate(10.0), 10.0);
        s.push(99.0, 1.0);
        assert_eq!(
            s.len(),
            101,
            "a sample past the window lands in the last part"
        );
    }
}
