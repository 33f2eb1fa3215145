//! Streaming mean/variance (Welford's algorithm).

/// Numerically stable running mean and variance.
///
/// ```
/// use rica_metrics::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert!((w.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation (Bessel-corrected; 0 if fewer than 2).
    pub fn sample_std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the confidence interval on the mean at critical
    /// value `z` (e.g. 1.96 for 95%): `z · s / √n` with the sample
    /// (Bessel-corrected) standard deviation.
    ///
    /// Returns `f64::INFINITY` with fewer than 2 observations — a cell
    /// that has not been measured twice has no defensible interval, and
    /// infinity composes correctly with "stop when the half-width is
    /// under the target" adaptive-stopping checks.
    pub fn ci_half_width(&self, z: f64) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        z * self.sample_std() / (self.n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_std(), 0.0);
        assert_eq!(w.sample_std(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.5, -2.0, 3.25, 10.0, 0.0, -7.5];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn ci_half_width_shrinks_as_root_n() {
        let mut w = Welford::new();
        assert_eq!(w.ci_half_width(1.96), f64::INFINITY);
        w.push(10.0);
        assert_eq!(w.ci_half_width(1.96), f64::INFINITY, "one observation has no interval");
        w.push(14.0);
        // n=2: s = 2·√2 ≈ 2.828…; hw = 1.96·s/√2 = 1.96·2 = 3.92.
        assert!((w.ci_half_width(1.96) - 3.92).abs() < 1e-12);
        // Identical further observations collapse the interval.
        let mut tight = Welford::new();
        for _ in 0..100 {
            tight.push(5.0);
        }
        assert_eq!(tight.ci_half_width(1.96), 0.0);
    }
}
