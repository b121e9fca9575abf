//! Aggregation over repeated randomized runs (Poisson experiments average
//! several seeds; the summary carries mean and dispersion).

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let std_dev = if n >= 2 {
            let ss: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
            (ss / (n as f64 - 1.0)).sqrt()
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Summary::of(&[3.0, 3.0, 3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - 1.2909944487358056).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 4.0));
    }

    #[test]
    fn singleton() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }
}
