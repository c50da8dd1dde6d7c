//! Order statistics over timing samples.
//!
//! Every timed stage of a run repeats the same deterministic work, so
//! its repetitions differ only by what the host adds to them: CPU time
//! the hypervisor steals, and neighbours contending for the shared
//! caches and memory. Both only ever add time. A run therefore reports
//! the fastest repetition of a stage ([`fastest`]; for a rate, the
//! [`highest`]), the estimator Chen and Revels recommend for noise of
//! this kind ("Robust benchmarking in noisy environments", 2016). A
//! slower program makes every repetition slower, its fastest included.

/// Smallest reading; 0 when empty.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest reading; 0 when empty.
pub fn highest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let cut = percentile(xs, p);
    xs.iter().filter(|&&x| x > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(beyond(&xs, 99.0), 10);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn extremes() {
        assert_eq!(fastest(&[1.1, 0.9, 3.0]), 0.9);
        assert_eq!(highest(&[1.1, 0.9, 3.0]), 3.0);
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(highest(&[]), 0.0);
    }
}
