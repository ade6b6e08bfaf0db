//! Order statistics: medians, the quiet readings the gated metrics take,
//! and the supported-percentile rule.

/// Sorts a copy of `xs` ascending.
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (the mean of the two middle samples for even counts).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The `q`-quantile of `xs` by nearest rank (`0 < q <= 1`).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "quantile of no samples");
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Share of samples, counted from the fast end, at which a gated time is
/// read. A shared host slows in phases, from a fraction of a second to
/// minutes, that stretch every time measured in them by up to about 2x;
/// the fastest 1% of thousands of samples falls in the gaps between them.
/// A program that gets slower on every sample is slower in those too.
pub const QUIET: f64 = 0.01;

/// The quiet reading of a time or cost (lower is better): the [`QUIET`]
/// quantile.
#[must_use]
pub fn quiet_low(xs: &[f64]) -> f64 {
    quantile(xs, QUIET)
}

/// The quiet reading of a rate (higher is better): as many samples above
/// it as [`quiet_low`] leaves below.
#[must_use]
pub fn quiet_high(xs: &[f64]) -> f64 {
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    -quiet_low(&negated)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the highest percentile, at most `wanted`,
/// that leaves at least [`MIN_BEYOND`] of `n` samples strictly above it;
/// `None` when `n` is too small for any.
#[must_use]
pub fn supported_rank(n: usize, wanted: f64) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    let wanted_rank = ((n as f64 * wanted).ceil() as usize).max(1);
    Some(wanted_rank.min(n - MIN_BEYOND))
}

/// A tail read under the supported-percentile rule.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The value at the percentile.
    pub value: f64,
    /// The percentile actually read (below the one wanted when the sample
    /// is too small to support it).
    pub percentile: f64,
    /// Samples in the distribution.
    pub count: usize,
}

/// The tail of `xs` at `wanted`, or at the highest percentile the sample
/// supports; `None` for ten samples or fewer.
#[must_use]
pub fn tail(xs: &[f64], wanted: f64) -> Option<Tail> {
    let n = xs.len();
    let rank = supported_rank(n, wanted)?;
    let wanted_rank = (n as f64 * wanted).ceil() as usize;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: if rank == wanted_rank {
            wanted
        } else {
            rank as f64 / n as f64
        },
        count: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_rank(1000, 0.99), Some(990));
        assert_eq!(supported_rank(5000, 0.99), Some(4950));
        // 999 samples: rank 990 would leave 9 above, so fall back to the
        // rank that leaves exactly 10.
        assert_eq!(supported_rank(999, 0.99), Some(989));
        assert_eq!(supported_rank(500, 0.99), Some(490));
        assert_eq!(supported_rank(11, 0.99), Some(1));
        assert_eq!(supported_rank(10, 0.99), None);
        assert_eq!(supported_rank(0, 0.5), None);
        // A median is supported as soon as 10 samples lie above it.
        assert_eq!(supported_rank(20, 0.5), Some(10));
    }

    #[test]
    fn supported_tail_leaves_ten_samples_beyond() {
        for n in [11usize, 57, 500, 999, 1000, 1001, 4321] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&xs, 0.99).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            if n >= 1000 {
                assert_eq!(t.percentile, 0.99);
            } else {
                assert_eq!(beyond, MIN_BEYOND, "n={n}");
            }
        }
        assert!(tail(&[1.0; 10], 0.99).is_none());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_readings_skip_slow_phases() {
        // 400 samples: 300 in slow phases at 1.6x, 100 quiet with a little
        // jitter. The quiet reading stays in the quiet mode; the median
        // follows the slow phases.
        let mut xs: Vec<f64> = (0..300).map(|i| 6.4 + 0.001 * f64::from(i)).collect();
        xs.extend((0..100).map(|i| 4.0 + 0.001 * f64::from(i)));
        assert_eq!(quiet_low(&xs), 4.003);
        assert!(median(&xs) > 6.0);
        let rates: Vec<f64> = xs.iter().map(|x| 100.0 / x).collect();
        assert_eq!(quiet_high(&rates), 100.0 / 4.003);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.01), 1.0);
        assert_eq!(quiet_low(&[7.0]), 7.0);
    }
}
