//! Order statistics with their sample counts.

/// A nearest-rank percentile together with how many samples it rests
/// on and how many lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the nearest rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `samples`, or `None`
/// when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median of `samples` (mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The arithmetic mean, or `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
