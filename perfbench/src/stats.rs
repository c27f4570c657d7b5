//! Order statistics over latency samples.

/// Samples that must lie strictly above a reported percentile. A percentile
/// with fewer samples beyond it is set by a handful of outliers, so it is
/// refused rather than reported.
const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (`0 < p <= 100`): the
/// smallest sample with at least `p`% of all samples at or below it.
/// Refuses when fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(samples: &[f64], p: usize) -> Result<f64, String> {
    if p == 0 || p > 100 {
        return Err(format!("percentile {p} outside (0, 100]"));
    }
    let n = samples.len();
    // ceil(p·n / 100) in integers, so p99 of 1000 samples is rank 990 exactly.
    let rank = (p * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; needs {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The fewest samples for which [`percentile`] accepts `p`.
pub fn samples_needed(p: usize) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_ok())
        .expect("some n suffices")
}

/// The median, over consecutive blocks of `samples`, of each block's
/// [`percentile`]. A block holds the fewest samples the percentile accepts,
/// and at least 100; a trailing partial block is left out. A burst of
/// interference from other tenants of the machine then moves one block's
/// figure, not the run's. Refuses without one full block.
pub fn block_percentile(samples: &[f64], p: usize) -> Result<f64, String> {
    let block = samples_needed(p).max(100);
    let per_block = samples
        .chunks_exact(block)
        .map(|b| percentile(b, p))
        .collect::<Result<Vec<f64>, String>>()?;
    if per_block.is_empty() {
        return Err(format!(
            "p{p} needs a block of {block} samples, got {}",
            samples.len()
        ));
    }
    Ok(median(&per_block))
}

/// The median (mean of the two middle samples for an even count); 0 when
/// there are no samples. For small sample sets where [`percentile`]'s
/// refusal does not apply, such as per-pass set-up times.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_a_known_list() {
        // 1..=1000 shuffled: the p-th percentile is exactly 10·p.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        v.swap(3, 700);
        assert_eq!(percentile(&v, 50), Ok(500.0));
        assert_eq!(percentile(&v, 90), Ok(900.0));
        assert_eq!(percentile(&v, 99), Ok(990.0));
        assert_eq!(percentile(&[4.0; 20], 50), Ok(4.0));
    }

    #[test]
    fn refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&v, 99).is_err(),
            "999 samples leave 9 beyond p99"
        );
        assert!(percentile(&v[..99], 90).is_err());
        assert!(percentile(&v[..100], 90).is_ok());
        assert!(percentile(&[], 50).is_err());
        assert_eq!(samples_needed(99), 1000);
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
    }

    #[test]
    fn block_percentile_takes_the_median_block() {
        // Three blocks of 1000 whose p99s are 990, 1990 and 2990; a partial
        // fourth block is ignored.
        let v: Vec<f64> = (1..=3500).map(f64::from).collect();
        assert_eq!(block_percentile(&v, 99), Ok(1990.0));
        assert_eq!(block_percentile(&v[..1000], 99), Ok(990.0));
        assert!(block_percentile(&v[..999], 99).is_err());
        // p50 blocks hold 100 samples: medians 50, 150, 250.
        assert_eq!(block_percentile(&v[..300], 50), Ok(150.0));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
