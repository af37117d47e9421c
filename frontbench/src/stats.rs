//! Order statistics for latency samples.

/// Samples that must lie beyond a percentile's rank before it is
/// reported: a p90 needs at least 100 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// Samples a `p`-th percentile needs before [`percentile`] reports it.
pub fn samples_needed(p: u32) -> usize {
    (1..).find(|&n| n >= rank(p, n) + MIN_BEYOND).expect("some sample count suffices")
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`): the smallest sample
/// with at least `p`% of all samples at or below it. `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!((1..100).contains(&p), "percentile {p} outside 1-99");
    let r = rank(p, samples.len());
    if samples.len() < r + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Most consecutive blocks [`blocked_percentile`] splits a run into.
pub const BLOCKS: usize = 5;

/// The median over consecutive blocks of `in_time_order` of each
/// block's `p`-th percentile, using as many blocks (up to [`BLOCKS`]) as
/// each still supports the percentile. A burst of machine noise that
/// spoils one block then moves the reported value little. `None` when
/// not even one block has the samples.
pub fn blocked_percentile(in_time_order: &[f64], p: u32) -> Option<f64> {
    let n = in_time_order.len();
    let blocks = (n / samples_needed(p)).min(BLOCKS);
    if blocks == 0 {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let block = &in_time_order[b * n / blocks..(b + 1) * n / blocks];
            percentile(block, p).expect("every block holds the samples a percentile needs")
        })
        .collect();
    Some(median(&per_block))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 50), Some(50.0));
        let ys: Vec<f64> = (1..=21).map(f64::from).collect();
        // rank ceil(0.5 · 21) = 11 → the 11th smallest sample.
        assert_eq!(percentile(&ys, 50), Some(11.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), None, "99 samples leave 9 beyond rank 90");
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(89.0));
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        assert_eq!(percentile(&xs[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_a_few() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn blocks_shrug_off_one_bad_stretch() {
        // 500 samples: five blocks of 100, one of them ten times slower.
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        xs[200..300].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(blocked_percentile(&xs, 90), Some(89.0));
        assert_eq!(percentile(&xs, 90), Some(490.0), "pooled, the bad block shows");
        // 250 samples support two p90 blocks; 99 support none.
        let ys: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(blocked_percentile(&ys, 90), Some((112.0 + 237.0) / 2.0));
        assert_eq!(blocked_percentile(&ys[..99], 90), None);
    }
}
