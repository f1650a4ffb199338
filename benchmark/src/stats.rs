//! The statistics the report and `compare` share. Pure functions over
//! plain numbers, so the unit tests below pin them without a cluster.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Nearest rank of percentile `p` (0..=1) among `n` samples: the least
/// count of samples holding at least `p` of them. (The tolerance keeps
/// `0.9 × 100` from rounding up to 91.)
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Whether `n` samples leave at least ten beyond percentile `p` (the
/// choosing-metrics rule for the highest percentile worth reporting).
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n >= rank(n, p) + 10
}

/// The highest percentile of the usual ladder that `n` samples support;
/// `None` when not even the median has ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// Quorum-commit time of one block: the time at which the `quorum`-th
/// distinct node committed it. `commits` holds `(node, time)` records in
/// any order and may repeat a node (a restarted node commits again); a
/// node counts once, at its earliest record.
pub fn quorum_commit_time(commits: &[(u16, u64)], quorum: usize) -> Option<u64> {
    let mut first: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    for &(node, at) in commits {
        first
            .entry(node)
            .and_modify(|t| *t = (*t).min(at))
            .or_insert(at);
    }
    let mut times: Vec<u64> = first.into_values().collect();
    times.sort_unstable();
    (quorum >= 1)
        .then(|| times.get(quorum - 1).copied())
        .flatten()
}

/// Transactions per second counted from complete commit lists:
/// `blocks` is `(quorum-commit time, transactions)` per block; a block
/// counts when its time falls in `[start, end)`.
pub fn count_goodput(blocks: &[(u64, u64)], start_us: u64, end_us: u64) -> f64 {
    let txs: u64 = blocks
        .iter()
        .filter(|(at, _)| (start_us..end_us).contains(at))
        .map(|(_, n)| n)
        .sum();
    txs as f64 * 1e6 / (end_us - start_us) as f64
}

/// Inter-commit gaps longer than `tau_us` that begin inside
/// `[down_from, down_until)`: one per dead-leader turn while a node is
/// down. `commit_times` is ascending.
pub fn outage_gaps(commit_times: &[u64], down_from: u64, down_until: u64, tau_us: u64) -> Vec<u64> {
    commit_times
        .windows(2)
        .filter(|w| (down_from..down_until).contains(&w[0]))
        .map(|w| w[1] - w[0])
        .filter(|&gap| gap > tau_us)
        .collect()
}

/// Spread between repeats as a share of their median: the distance
/// between the first and third quartile (the same rule as Python's
/// `statistics.quantiles(values, n=4)`, exclusive method) from four
/// values up, the range for two or three, 0 for one.
pub fn spread_share(values: &[f64]) -> f64 {
    let Some(m) = median(values) else { return 0.0 };
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let width = if v.len() < 4 {
        v[v.len() - 1] - v[0]
    } else {
        let q = |k: f64| {
            let pos = k * (v.len() + 1) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
            let frac = pos - lo as f64;
            v[lo - 1] + frac * (v[lo] - v[lo - 1])
        };
        q(3.0) - q(1.0)
    };
    (width / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert!(!percentile_supported(60, 0.9));
        assert!(percentile_supported(120, 0.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quorum_commit_time_from_out_of_order_records() {
        // n = 4, quorum 3. Records arrive merged from four rings in any
        // order; node 2 restarted and committed the block a second time.
        let recs = [(3, 900), (0, 400), (2, 1_500), (1, 700), (2, 650)];
        assert_eq!(quorum_commit_time(&recs, 3), Some(700));
        assert_eq!(quorum_commit_time(&recs, 4), Some(900));
        // Two distinct nodes never make a quorum of three, however many
        // records they left.
        assert_eq!(quorum_commit_time(&[(0, 1), (0, 2), (1, 3)], 3), None);
    }

    #[test]
    fn goodput_counts_blocks_by_quorum_time_not_by_sample() {
        // Window [1 s, 3 s): the blocks at 0.9 s and 3.0 s are outside.
        let blocks = [
            (900_000, 50),
            (1_000_000, 100),
            (2_999_999, 300),
            (3_000_000, 70),
        ];
        assert_eq!(count_goodput(&blocks, 1_000_000, 3_000_000), 200.0);
        assert_eq!(count_goodput(&[], 1_000_000, 3_000_000), 0.0);
    }

    #[test]
    fn outage_gaps_are_the_long_gaps_that_start_while_down() {
        // τ = 300. Down during [1_000, 3_000).
        let commits = [
            0, 500, 950, 1_000, 1_050, 1_600, 1_650, 2_200, 2_900, 3_400, 3_450, 4_000,
        ];
        // 950→1_000 short; 1_050→1_600 (550) and 1_650→2_200 (550) and
        // 2_200→2_900 (700) and 2_900→3_400 (500, begins while down) count;
        // 0→500 and 3_450→4_000 begin outside the down window.
        assert_eq!(
            outage_gaps(&commits, 1_000, 3_000, 300),
            vec![550, 550, 700, 500]
        );
        assert!(outage_gaps(&commits, 1_000, 3_000, 1_000).is_empty());
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread_share(&[4.0]), 0.0);
        assert!((spread_share(&[9.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
