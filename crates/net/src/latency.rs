//! Propagation-latency models.
//!
//! A [`LatencyModel`] gives the one-way *propagation* delay between two
//! nodes. Size-dependent *transmission* delay (NIC serialization) is modelled
//! separately by the engine's [`crate::bandwidth::NicModel`]; together they
//! realise the paper's modified partially synchronous model where small
//! messages (votes) arrive within ρ and large messages (proposals) within β.

use moonshot_types::rng::DetRng;
use moonshot_types::NodeId;

use moonshot_types::time::SimDuration;

/// A one-way propagation delay model between node pairs.
pub trait LatencyModel: Send + Sync {
    /// Propagation delay from `src` to `dst`. `rng` supplies jitter.
    fn propagation(&self, src: NodeId, dst: NodeId, rng: &mut DetRng) -> SimDuration;

    /// An upper bound on propagation delay after GST, if known. Used by
    /// experiments to pick Δ.
    fn max_propagation(&self) -> SimDuration;
}

/// Uniform latency: every pair is `base` apart, with up to `jitter` added.
///
/// # Examples
///
/// ```
/// use moonshot_net::latency::{LatencyModel, UniformLatency};
/// use moonshot_net::time::SimDuration;
/// use moonshot_types::NodeId;
/// use moonshot_types::rng::DetRng;
///
/// let model = UniformLatency::new(SimDuration::from_millis(50), SimDuration::ZERO);
/// let mut rng = DetRng::seed_from_u64(1);
/// assert_eq!(
///     model.propagation(NodeId(0), NodeId(1), &mut rng),
///     SimDuration::from_millis(50)
/// );
/// ```
#[derive(Clone, Debug)]
pub struct UniformLatency {
    base: SimDuration,
    jitter: SimDuration,
}

impl UniformLatency {
    /// Creates a uniform model with `base` propagation and up to `jitter`
    /// extra, sampled uniformly.
    pub fn new(base: SimDuration, jitter: SimDuration) -> Self {
        UniformLatency { base, jitter }
    }
}

impl LatencyModel for UniformLatency {
    fn propagation(&self, _src: NodeId, _dst: NodeId, rng: &mut DetRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            self.base
        } else {
            self.base + SimDuration(rng.gen_range_inclusive(0, self.jitter.0))
        }
    }

    fn max_propagation(&self) -> SimDuration {
        self.base + self.jitter
    }
}

/// Latency defined by a region-to-region matrix, with nodes assigned to
/// regions — the shape of the paper's 5-region AWS deployment.
#[derive(Clone, Debug)]
pub struct MatrixLatency {
    /// `matrix[a][b]` = one-way propagation from region `a` to region `b`.
    matrix: Vec<Vec<SimDuration>>,
    /// Region index of each node.
    assignment: Vec<usize>,
    /// Multiplicative jitter bound, in percent (e.g. 10 → up to +10%).
    jitter_pct: u64,
}

impl MatrixLatency {
    /// Builds a matrix model. `assignment[i]` is the region of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or an assignment is out of range.
    pub fn new(matrix: Vec<Vec<SimDuration>>, assignment: Vec<usize>, jitter_pct: u64) -> Self {
        let regions = matrix.len();
        for row in &matrix {
            assert_eq!(row.len(), regions, "latency matrix must be square");
        }
        for &r in &assignment {
            assert!(r < regions, "node assigned to unknown region {r}");
        }
        MatrixLatency { matrix, assignment, jitter_pct }
    }

    /// Assigns `n` nodes round-robin across the regions — the paper
    /// "distributed the nodes evenly across" its five regions.
    pub fn round_robin(matrix: Vec<Vec<SimDuration>>, n: usize, jitter_pct: u64) -> Self {
        let regions = matrix.len();
        let assignment = (0..n).map(|i| i % regions).collect();
        Self::new(matrix, assignment, jitter_pct)
    }

    /// The region index of `node`.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.assignment[node.as_usize()]
    }
}

impl LatencyModel for MatrixLatency {
    fn propagation(&self, src: NodeId, dst: NodeId, rng: &mut DetRng) -> SimDuration {
        let base = self.matrix[self.region_of(src)][self.region_of(dst)];
        if self.jitter_pct == 0 {
            base
        } else {
            let extra = rng.gen_range_inclusive(0, self.jitter_pct);
            SimDuration(base.0 + base.0 * extra / 100)
        }
    }

    fn max_propagation(&self) -> SimDuration {
        let max = self
            .matrix
            .iter()
            .flat_map(|row| row.iter())
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        SimDuration(max.0 + max.0 * self.jitter_pct / 100)
    }
}

/// The paper's Table II: observed 90th-percentile round-trip latencies (ms)
/// between the five AWS regions used in the evaluation.
pub mod aws {
    use super::MatrixLatency;
    use moonshot_types::time::SimDuration;

    /// Region names in matrix order.
    pub const REGIONS: [&str; 5] = [
        "us-east-1",
        "us-west-1",
        "eu-north-1",
        "ap-northeast-1",
        "ap-southeast-2",
    ];

    /// Round-trip latencies in milliseconds from Table II of the paper
    /// (row = source, column = destination).
    pub const TABLE_II_RTT_MS: [[f64; 5]; 5] = [
        [5.23, 61.87, 113.78, 167.60, 197.42],
        [62.88, 3.69, 172.17, 109.89, 141.54],
        [114.09, 173.31, 5.48, 248.67, 271.68],
        [168.04, 109.94, 251.63, 5.99, 111.67],
        [199.54, 146.06, 272.31, 112.11, 4.53],
    ];

    /// The Table II matrix as *one-way* propagation delays (RTT / 2).
    pub fn one_way_matrix() -> Vec<Vec<SimDuration>> {
        TABLE_II_RTT_MS
            .iter()
            .map(|row| row.iter().map(|&ms| SimDuration::from_millis_f64(ms / 2.0)).collect())
            .collect()
    }

    /// A [`MatrixLatency`] for `n` nodes spread evenly across the five
    /// regions, with `jitter_pct` percent multiplicative jitter.
    pub fn wan(n: usize, jitter_pct: u64) -> MatrixLatency {
        MatrixLatency::round_robin(one_way_matrix(), n, jitter_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_no_jitter_is_constant() {
        let m = UniformLatency::new(SimDuration::from_millis(10), SimDuration::ZERO);
        let mut rng = DetRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                m.propagation(NodeId(0), NodeId(1), &mut rng),
                SimDuration::from_millis(10)
            );
        }
        assert_eq!(m.max_propagation(), SimDuration::from_millis(10));
    }

    #[test]
    fn uniform_jitter_bounded() {
        let m = UniformLatency::new(SimDuration::from_millis(10), SimDuration::from_millis(5));
        let mut rng = DetRng::seed_from_u64(0);
        for _ in 0..100 {
            let d = m.propagation(NodeId(0), NodeId(1), &mut rng);
            assert!(d >= SimDuration::from_millis(10));
            assert!(d <= SimDuration::from_millis(15));
        }
    }

    #[test]
    fn aws_matrix_shape() {
        let m = aws::one_way_matrix();
        assert_eq!(m.len(), 5);
        // Intra-region is fast, cross-continent is slow.
        assert!(m[0][0] < SimDuration::from_millis(5));
        assert!(m[2][4] > SimDuration::from_millis(100));
    }

    #[test]
    fn round_robin_assignment_even() {
        let wan = aws::wan(10, 0);
        let mut counts = [0usize; 5];
        for i in 0..10 {
            counts[wan.region_of(NodeId(i))] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2, 2]);
    }

    #[test]
    fn matrix_propagation_uses_regions() {
        let wan = aws::wan(10, 0);
        let mut rng = DetRng::seed_from_u64(0);
        // Nodes 0 and 5 are both us-east-1 under round-robin of 10 across 5.
        let same = wan.propagation(NodeId(0), NodeId(5), &mut rng);
        // Node 2 is eu-north-1, node 4 is ap-southeast-2: slowest pair.
        let far = wan.propagation(NodeId(2), NodeId(4), &mut rng);
        assert!(same < SimDuration::from_millis(5));
        assert!(far > SimDuration::from_millis(130));
    }

    #[test]
    fn matrix_max_propagation_covers_all_pairs() {
        let wan = aws::wan(10, 0);
        let mut rng = DetRng::seed_from_u64(0);
        let max = wan.max_propagation();
        for a in 0..10u16 {
            for b in 0..10u16 {
                assert!(wan.propagation(NodeId(a), NodeId(b), &mut rng) <= max);
            }
        }
    }

    #[test]
    fn matrix_jitter_multiplicative() {
        let wan = aws::wan(5, 10);
        let mut rng = DetRng::seed_from_u64(7);
        let base = aws::one_way_matrix()[2][4];
        for _ in 0..100 {
            let d = wan.propagation(NodeId(2), NodeId(4), &mut rng);
            assert!(d >= base);
            assert!(d.0 <= base.0 + base.0 / 10);
        }
    }

    #[test]
    #[should_panic(expected = "latency matrix must be square")]
    fn non_square_matrix_panics() {
        let _ = MatrixLatency::new(vec![vec![SimDuration::ZERO], vec![]], vec![0], 0);
    }
}
