//! Per-link latency/bandwidth shaping configuration.
//!
//! The paper's WAN experiments (fig6–fig9) place validators in five AWS
//! regions and derive message delays from the inter-region round-trip
//! times of its Table II, which the simulator uses as
//! `moonshot_net::latency::aws`. The networked runtime shapes real sockets
//! the same way, though not yet with the same matrix (see
//! [`ShapeMatrix::table2`]): a [`ShapeMatrix`] gives every ordered peer
//! pair a one-way delay, an optional bandwidth cap, and a burst allowance,
//! and the transport's event loops enforce it **sender-side** — each outbound
//! frame is held in a per-link delay queue until `pop_time + delay` and
//! released through a token bucket. Sender-side shaping on the dialed
//! (write-only) connection shapes exactly one direction per matrix entry,
//! so an asymmetric matrix behaves asymmetrically.
//!
//! Shaping composes with the real network underneath: configured delays
//! add to loopback's ~0.05 ms, which is negligible against WAN values.

use std::time::Duration;

use moonshot_types::NodeId;

/// Shaping parameters for one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkShape {
    /// One-way propagation delay added to every frame.
    pub delay: Duration,
    /// Bandwidth cap in bytes/second; `0` = unlimited.
    pub rate_bps: u64,
    /// Token-bucket burst allowance in bytes (ignored when unlimited).
    pub burst_bytes: u64,
}

impl LinkShape {
    /// An unshaped link: zero delay, unlimited bandwidth.
    pub const UNSHAPED: LinkShape =
        LinkShape { delay: Duration::ZERO, rate_bps: 0, burst_bytes: 0 };

    /// Whether this link needs a shaper at all.
    pub fn is_shaped(&self) -> bool {
        self.delay > Duration::ZERO || self.rate_bps > 0
    }
}

/// One-way inter-region delays in milliseconds between ten globally spread
/// regions: Virginia, Ohio, California, Oregon, Frankfurt, Ireland, Mumbai,
/// Singapore, Sydney, São Paulo. This is not the paper's Table II, which
/// has five AWS regions (`moonshot_net::latency::aws`, the simulator's
/// matrix); it is a wider ten-region WAN with a zero diagonal.
const TABLE2_REGIONS: usize = 10;
const TABLE2_ONE_WAY_MS: [[u64; TABLE2_REGIONS]; TABLE2_REGIONS] = [
    [0, 6, 30, 33, 44, 33, 91, 106, 101, 57],
    [6, 0, 25, 35, 49, 38, 96, 111, 97, 63],
    [30, 25, 0, 11, 73, 66, 111, 85, 69, 96],
    [33, 35, 11, 0, 79, 62, 108, 82, 70, 91],
    [44, 49, 73, 79, 0, 12, 55, 117, 144, 102],
    [33, 38, 66, 62, 12, 0, 61, 87, 128, 92],
    [91, 96, 111, 108, 55, 61, 0, 28, 111, 151],
    [106, 111, 85, 82, 117, 87, 28, 0, 46, 163],
    [101, 97, 69, 70, 144, 128, 111, 46, 0, 156],
    [57, 63, 96, 91, 102, 92, 151, 163, 156, 0],
];

/// A dense n×n matrix of [`LinkShape`]s indexed by (sender, receiver).
///
/// The diagonal is irrelevant (nodes never dial themselves) but stored for
/// uniform indexing. Out-of-range node ids map to unshaped links, so a
/// matrix built for `n` nodes degrades gracefully if membership grows.
#[derive(Clone, Debug)]
pub struct ShapeMatrix {
    n: usize,
    links: Vec<LinkShape>,
}

impl ShapeMatrix {
    /// An all-unshaped matrix for `n` nodes.
    pub fn unshaped(n: usize) -> ShapeMatrix {
        ShapeMatrix { n, links: vec![LinkShape::UNSHAPED; n * n] }
    }

    /// Every ordered pair gets the same shape (loopback-style uniform
    /// delay); self-links stay unshaped.
    pub fn uniform(n: usize, shape: LinkShape) -> ShapeMatrix {
        let mut m = ShapeMatrix::unshaped(n);
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    m.links[from * n + to] = shape;
                }
            }
        }
        m
    }

    /// A ten-region WAN (not the paper's five-region Table II; see
    /// `TABLE2_ONE_WAY_MS`): nodes are assigned round-robin to the regions
    /// and every ordered pair gets the inter-region one-way delay, zero
    /// within a region. Delay-only — bandwidth is left uncapped, matching
    /// the paper's latency-dominated WAN setting. The name is kept because
    /// the benchmark's shaped workloads call it.
    pub fn table2(n: usize) -> ShapeMatrix {
        let mut m = ShapeMatrix::unshaped(n);
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let ms = TABLE2_ONE_WAY_MS[from % TABLE2_REGIONS][to % TABLE2_REGIONS];
                m.links[from * n + to] = LinkShape {
                    delay: Duration::from_millis(ms),
                    rate_bps: 0,
                    burst_bytes: 0,
                };
            }
        }
        m
    }

    /// Overrides one directed link.
    pub fn set(&mut self, from: NodeId, to: NodeId, shape: LinkShape) {
        let (f, t) = (from.0 as usize, to.0 as usize);
        if f < self.n && t < self.n {
            self.links[f * self.n + t] = shape;
        }
    }

    /// The shape of the directed link `from → to` (unshaped when either id
    /// is outside the matrix).
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkShape {
        let (f, t) = (from.0 as usize, to.0 as usize);
        if f < self.n && t < self.n {
            self.links[f * self.n + t]
        } else {
            LinkShape::UNSHAPED
        }
    }

    /// Number of nodes the matrix was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean one-way delay over all off-diagonal links — a sanity summary
    /// for logs and bench rows.
    pub fn mean_delay(&self) -> Duration {
        let mut sum = Duration::ZERO;
        let mut count = 0u32;
        for from in 0..self.n {
            for to in 0..self.n {
                if from != to {
                    sum += self.links[from * self.n + to].delay;
                    count += 1;
                }
            }
        }
        if count == 0 {
            Duration::ZERO
        } else {
            sum / count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_symmetric_zero_diagonal_and_nonzero_cross_region() {
        let m = ShapeMatrix::table2(20);
        for i in 0..20u16 {
            assert_eq!(m.link(NodeId(i), NodeId(i)).delay, Duration::ZERO);
            for j in 0..20u16 {
                assert_eq!(
                    m.link(NodeId(i), NodeId(j)).delay,
                    m.link(NodeId(j), NodeId(i)).delay,
                    "table2 delays are symmetric"
                );
            }
        }
        // Same region (round-robin stride 10): zero delay; different
        // regions: nonzero.
        assert_eq!(m.link(NodeId(0), NodeId(10)).delay, Duration::ZERO);
        assert!(m.link(NodeId(0), NodeId(7)).delay >= Duration::from_millis(28));
        assert!(m.mean_delay() > Duration::from_millis(30));
    }

    #[test]
    fn uniform_and_set_override() {
        let shape = LinkShape {
            delay: Duration::from_millis(5),
            rate_bps: 1_000_000,
            burst_bytes: 64 * 1024,
        };
        let mut m = ShapeMatrix::uniform(4, shape);
        assert_eq!(m.link(NodeId(1), NodeId(2)), shape);
        assert!(!m.link(NodeId(3), NodeId(3)).is_shaped());
        m.set(NodeId(1), NodeId(2), LinkShape::UNSHAPED);
        assert!(!m.link(NodeId(1), NodeId(2)).is_shaped());
        assert_eq!(m.link(NodeId(2), NodeId(1)), shape, "directed override");
        // Out-of-range ids degrade to unshaped.
        assert!(!m.link(NodeId(9), NodeId(0)).is_shaped());
    }
}
