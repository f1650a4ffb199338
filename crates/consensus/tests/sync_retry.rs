//! Regression test for the block-fetcher wedge.
//!
//! Scenario: node 3 loses every proposal *and* every `BlockResponse` sent to
//! it for the first second (votes, certificates and requests still flow, so
//! it keeps learning about certified blocks it doesn't have and keeps asking
//! for them — and every answer is lost). Then the link heals.
//!
//! The outstanding fetches are re-requested after the heal, the chain
//! reconnects and node 3 commits the same blocks as everyone else. (A
//! fetcher that asked once and never again left each lost response's block
//! id in its pending set forever, and node 3's commit log wedged.)

use moonshot_consensus::harness::{LinkPolicy, LocalNet};
use moonshot_consensus::{ConsensusProtocol, Message, NodeConfig, PipelinedMoonshot};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;

const HEAL: SimTime = SimTime(1_000_000);
const RUN: SimDuration = SimDuration::from_secs(5);

/// Drops proposals and block responses addressed to `victim` before `HEAL`;
/// everything else travels at a constant 5 ms.
fn lossy_policy(victim: NodeId) -> LinkPolicy {
    Box::new(move |_from, to, msg, now| {
        let starved = to == victim
            && now < HEAL
            && matches!(
                msg,
                Message::OptPropose { .. }
                    | Message::Propose { .. }
                    | Message::FbPropose { .. }
                    | Message::CompactPropose { .. }
                    | Message::BlockResponse { .. }
            );
        if starved {
            None
        } else {
            Some(SimDuration::from_millis(5))
        }
    })
}

fn run_starved() -> LocalNet {
    let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
        .map(|i| {
            let cfg = NodeConfig::simulated(
                NodeId::from_index(i),
                4,
                SimDuration::from_millis(50),
            );
            Box::new(PipelinedMoonshot::new(cfg)) as Box<dyn ConsensusProtocol>
        })
        .collect();
    let mut net = LocalNet::with_policy(nodes, lossy_policy(NodeId(3)));
    net.run_for(RUN);
    net
}

#[test]
fn retrying_fetcher_recovers_after_heal() {
    let net = run_starved();
    let reference = net.committed(NodeId(0));
    let caught_up = net.committed(NodeId(3));
    assert!(reference.len() >= 10, "healthy nodes committed {}", reference.len());
    assert!(
        caught_up.len() >= 10,
        "node 3 only committed {} blocks after the heal",
        caught_up.len()
    );
    // Same chain: node 3's commit log is a prefix-consistent view of node
    // 0's (both deliver in height order from genesis).
    for (a, b) in reference.iter().zip(caught_up.iter()) {
        assert_eq!(a.block.id(), b.block.id(), "chains diverged");
    }
}
