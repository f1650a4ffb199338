//! The no-repeat voting rule for digest payloads (`ChainState::refs_are_fresh`)
//! over `LocalNet`, for Pipelined Moonshot and Jolteon: a block that repeats
//! a batch ref of one of its uncommitted ancestors gets no vote and the
//! chain moves on without it; a block on a sibling fork may carry the same
//! ref, and the ref then commits exactly once.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use moonshot_consensus::harness::LocalNet;
use moonshot_consensus::{
    ConsensusProtocol, Jolteon, Message, NodeConfig, Output, PayloadSource, PipelinedMoonshot,
    PreVerified, TimerToken,
};
use moonshot_crypto::Digest;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{BatchRef, Block, BlockId, NodeId, Payload, View};

const N: usize = 4;
const LATENCY: SimDuration = SimDuration::from_millis(10);
const DELTA: SimDuration = SimDuration::from_millis(50);

fn batch(tag: u8) -> BatchRef {
    BatchRef { digest: Digest::hash(&[tag]), bytes: 1_000 }
}

type Build = fn(NodeConfig) -> Box<dyn ConsensusProtocol>;

fn pipelined(cfg: NodeConfig) -> Box<dyn ConsensusProtocol> {
    Box::new(PipelinedMoonshot::new(cfg))
}

fn jolteon(cfg: NodeConfig) -> Box<dyn ConsensusProtocol> {
    Box::new(Jolteon::new(cfg))
}

/// Node `i` of four, proposing `payloads[view]` when it leads `view` and an
/// empty block otherwise.
fn node(i: usize, build: Build, payloads: &[(u64, BatchRef)]) -> Box<dyn ConsensusProtocol> {
    let mut cfg = NodeConfig::simulated(NodeId::from_index(i), N, DELTA);
    let by_view: HashMap<u64, BatchRef> = payloads.iter().copied().collect();
    cfg.payloads = PayloadSource::Custom(Box::new(move |v| match by_view.get(&v.0) {
        Some(b) => Payload::batches(vec![*b]),
        None => Payload::empty(),
    }));
    build(cfg)
}

/// A leader that ignores the rule: every block it proposes in `view` goes
/// out carrying `payload` instead of what the honest machine inside chose.
struct Repeater {
    inner: Box<dyn ConsensusProtocol>,
    view: View,
    payload: Payload,
    /// Honest block id → forged block id (for compact proposals).
    forged: HashMap<BlockId, BlockId>,
}

impl Repeater {
    fn forge(&mut self, b: Block) -> Block {
        let f =
            Block::from_parts(b.view(), b.height(), b.parent_id(), b.proposer(), self.payload.clone());
        self.forged.insert(b.id(), f.id());
        f
    }

    fn rewrite(&mut self, outputs: Vec<Output>) -> Vec<Output> {
        outputs
            .into_iter()
            .map(|out| match out {
                Output::Multicast(Message::OptPropose { block, view }) if view == self.view => {
                    Output::Multicast(Message::OptPropose { block: self.forge(block), view })
                }
                Output::Multicast(Message::Propose { block, justify, view })
                    if view == self.view =>
                {
                    Output::Multicast(Message::Propose { block: self.forge(block), justify, view })
                }
                Output::Multicast(Message::CompactPropose { block_id, justify, view })
                    if view == self.view =>
                {
                    Output::Multicast(Message::CompactPropose {
                        block_id: self.forged[&block_id],
                        justify,
                        view,
                    })
                }
                out => out,
            })
            .collect()
    }
}

impl ConsensusProtocol for Repeater {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        let out = self.inner.start(now);
        self.rewrite(out)
    }
    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        let out = self.inner.handle_message(from, message, now);
        self.rewrite(out)
    }
    fn handle_preverified(&mut self, from: NodeId, m: PreVerified, now: SimTime) -> Vec<Output> {
        let out = self.inner.handle_preverified(from, m, now);
        self.rewrite(out)
    }
    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        let out = self.inner.handle_timer(token, now);
        self.rewrite(out)
    }
    fn current_view(&self) -> View {
        self.inner.current_view()
    }
    fn name(&self) -> &'static str {
        "repeater"
    }
}

/// `(view, block)` of every vote any node sent (once per recipient).
type Votes = Rc<RefCell<Vec<(View, BlockId)>>>;

/// A uniform-latency net that records votes and drops those `drop_votes`
/// selects.
fn net(nodes: Vec<Box<dyn ConsensusProtocol>>, drop_votes: fn(View) -> bool) -> (LocalNet, Votes) {
    let votes: Votes = Rc::default();
    let seen = votes.clone();
    let net = LocalNet::with_policy(
        nodes,
        Box::new(move |_, _, msg, _| {
            if let Message::Vote(sv) = msg {
                seen.borrow_mut().push((sv.vote.view, sv.vote.block_id));
                if drop_votes(sv.vote.view) {
                    return None;
                }
            }
            Some(LATENCY)
        }),
    );
    (net, votes)
}

/// The committed blocks of node 0 that carry `b`, as `(view, proposer)`.
fn commits_carrying(net: &LocalNet, b: BatchRef) -> Vec<(View, NodeId)> {
    net.committed(NodeId(0))
        .iter()
        .filter(|c| c.block.payload().batch_refs().is_some_and(|refs| refs.contains(&b)))
        .map(|c| (c.block.view(), c.block.proposer()))
        .collect()
}

/// Node 0's view-1 block carries batch 1 and is certified. Node 1 leads
/// view 2 and extends it with a block that carries batch 1 again: nobody
/// votes for it, the view times out, and the chain goes on from view 3 with
/// batch 1 committed once, in view 1's block.
fn a_block_repeating_its_parents_ref_gets_no_vote(build: Build) {
    let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..N)
        .map(|i| match i {
            0 => node(0, build, &[(1, batch(1))]),
            1 => Box::new(Repeater {
                inner: node(1, build, &[]),
                view: View(2),
                payload: Payload::batches(vec![batch(1)]),
                forged: HashMap::new(),
            }),
            i => node(i, build, &[(3, batch(3))]),
        })
        .collect();
    let (mut net, votes) = net(nodes, |_| false);
    net.run_for(SimDuration::from_secs(3));

    let votes = votes.borrow();
    assert!(votes.iter().any(|(v, _)| *v == View(1)), "view 1 must be voted normally");
    assert!(
        !votes.iter().any(|(v, _)| *v == View(2)),
        "a vote for the repeating block: {:?}",
        votes.iter().filter(|(v, _)| *v == View(2)).collect::<Vec<_>>()
    );
    assert_eq!(commits_carrying(&net, batch(1)), [(View(1), NodeId(0))]);
    assert_eq!(commits_carrying(&net, batch(3)), [(View(3), NodeId(2))]);
    assert!(net.committed(NodeId(0)).iter().all(|c| c.block.view() != View(2)));
}

/// Node 0's view-1 block carries batch 1 but is never certified (its votes
/// are lost). View 2 restarts from genesis, and node 2's view-3 block on
/// that fork carries batch 1 again: it is voted for and commits — the two
/// carriers are on sibling forks, and only one of them can commit.
fn a_sibling_fork_may_repeat_the_ref(build: Build) {
    let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..N)
        .map(|i| node(i, build, &[(1, batch(1)), (2, batch(2)), (3, batch(1))]))
        .collect();
    let (mut net, votes) = net(nodes, |v| v == View(1));
    net.run_for(SimDuration::from_secs(3));

    assert!(votes.borrow().iter().any(|(v, _)| *v == View(3)), "no vote in view 3");
    assert_eq!(commits_carrying(&net, batch(1)), [(View(3), NodeId(2))]);
    assert_eq!(commits_carrying(&net, batch(2)), [(View(2), NodeId(1))]);
}

#[test]
fn pipelined_refuses_a_repeat_on_the_same_chain() {
    a_block_repeating_its_parents_ref_gets_no_vote(pipelined);
}

#[test]
fn jolteon_refuses_a_repeat_on_the_same_chain() {
    a_block_repeating_its_parents_ref_gets_no_vote(jolteon);
}

#[test]
fn pipelined_votes_for_a_repeat_on_a_sibling_fork() {
    a_sibling_fork_may_repeat_the_ref(pipelined);
}

#[test]
fn jolteon_votes_for_a_repeat_on_a_sibling_fork() {
    a_sibling_fork_may_repeat_the_ref(jolteon);
}
