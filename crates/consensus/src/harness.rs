//! A miniature deterministic scheduler for driving [`ConsensusProtocol`]
//! state machines directly — no network crate, no bandwidth model.
//!
//! Used by this crate's unit and property tests to exercise protocols under
//! controlled (including adversarial) message schedules: fixed or per-link
//! latencies, message drops via a filter, crashed nodes. The full-fidelity
//! WAN runs live in `moonshot-sim`; this harness is for protocol logic.

use std::collections::HashSet;

use moonshot_types::time::{EventQueue, SimDuration, SimTime};
use moonshot_types::{NodeId, View};

use crate::message::Message;
use crate::protocol::{CommittedBlock, ConsensusProtocol, Output, TimerToken};

/// Decides the fate of each message: `None` = drop, `Some(delay)` = deliver
/// after `delay`.
pub type LinkPolicy = Box<dyn FnMut(NodeId, NodeId, &Message, SimTime) -> Option<SimDuration>>;

/// What the harness has scheduled; ties fire in the order they were queued.
/// A message is boxed so the heap sifts small entries.
enum Pending {
    Deliver { from: NodeId, to: NodeId, msg: Box<Message> },
    Timer { node: NodeId, token: TimerToken },
}

/// A deterministic in-memory network of protocol instances.
pub struct LocalNet {
    nodes: Vec<Box<dyn ConsensusProtocol>>,
    crashed: HashSet<NodeId>,
    committed: Vec<Vec<CommittedBlock>>,
    queue: EventQueue<Pending>,
    policy: LinkPolicy,
    now: SimTime,
    started: bool,
}

impl std::fmt::Debug for LocalNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalNet")
            .field("n", &self.nodes.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl LocalNet {
    /// A network with a constant `latency` on every link.
    pub fn with_uniform_latency(
        nodes: Vec<Box<dyn ConsensusProtocol>>,
        latency: SimDuration,
    ) -> Self {
        Self::with_policy(nodes, Box::new(move |_, _, _, _| Some(latency)))
    }

    /// A network governed by an arbitrary link policy.
    pub fn with_policy(nodes: Vec<Box<dyn ConsensusProtocol>>, policy: LinkPolicy) -> Self {
        let n = nodes.len();
        LocalNet {
            nodes,
            crashed: HashSet::new(),
            committed: vec![Vec::new(); n],
            queue: EventQueue::new(),
            policy,
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the net has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Marks `node` crashed: it stops receiving and emitting.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The blocks committed by `node`, in commit order.
    pub fn committed(&self, node: NodeId) -> &[CommittedBlock] {
        &self.committed[node.as_usize()]
    }

    /// The current view of `node`.
    pub fn view_of(&self, node: NodeId) -> View {
        self.nodes[node.as_usize()].current_view()
    }

    fn apply(&mut self, node: NodeId, outputs: Vec<Output>) {
        for out in outputs {
            match out {
                Output::Send(to, msg) => {
                    if let Some(delay) = (self.policy)(node, to, &msg, self.now) {
                        let msg = Box::new(msg);
                        self.queue.push(self.now + delay, Pending::Deliver { from: node, to, msg });
                    }
                }
                Output::Multicast(msg) => {
                    for i in 0..self.nodes.len() {
                        let to = NodeId::from_index(i);
                        if let Some(delay) = (self.policy)(node, to, &msg, self.now) {
                            let msg = Box::new(msg.clone());
                            let pending = Pending::Deliver { from: node, to, msg };
                            self.queue.push(self.now + delay, pending);
                        }
                    }
                }
                Output::SetTimer { token, after } => {
                    self.queue.push(self.now + after, Pending::Timer { node, token });
                }
                Output::Commit(c) => self.committed[node.as_usize()].push(c),
            }
        }
    }

    fn start(&mut self) {
        self.started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if self.crashed.contains(&node) {
                continue;
            }
            let outs = self.nodes[i].start(SimTime::ZERO);
            self.apply(node, outs);
        }
    }

    /// Runs until the queue drains or `deadline` passes.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.start();
        }
        while let Some((at, pending)) = self.queue.pop_due(deadline) {
            self.now = at;
            match pending {
                Pending::Deliver { from, to, msg } => {
                    if !self.crashed.contains(&to) {
                        let outs = self.nodes[to.as_usize()].handle_message(from, *msg, at);
                        self.apply(to, outs);
                    }
                }
                Pending::Timer { node, token } => {
                    if !self.crashed.contains(&node) {
                        let outs = self.nodes[node.as_usize()].handle_timer(token, at);
                        self.apply(node, outs);
                    }
                }
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `duration` from the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }
}
