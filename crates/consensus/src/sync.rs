//! Block synchronisation: fetching blocks a node learns about through
//! certificates but never received as proposals.
//!
//! The paper assumes reliable links, under which every proposal eventually
//! arrives. A deployment cannot: a node that missed a proposal (pre-GST
//! loss, a partition) would hold certificates for blocks it cannot connect
//! and its commit log would wedge at the gap. The protocols therefore issue
//! [`crate::message::Message::BlockRequest`]s for certified-but-missing
//! blocks — to the block's proposer (who certainly produced it) and to the
//! peer that showed us the certificate — and serve requests from their own
//! tree.
//!
//! Requests themselves travel over the same lossy network, so the fetcher
//! retries: every outstanding fetch carries a deadline, and an armed
//! [`TimerToken::FetchTimer`] re-requests expired fetches from peers not yet
//! tried, with exponential backoff. Entries are cleared on fulfilment; after
//! [`RetryPolicy::max_attempts`] retry rounds an entry is abandoned, and the
//! next certificate referencing the block starts a fresh cycle.
//!
//! Batches named by a proposal but missing from the local store are fetched
//! the same way ([`BatchFetcher`]); one retry machine serves both.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use moonshot_crypto::Digest;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{Block, BlockId, NodeId, View};

use crate::message::Message;
use crate::protocol::{LocalBlockSource, Output, TimerToken};

/// Retry behaviour for outstanding fetches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for the first attempt. [`SimDuration::ZERO`] means "derive
    /// from Δ at protocol construction" (resolved to `2Δ`, one round trip).
    pub timeout: SimDuration,
    /// Retry rounds after the initial request before the fetch is abandoned.
    pub max_attempts: u32,
    /// Peers contacted per retry round.
    pub fanout: usize,
}

impl RetryPolicy {
    /// The default: deadline `2Δ` (resolved at construction), doubling per
    /// round, up to 6 retry rounds of 2 peers each.
    pub fn auto() -> Self {
        RetryPolicy { timeout: SimDuration::ZERO, max_attempts: 6, fanout: 2 }
    }

    /// Resolves an unset (`ZERO`) timeout to `2Δ`, one request/response
    /// round trip under the known post-GST delay bound.
    pub fn resolve(mut self, delta: SimDuration) -> Self {
        if self.timeout == SimDuration::ZERO {
            self.timeout = delta * 2;
        }
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::auto()
    }
}

/// One outstanding fetch.
#[derive(Clone, Debug)]
struct PendingFetch {
    /// Retry rounds already spent on this key.
    attempts: u32,
    /// When the current attempt expires.
    deadline: SimTime,
    /// Peers already asked (cleared when everyone has been tried).
    tried: HashSet<NodeId>,
    /// Round-robin scan position for picking the next peers.
    cursor: usize,
}

/// What one call into the retry machine wants done: `(peer, key)` requests
/// to send, and a deadline timer to arm no later than that far from now.
type Round<K> = (Vec<(NodeId, K)>, Option<SimDuration>);

/// The retry machine behind [`BlockFetcher`] and [`BatchFetcher`]: dedup
/// while outstanding, deadline per entry, untried peers first, exponential
/// backoff, abandonment after [`RetryPolicy::max_attempts`] rounds.
#[derive(Clone, Debug)]
struct Retrier<K> {
    me: NodeId,
    n: usize,
    policy: RetryPolicy,
    /// `BTreeMap` so retry emission order is deterministic.
    pending: BTreeMap<K, PendingFetch>,
}

impl<K: Ord + Copy> Retrier<K> {
    fn new(me: NodeId, n: usize, policy: RetryPolicy) -> Self {
        Retrier { me, n, policy, pending: BTreeMap::new() }
    }

    /// Starts a fetch for `key` unless one is outstanding: asks each
    /// distinct peer in `hints` (skipping `me`), or — when every hint is
    /// `me` — up to [`RetryPolicy::fanout`] round-robin peers right away
    /// instead of burning a whole retry deadline first.
    ///
    /// With `grace` nobody is asked yet: the entry waits half the round-trip
    /// deadline, and only past that does the first retry round go out,
    /// starting with the first hint.
    fn request(
        &mut self,
        key: K,
        hints: impl IntoIterator<Item = NodeId>,
        now: SimTime,
        grace: bool,
    ) -> Round<K> {
        if self.pending.contains_key(&key) {
            return (Vec::new(), None);
        }
        let mut entry = PendingFetch {
            attempts: 0,
            deadline: now + self.policy.timeout,
            tried: HashSet::new(),
            cursor: self.me.as_usize() + 1,
        };
        let mut hints = hints.into_iter().peekable();
        if let (true, Some(first)) = (grace, hints.peek()) {
            let wait = SimDuration(self.policy.timeout.0 / 2);
            entry.deadline = now + wait;
            entry.cursor = first.as_usize();
            self.pending.insert(key, entry);
            return (Vec::new(), Some(wait));
        }
        let mut requests: Vec<(NodeId, K)> = hints
            .filter(|hint| *hint != self.me && entry.tried.insert(*hint))
            .map(|hint| (hint, key))
            .collect();
        if requests.is_empty() {
            let targets = pick_targets(self.me, self.n, self.policy.fanout, &mut entry);
            requests.extend(targets.into_iter().map(|t| (t, key)));
        }
        self.pending.insert(key, entry);
        (requests, Some(self.policy.timeout))
    }

    /// Handles an expired deadline timer: re-requests every overdue fetch
    /// from up to [`RetryPolicy::fanout`] peers not yet tried (rotating
    /// round-robin; once everyone has been asked the tried set resets),
    /// doubles its deadline, and abandons it after
    /// [`RetryPolicy::max_attempts`] rounds. Re-arms while anything stays
    /// outstanding. Stale fires (nothing overdue) are cheap no-ops.
    fn on_timer(&mut self, now: SimTime) -> Round<K> {
        let mut requests = Vec::new();
        let overdue: Vec<K> =
            self.pending.iter().filter(|(_, p)| p.deadline <= now).map(|(k, _)| *k).collect();
        for key in overdue {
            let Some(p) = self.pending.get_mut(&key) else { continue };
            if p.attempts >= self.policy.max_attempts {
                // Abandon: the next mention of this key restarts the cycle
                // with a fresh entry.
                self.pending.remove(&key);
                continue;
            }
            p.attempts += 1;
            // Exponential backoff, capped so the shift cannot overflow.
            let exp = p.attempts.min(16);
            let backoff = SimDuration(self.policy.timeout.0.saturating_mul(1u64 << exp));
            p.deadline = now + backoff;
            let targets = pick_targets(self.me, self.n, self.policy.fanout, p);
            requests.extend(targets.into_iter().map(|t| (t, key)));
        }
        let next = self.pending.values().map(|p| p.deadline).min();
        (requests, next.map(|at| at.since(now).max(SimDuration(1))))
    }
}

/// Picks up to `fanout` peers for the next retry round, preferring peers
/// not yet tried, scanning round-robin from the entry's cursor.
fn pick_targets(me: NodeId, n: usize, fanout: usize, p: &mut PendingFetch) -> Vec<NodeId> {
    let mut picked = Vec::new();
    if n <= 1 {
        return picked;
    }
    for pass in 0..2 {
        if pass == 1 {
            if !picked.is_empty() {
                break;
            }
            // Everyone has been tried: start a fresh rotation.
            p.tried.clear();
        }
        for step in 0..n {
            if picked.len() >= fanout {
                break;
            }
            let cand = NodeId::from_index((p.cursor + step) % n);
            if cand == me || p.tried.contains(&cand) || picked.contains(&cand) {
                continue;
            }
            picked.push(cand);
        }
    }
    for t in &picked {
        p.tried.insert(*t);
    }
    p.cursor = (p.cursor + picked.len().max(1)) % n;
    picked
}

/// Tracks outstanding block fetches, deduplicates requests, and retries
/// expired ones.
#[derive(Clone, Debug)]
pub struct BlockFetcher {
    retrier: Retrier<BlockId>,
    /// Disk-first hint path: a durable blockstore consulted before dialing
    /// peers, so a restarted node never refetches blocks it already holds.
    local: Option<Arc<dyn LocalBlockSource>>,
}

impl BlockFetcher {
    /// A fetcher for node `me` of `n`, with `policy` already resolved
    /// against Δ (see [`RetryPolicy::resolve`]).
    pub fn new(me: NodeId, n: usize, policy: RetryPolicy) -> Self {
        BlockFetcher { retrier: Retrier::new(me, n, policy), local: None }
    }

    /// Installs a local block source (the persistent blockstore). Once set,
    /// [`BlockFetcher::request`] serves hits from disk as a self-addressed
    /// [`Message::BlockResponse`] instead of emitting network requests.
    pub fn set_local_source(&mut self, src: Arc<dyn LocalBlockSource>) {
        self.local = Some(src);
    }

    /// Emits block requests for `block_id` to each distinct peer in `hints`
    /// (skipping `me`) the first time it is asked for this block, and arms a
    /// retry deadline. If every hint is `me` (a recovering node refetching a
    /// block its previous incarnation proposed), up to
    /// [`RetryPolicy::fanout`] round-robin peers are asked instead. Repeat
    /// calls while the fetch is outstanding are suppressed.
    pub fn request(
        &mut self,
        block_id: BlockId,
        hints: impl IntoIterator<Item = NodeId>,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        if self.is_pending(block_id) {
            return;
        }
        if let Some(block) = self.local.as_ref().and_then(|src| src.local_block(block_id)) {
            // Disk hit: self-deliver the block through the normal response
            // path (the driver loops Send-to-self back in as a pre-verified
            // message). No pending entry, no retry timer, zero network
            // traffic.
            out.push(Output::Send(self.retrier.me, Message::BlockResponse { block }));
            return;
        }
        emit(self.retrier.request(block_id, hints, now, false), out);
    }

    /// Marks a block as no longer outstanding (it arrived).
    pub fn fulfilled(&mut self, block_id: BlockId) {
        self.retrier.pending.remove(&block_id);
    }

    /// Handles an expired [`TimerToken::FetchTimer`]: retries overdue
    /// fetches, abandons exhausted ones, and re-arms the timer while
    /// anything stays outstanding.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<Output>) {
        emit(self.retrier.on_timer(now), out);
    }

    /// Number of outstanding requests.
    pub fn outstanding(&self) -> usize {
        self.retrier.pending.len()
    }

    /// Whether `block_id` is currently being fetched.
    pub fn is_pending(&self, block_id: BlockId) -> bool {
        self.retrier.pending.contains_key(&block_id)
    }
}

/// A block-fetch round as protocol outputs.
fn emit((requests, rearm): Round<BlockId>, out: &mut Vec<Output>) {
    for (to, block_id) in requests {
        out.push(Output::Send(to, Message::BlockRequest { block_id }));
    }
    if let Some(after) = rearm {
        out.push(Output::SetTimer { token: TimerToken::FetchTimer, after });
    }
}

/// What a [`BatchFetcher`] call wants done: `BatchRequest` frames to send
/// and, if `rearm` is set, a [`TimerToken::BatchFetchTimer`] no later than
/// that far in the future.
///
/// Batches live on the dissemination plane, *below* the consensus message
/// enum — their requests are raw wire frames the driver sends directly —
/// so the batch fetcher returns this plan instead of [`Output`]s.
#[derive(Clone, Debug, Default)]
pub struct BatchFetchPlan {
    /// `(peer, digest)` pairs to send as `BatchRequest` frames.
    pub requests: Vec<(NodeId, Digest)>,
    /// Arm a [`TimerToken::BatchFetchTimer`] within this duration.
    pub rearm: Option<SimDuration>,
}

impl BatchFetchPlan {
    /// Whether the plan asks for nothing.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.rearm.is_none()
    }
}

impl From<Round<Digest>> for BatchFetchPlan {
    fn from((requests, rearm): Round<Digest>) -> Self {
        BatchFetchPlan { requests, rearm }
    }
}

/// Tracks outstanding **batch** fetches, with the same
/// dedup/retry/backoff/abandon behaviour as [`BlockFetcher`].
///
/// A voter that receives a proposal referencing batches it cannot resolve
/// locally asks the proposer (who certainly holds the bytes: it sealed or
/// at least referenced them) and falls back to round-robin peers — any
/// honest node that voted for the proposal must hold them too. A leader
/// proposes every batch it holds, so the sealer's push to this voter is
/// normally still on its way: the first request waits Δ for it. Entries
/// are cleared when the store resolves the digest; an abandoned entry
/// restarts the next time a proposal or commit needs the digest.
#[derive(Clone, Debug)]
pub struct BatchFetcher {
    retrier: Retrier<Digest>,
}

impl BatchFetcher {
    /// A fetcher for node `me` of `n`, with `policy` already resolved
    /// against Δ (see [`RetryPolicy::resolve`]).
    pub fn new(me: NodeId, n: usize, policy: RetryPolicy) -> Self {
        BatchFetcher { retrier: Retrier::new(me, n, policy) }
    }

    /// Starts (or no-ops on an already outstanding) fetch for `digest`,
    /// asking each distinct non-self peer in `hints` — falling back to
    /// round-robin fanout when every hint is `me`.
    ///
    /// With `push_in_flight` (a fresh proposal named the batch, not a
    /// synced block) nobody is asked yet: the push left its sealer before
    /// the proposer could have held the batch, so under the delay bound it
    /// is here within Δ — half the round-trip deadline. Only past that does
    /// the first retry round go out, starting with the first hint.
    pub fn request(
        &mut self,
        digest: Digest,
        hints: impl IntoIterator<Item = NodeId>,
        now: SimTime,
        push_in_flight: bool,
    ) -> BatchFetchPlan {
        self.retrier.request(digest, hints, now, push_in_flight).into()
    }

    /// Marks a batch as no longer outstanding (the store resolved it).
    pub fn fulfilled(&mut self, digest: &Digest) {
        self.retrier.pending.remove(digest);
    }

    /// Handles an expired [`TimerToken::BatchFetchTimer`]: re-requests
    /// overdue batches from untried peers with exponential backoff,
    /// abandoning each after [`RetryPolicy::max_attempts`] rounds, and
    /// re-arms while anything stays outstanding.
    pub fn on_timer(&mut self, now: SimTime) -> BatchFetchPlan {
        self.retrier.on_timer(now).into()
    }

    /// Number of outstanding batch fetches.
    pub fn outstanding(&self) -> usize {
        self.retrier.pending.len()
    }

    /// Whether `digest` is currently being fetched.
    pub fn is_pending(&self, digest: &Digest) -> bool {
        self.retrier.pending.contains_key(digest)
    }
}

/// Serves a block request from a tree: `Some(response)` if the block is
/// known.
pub fn serve_request(
    tree: &crate::blocktree::BlockTree,
    requester: NodeId,
    block_id: BlockId,
) -> Option<Output> {
    tree.get(block_id)
        .map(|block| Output::Send(requester, Message::BlockResponse { block: block.clone() }))
}

/// Validates a block received through sync: structural validity plus the
/// proposer matching the view's leader under `leader_of`.
pub fn validate_response(block: &Block, leader_of: impl Fn(View) -> NodeId) -> bool {
    block.header_is_valid() && (block.is_genesis() || block.proposer() == leader_of(block.view()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocktree::BlockTree;
    use moonshot_types::Payload;

    const T: SimDuration = SimDuration(1_000);

    fn fetcher(n: usize) -> BlockFetcher {
        let policy = RetryPolicy { timeout: T, max_attempts: 3, fanout: 2 };
        BlockFetcher::new(NodeId(0), n, policy)
    }

    fn requests(out: &[Output]) -> Vec<NodeId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send(to, Message::BlockRequest { .. }) => Some(*to),
                _ => None,
            })
            .collect()
    }

    fn timers(out: &[Output]) -> usize {
        out.iter()
            .filter(|o| matches!(o, Output::SetTimer { token: TimerToken::FetchTimer, .. }))
            .count()
    }

    #[test]
    fn request_deduplicates_while_outstanding() {
        let mut f = fetcher(4);
        let id = Block::genesis().id();
        let mut out = Vec::new();
        f.request(id, [NodeId(1), NodeId(2)], SimTime::ZERO, &mut out);
        assert_eq!(requests(&out).len(), 2);
        assert_eq!(timers(&out), 1);
        f.request(id, [NodeId(3)], SimTime::ZERO, &mut out);
        assert_eq!(requests(&out).len(), 2, "second request suppressed");
        assert_eq!(f.outstanding(), 1);
        assert!(f.is_pending(id));
    }

    #[test]
    fn request_skips_self_and_duplicate_hints() {
        let id = Block::genesis().id();
        let mut out = Vec::new();
        let mut f = BlockFetcher::new(NodeId(1), 4, RetryPolicy::auto().resolve(T));
        f.request(id, [NodeId(1), NodeId(2), NodeId(2)], SimTime::ZERO, &mut out);
        assert_eq!(requests(&out).len(), 1);
    }

    #[test]
    fn self_only_hints_fall_through_to_round_robin_peers() {
        let id = Block::genesis().id();
        let mut out = Vec::new();
        let mut f = BlockFetcher::new(NodeId(1), 4, RetryPolicy::auto().resolve(T));
        // The only hint is ourselves: the fetch must still go out now, not
        // after a retry deadline.
        f.request(id, [NodeId(1)], SimTime::ZERO, &mut out);
        let targets = requests(&out);
        assert_eq!(targets.len(), RetryPolicy::auto().fanout);
        assert!(!targets.contains(&NodeId(1)));
    }

    #[test]
    fn fulfilled_allows_rerequest() {
        let mut f = fetcher(4);
        let id = Block::genesis().id();
        let mut out = Vec::new();
        f.request(id, [NodeId(1)], SimTime::ZERO, &mut out);
        f.fulfilled(id);
        assert!(!f.is_pending(id));
        f.request(id, [NodeId(1)], SimTime::ZERO, &mut out);
        assert_eq!(requests(&out).len(), 2);
    }

    #[test]
    fn timeout_rerequests_to_untried_peers_with_backoff() {
        let mut f = fetcher(4);
        let id = Block::genesis().id();
        let mut out = Vec::new();
        f.request(id, [NodeId(1)], SimTime::ZERO, &mut out);
        out.clear();

        // Before the deadline: no-op, but nothing is lost.
        f.on_timer(SimTime(500), &mut out);
        assert!(requests(&out).is_empty());
        assert_eq!(timers(&out), 1, "re-arms while outstanding");
        out.clear();

        // Past the deadline: retries to peers other than the already-tried 1.
        f.on_timer(SimTime(1_000), &mut out);
        let round1 = requests(&out);
        assert_eq!(round1.len(), 2);
        assert!(!round1.contains(&NodeId(0)), "never asks self");
        assert!(!round1.contains(&NodeId(1)), "prefers untried peers");
        assert_eq!(timers(&out), 1);
        out.clear();

        // Second retry fires only after the doubled deadline.
        f.on_timer(SimTime(2_000), &mut out);
        assert!(requests(&out).is_empty(), "backoff doubled the deadline");
        f.on_timer(SimTime(3_000), &mut out);
        assert_eq!(requests(&out).len(), 2, "tried set reset, full rotation again");
    }

    #[test]
    fn fetch_is_abandoned_after_max_attempts() {
        let mut f = fetcher(4);
        let id = Block::genesis().id();
        let mut out = Vec::new();
        f.request(id, [NodeId(1)], SimTime::ZERO, &mut out);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration(1_000_000);
            f.on_timer(now, &mut out);
        }
        assert_eq!(f.outstanding(), 0, "abandoned after max_attempts rounds");
        // A later certificate can start a fresh cycle.
        out.clear();
        f.request(id, [NodeId(2)], now, &mut out);
        assert_eq!(requests(&out).len(), 1);
    }

    #[test]
    fn policy_resolution_derives_two_delta() {
        let p = RetryPolicy::auto().resolve(SimDuration::from_millis(100));
        assert_eq!(p.timeout, SimDuration::from_millis(200));
        let explicit = RetryPolicy { timeout: T, ..RetryPolicy::auto() };
        assert_eq!(explicit.resolve(SimDuration::from_millis(100)).timeout, T);
    }

    /// The batch fetcher mirrors the block fetcher's lifecycle — dedup
    /// while outstanding, untried-peer retries with backoff, abandonment —
    /// but emits `(peer, digest)` frame plans instead of consensus
    /// messages.
    #[test]
    fn batch_fetcher_retries_and_abandons_like_block_fetcher() {
        let policy = RetryPolicy { timeout: T, max_attempts: 3, fanout: 2 };
        let mut f = BatchFetcher::new(NodeId(0), 4, policy);
        let d = Digest::hash(b"batch");

        let plan = f.request(d, [NodeId(2)], SimTime::ZERO, false);
        assert_eq!(plan.requests, vec![(NodeId(2), d)]);
        assert_eq!(plan.rearm, Some(T));
        assert!(f.is_pending(&d));
        // Outstanding: suppressed.
        assert!(f.request(d, [NodeId(3)], SimTime::ZERO, false).is_empty());

        // Early fire: nothing overdue, but the timer stays armed.
        let plan = f.on_timer(SimTime(500));
        assert!(plan.requests.is_empty());
        assert!(plan.rearm.is_some());

        // Overdue: retry to untried peers, deadline doubled.
        let plan = f.on_timer(SimTime(1_000));
        assert_eq!(plan.requests.len(), 2);
        assert!(plan.requests.iter().all(|(to, pd)| *to != NodeId(0)
            && *to != NodeId(2)
            && *pd == d));

        // Resolution clears the entry; a fresh request goes out again.
        f.fulfilled(&d);
        assert_eq!(f.outstanding(), 0);
        assert_eq!(f.request(d, [NodeId(1)], SimTime(2_000), false).requests.len(), 1);

        // Exhaust the retry budget: abandoned.
        let mut now = SimTime(2_000);
        for _ in 0..10 {
            now += SimDuration(1_000_000);
            f.on_timer(now);
        }
        assert_eq!(f.outstanding(), 0, "abandoned after max_attempts");
    }

    /// Self-only hints (a restarted leader refetching its own batch) fall
    /// through to round-robin peers immediately.
    #[test]
    fn batch_fetcher_self_hints_fall_through_to_peers() {
        let mut f = BatchFetcher::new(NodeId(1), 4, RetryPolicy::auto().resolve(T));
        let d = Digest::hash(b"own-batch");
        let plan = f.request(d, [NodeId(1)], SimTime::ZERO, false);
        assert_eq!(plan.requests.len(), RetryPolicy::auto().fanout);
        assert!(plan.requests.iter().all(|(to, _)| *to != NodeId(1)));
    }

    /// A batch a fresh proposal names gets Δ for its push to arrive before
    /// anyone is asked; if it does, no request was ever sent; if not, the
    /// proposer is the first to be asked.
    #[test]
    fn batch_fetcher_gives_a_push_in_flight_one_delta() {
        let policy = RetryPolicy { timeout: T, max_attempts: 3, fanout: 2 };
        let mut f = BatchFetcher::new(NodeId(0), 4, policy);
        let (arrives, lost) =
            (Digest::hash(b"arrives"), Digest::hash(b"lost"));
        for d in [arrives, lost] {
            let plan = f.request(d, [NodeId(2)], SimTime::ZERO, true);
            assert!(plan.requests.is_empty(), "asked before the push had its Δ");
            assert_eq!(plan.rearm, Some(SimDuration(T.0 / 2)));
        }
        f.fulfilled(&arrives);
        assert!(f.on_timer(SimTime(T.0 / 2 - 1)).requests.is_empty());
        let plan = f.on_timer(SimTime(T.0 / 2));
        assert_eq!(plan.requests.len(), 2);
        assert_eq!(plan.requests[0], (NodeId(2), lost), "the proposer goes first");
        assert!(plan.requests.iter().all(|(_, d)| *d == lost));
    }

    #[derive(Debug)]
    struct MapSource(std::collections::HashMap<BlockId, Block>);

    impl LocalBlockSource for MapSource {
        fn local_block(&self, id: BlockId) -> Option<Block> {
            self.0.get(&id).cloned()
        }
    }

    #[test]
    fn local_source_hit_emits_zero_network_fetches() {
        let block = Block::build(View(1), NodeId(1), &Block::genesis(), Payload::empty());
        let id = block.id();
        let mut map = std::collections::HashMap::new();
        map.insert(id, block);
        let mut f = fetcher(4);
        f.set_local_source(Arc::new(MapSource(map)));

        let mut out = Vec::new();
        f.request(id, [NodeId(1), NodeId(2)], SimTime::ZERO, &mut out);
        assert!(requests(&out).is_empty(), "persisted block must not hit the network");
        assert_eq!(timers(&out), 0, "no retry timer for a disk hit");
        assert!(!f.is_pending(id), "disk hits never become pending");
        // The block is self-delivered through the normal response path.
        assert!(matches!(
            out.as_slice(),
            [Output::Send(NodeId(0), Message::BlockResponse { .. })]
        ));

        // A block NOT on disk still goes over the network as before.
        out.clear();
        let missing = Digest::hash(b"not-on-disk");
        f.request(missing, [NodeId(1)], SimTime::ZERO, &mut out);
        assert_eq!(requests(&out).len(), 1);
        assert!(f.is_pending(missing));
    }

    #[test]
    fn serve_known_block() {
        let mut tree = BlockTree::new();
        let block = Block::build(View(1), NodeId(0), &Block::genesis().clone(), Payload::empty());
        tree.insert(block.clone());
        let out = serve_request(&tree, NodeId(3), block.id());
        assert!(matches!(
            out,
            Some(Output::Send(NodeId(3), Message::BlockResponse { .. }))
        ));
        assert!(serve_request(&tree, NodeId(3), Digest::hash(b"nope")).is_none());
    }

    #[test]
    fn response_validation() {
        let block = Block::build(View(3), NodeId(2), &Block::genesis(), Payload::empty());
        assert!(validate_response(&block, |_| NodeId(2)));
        assert!(!validate_response(&block, |_| NodeId(1)));
    }
}
