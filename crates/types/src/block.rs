//! Blocks and block identity.
//!
//! A block `B_k := (b_v, H(B_{k-1}))` (§II.B): a fixed payload for the view
//! it was proposed in, plus the hash of its parent. We additionally carry the
//! height, view and proposer explicitly — all of which are implied by the
//! chain in the paper's notation — so that a block is self-describing.
//!
//! Two blocks proposed for the same view *equivocate* iff they do not share
//! the same parent and payload; structurally identical blocks have equal
//! [`BlockId`]s, which is what makes a leader's optimistic and normal
//! proposal of the same content "the same block" (§III.A).

use std::fmt;

use moonshot_crypto::Digest;

use crate::ids::{Height, NodeId, View};
use crate::payload::Payload;
use crate::wire::{WireSize, DIGEST_WIRE, INDEX_WIRE, U64_WIRE};

/// Identity of a block: the digest `H(B)`.
pub type BlockId = Digest;

/// A chain block.
///
/// # Examples
///
/// ```
/// use moonshot_types::{Block, Payload, View, NodeId, Height};
/// let genesis = Block::genesis();
/// let child = Block::build(
///     View(1),
///     NodeId(0),
///     &genesis,
///     Payload::empty(),
/// );
/// assert_eq!(child.height(), Height(1));
/// assert_eq!(child.parent_id(), genesis.id());
/// assert!(child.directly_extends(&genesis));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    view: View,
    height: Height,
    parent_id: BlockId,
    proposer: NodeId,
    payload: Payload,
    /// Cached identity (hash of the header fields and payload digest).
    id: BlockId,
}

impl Block {
    /// The genesis block `B_0`, known to all nodes at startup. Its parent is
    /// ⊥ (the zero digest).
    pub fn genesis() -> Block {
        Self::assemble(View::GENESIS, Height::GENESIS, Digest::ZERO, NodeId(0), Payload::empty())
    }

    /// Builds a child of `parent` proposed by `proposer` for `view`.
    pub fn build(view: View, proposer: NodeId, parent: &Block, payload: Payload) -> Block {
        Self::assemble(view, parent.height.child(), parent.id, proposer, payload)
    }

    /// Builds a block from raw fields (used when the parent block itself is
    /// not at hand, e.g. extending a certified id).
    pub fn from_parts(
        view: View,
        height: Height,
        parent_id: BlockId,
        proposer: NodeId,
        payload: Payload,
    ) -> Block {
        Self::assemble(view, height, parent_id, proposer, payload)
    }

    fn assemble(
        view: View,
        height: Height,
        parent_id: BlockId,
        proposer: NodeId,
        payload: Payload,
    ) -> Block {
        let id = Digest::hash_parts(&[
            b"moonshot-block",
            &view.0.to_le_bytes(),
            &height.0.to_le_bytes(),
            parent_id.as_bytes(),
            &proposer.0.to_le_bytes(),
            payload.digest().as_bytes(),
        ]);
        Block { view, height, parent_id, proposer, payload, id }
    }

    /// The block's identity, `H(B)`.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The view this block was proposed for.
    pub fn view(&self) -> View {
        self.view
    }

    /// The block's height (number of ancestors).
    pub fn height(&self) -> Height {
        self.height
    }

    /// The identity of the parent block.
    pub fn parent_id(&self) -> BlockId {
        self.parent_id
    }

    /// The node that proposed this block.
    pub fn proposer(&self) -> NodeId {
        self.proposer
    }

    /// The payload `b_v`.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Whether this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.height == Height::GENESIS
    }

    /// Whether `self` directly extends `parent` (is its child).
    pub fn directly_extends(&self, parent: &Block) -> bool {
        self.parent_id == parent.id && self.height == parent.height.child()
    }

    /// Whether `self` and `other` equivocate: proposed for the same view but
    /// not identical.
    pub fn equivocates(&self, other: &Block) -> bool {
        self.view == other.view && self.id != other.id
    }

    /// Structural validity of the header in isolation: genesis must sit at
    /// height 0 with a ⊥ parent, non-genesis blocks must not reference ⊥ and
    /// must be proposed for a view ≥ 1.
    pub fn header_is_valid(&self) -> bool {
        if self.height == Height::GENESIS {
            self.parent_id == Digest::ZERO && self.view == View::GENESIS
        } else {
            self.parent_id != Digest::ZERO && self.view >= View::FIRST
        }
    }
}

impl WireSize for Block {
    fn wire_size(&self) -> usize {
        // view + height + parent digest + proposer + payload bytes.
        U64_WIRE * 2 + DIGEST_WIRE + INDEX_WIRE + self.payload.wire_size()
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} {} {} by {} parent={})",
            self.id.short(),
            self.view,
            self.height,
            self.proposer,
            self.parent_id.short(),
        )
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B[{}@{}]", self.height, self.view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_of(len: usize) -> Vec<Block> {
        let mut blocks = vec![Block::genesis()];
        for i in 1..=len {
            let parent = blocks.last().unwrap();
            blocks.push(Block::build(
                View(i as u64),
                NodeId((i % 4) as u16),
                parent,
                Payload::empty(),
            ));
        }
        blocks
    }

    #[test]
    fn genesis_is_fixed_point() {
        let a = Block::genesis();
        let b = Block::genesis();
        assert_eq!(a.id(), b.id());
        assert!(a.is_genesis());
        assert!(a.header_is_valid());
        assert_eq!(a.parent_id(), Digest::ZERO);
    }

    #[test]
    fn build_links_to_parent() {
        let chain = chain_of(3);
        for w in chain.windows(2) {
            assert!(w[1].directly_extends(&w[0]));
            assert!(!w[0].directly_extends(&w[1]));
        }
    }

    #[test]
    fn ids_differ_along_chain() {
        let chain = chain_of(5);
        let ids: std::collections::HashSet<_> = chain.iter().map(Block::id).collect();
        assert_eq!(ids.len(), chain.len());
    }

    #[test]
    fn equivocation_same_view_different_content() {
        let g = Block::genesis();
        let a = Block::build(View(1), NodeId(0), &g, Payload::synthetic_items(1, 1));
        let b = Block::build(View(1), NodeId(0), &g, Payload::synthetic_items(1, 2));
        let c = Block::build(View(2), NodeId(0), &g, Payload::synthetic_items(1, 1));
        assert!(a.equivocates(&b));
        assert!(!a.equivocates(&a));
        assert!(!a.equivocates(&c)); // different views never equivocate
    }

    #[test]
    fn same_content_same_id() {
        // A leader's optimistic and normal proposal with the same parent and
        // payload must contain the identical block (§III.A).
        let g = Block::genesis();
        let a = Block::build(View(1), NodeId(0), &g, Payload::synthetic_items(3, 1));
        let b = Block::build(View(1), NodeId(0), &g, Payload::synthetic_items(3, 1));
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn header_validity_rules() {
        let g = Block::genesis();
        let ok = Block::build(View(1), NodeId(0), &g, Payload::empty());
        assert!(ok.header_is_valid());
        let zero_parent =
            Block::from_parts(View(1), Height(1), Digest::ZERO, NodeId(0), Payload::empty());
        assert!(!zero_parent.header_is_valid());
        let genesis_view =
            Block::from_parts(View(0), Height(1), g.id(), NodeId(0), Payload::empty());
        assert!(!genesis_view.header_is_valid());
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let g = Block::genesis();
        let small = Block::build(View(1), NodeId(0), &g, Payload::synthetic_bytes(1_800, 0));
        let large = Block::build(View(1), NodeId(0), &g, Payload::synthetic_bytes(1_800_000, 0));
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(large.wire_size() - small.wire_size(), (1_800_000 - 1_800) / 180 * 180);
    }

    #[test]
    fn display_and_debug() {
        let g = Block::genesis();
        assert_eq!(g.to_string(), "B[h0@v0]");
        assert!(format!("{g:?}").starts_with("Block("));
    }
}
