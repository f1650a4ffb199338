//! The block tree: every block a node has seen, indexed by id, with
//! ancestry queries, orphan buffering and commit tracking.
//!
//! Messages can arrive out of order in a partially synchronous network, so a
//! block may reference a parent the node has not seen yet. Such *orphans*
//! are buffered and connected when the parent arrives; [`BlockTree::insert`]
//! reports every block that became connected as a result.

use std::collections::HashMap;

use moonshot_types::{Block, BlockId, Height, View};

/// Result of inserting a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The block connected to the tree (and possibly connected the returned
    /// orphans after it).
    Connected {
        /// Ids of previously orphaned blocks that connected as a result,
        /// in parent-first order (not including the inserted block).
        adopted: Vec<BlockId>,
    },
    /// The parent is unknown; the block is buffered until it arrives.
    Orphaned,
    /// The block (or an equal one) was already present.
    Duplicate,
}

/// The set of blocks known to a node.
///
/// # Examples
///
/// ```
/// use moonshot_consensus::blocktree::BlockTree;
/// use moonshot_types::{Block, NodeId, Payload, View};
///
/// let mut tree = BlockTree::new();
/// let genesis = tree.genesis().clone();
/// let child = Block::build(View(1), NodeId(0), &genesis, Payload::empty());
/// tree.insert(child.clone());
/// assert!(tree.extends(child.id(), genesis.id()));
/// ```
#[derive(Clone, Debug)]
pub struct BlockTree {
    blocks: HashMap<BlockId, Block>,
    /// parent id -> orphans waiting for it.
    orphans: HashMap<BlockId, Vec<Block>>,
    genesis_id: BlockId,
    /// Height of the highest committed block.
    committed_height: Height,
    /// Id of the highest committed block.
    committed_id: BlockId,
    /// Number of blocks committed so far (excluding genesis).
    committed_count: u64,
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockTree {
    /// A tree containing only the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let genesis_id = genesis.id();
        let mut blocks = HashMap::new();
        blocks.insert(genesis_id, genesis);
        BlockTree {
            blocks,
            orphans: HashMap::new(),
            genesis_id,
            committed_height: Height::GENESIS,
            committed_id: genesis_id,
            committed_count: 0,
        }
    }

    /// The genesis block.
    pub fn genesis(&self) -> &Block {
        &self.blocks[&self.genesis_id]
    }

    /// Looks up a connected block.
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(&id)
    }

    /// Whether `id` is connected to the tree.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Number of connected blocks, including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the tree holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Number of orphaned blocks awaiting parents.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    /// Inserts `block`, connecting any orphans that were waiting for it.
    pub fn insert(&mut self, block: Block) -> InsertOutcome {
        let id = block.id();
        if self.blocks.contains_key(&id) {
            return InsertOutcome::Duplicate;
        }
        if !self.blocks.contains_key(&block.parent_id()) {
            let bucket = self.orphans.entry(block.parent_id()).or_default();
            if bucket.iter().all(|b| b.id() != id) {
                bucket.push(block);
            }
            return InsertOutcome::Orphaned;
        }
        self.blocks.insert(id, block);
        let mut adopted = Vec::new();
        self.adopt_orphans(id, &mut adopted);
        InsertOutcome::Connected { adopted }
    }

    fn adopt_orphans(&mut self, parent: BlockId, adopted: &mut Vec<BlockId>) {
        if let Some(waiting) = self.orphans.remove(&parent) {
            for block in waiting {
                let id = block.id();
                self.blocks.insert(id, block);
                adopted.push(id);
                self.adopt_orphans(id, adopted);
            }
        }
    }

    /// Whether `descendant` (directly or indirectly) extends `ancestor`.
    /// A block extends itself (§II.B).
    pub fn extends(&self, descendant: BlockId, ancestor: BlockId) -> bool {
        let Some(anc) = self.blocks.get(&ancestor) else {
            return false;
        };
        let mut cur = descendant;
        loop {
            if cur == ancestor {
                return true;
            }
            let Some(block) = self.blocks.get(&cur) else {
                return false;
            };
            if block.height() <= anc.height() {
                return false;
            }
            cur = block.parent_id();
        }
    }

    /// The chain from (excluding) `from` up to (including) `to`, in
    /// parent-first order. Returns `None` if `to` does not extend `from`.
    pub fn chain_between(&self, from: BlockId, to: BlockId) -> Option<Vec<&Block>> {
        let mut chain = Vec::new();
        let mut cur = to;
        while cur != from {
            let block = self.blocks.get(&cur)?;
            chain.push(block);
            if block.is_genesis() {
                return None;
            }
            cur = block.parent_id();
        }
        chain.reverse();
        Some(chain)
    }

    /// Marks `block_id` (and implicitly its ancestors) committed, returning
    /// the newly committed blocks in parent-first order.
    ///
    /// Blocks at or below the current committed height are skipped (already
    /// committed through another path — safety guarantees consistency).
    pub fn commit(&mut self, block_id: BlockId) -> Vec<Block> {
        let Some(target) = self.blocks.get(&block_id) else {
            return Vec::new();
        };
        if target.height() <= self.committed_height {
            return Vec::new();
        }
        let new_chain: Vec<Block> = match self.chain_between(self.committed_id, block_id) {
            Some(chain) => chain.into_iter().cloned().collect(),
            // The previous committed block is not an ancestor — this can
            // only happen if safety is violated; callers assert on it.
            None => return Vec::new(),
        };
        if let Some(last) = new_chain.last() {
            self.committed_height = last.height();
            self.committed_id = last.id();
            self.committed_count += new_chain.len() as u64;
        }
        new_chain
    }

    /// Height of the highest committed block.
    pub fn committed_height(&self) -> Height {
        self.committed_height
    }

    /// Id of the highest committed block.
    pub fn committed_id(&self) -> BlockId {
        self.committed_id
    }

    /// Number of blocks committed so far (excluding genesis).
    pub fn committed_count(&self) -> u64 {
        self.committed_count
    }

    /// The full committed chain from genesis, parent-first.
    pub fn committed_chain(&self) -> Vec<&Block> {
        let mut chain = self
            .chain_between(self.genesis_id, self.committed_id)
            .unwrap_or_default();
        chain.insert(0, self.genesis());
        chain
    }

    /// All connected blocks proposed for `view`.
    pub fn blocks_in_view(&self, view: View) -> Vec<&Block> {
        self.blocks.values().filter(|b| b.view() == view).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_types::{NodeId, Payload};

    fn child(parent: &Block, view: u64) -> Block {
        Block::build(View(view), NodeId((view % 4) as u16), parent, Payload::empty())
    }

    #[test]
    fn insert_connected_chain() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        let b2 = child(&b1, 2);
        assert_eq!(tree.insert(b1.clone()), InsertOutcome::Connected { adopted: vec![] });
        assert_eq!(tree.insert(b2.clone()), InsertOutcome::Connected { adopted: vec![] });
        assert!(tree.extends(b2.id(), b1.id()));
        assert!(tree.extends(b2.id(), tree.genesis().id()));
        assert!(!tree.extends(b1.id(), b2.id()));
    }

    #[test]
    fn orphan_adopted_when_parent_arrives() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        let b2 = child(&b1, 2);
        let b3 = child(&b2, 3);
        assert_eq!(tree.insert(b3.clone()), InsertOutcome::Orphaned);
        assert_eq!(tree.insert(b2.clone()), InsertOutcome::Orphaned);
        let out = tree.insert(b1.clone());
        assert_eq!(out, InsertOutcome::Connected { adopted: vec![b2.id(), b3.id()] });
        assert!(tree.contains(b3.id()));
        assert_eq!(tree.orphan_count(), 0);
    }

    #[test]
    fn duplicate_detected() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        tree.insert(b1.clone());
        assert_eq!(tree.insert(b1.clone()), InsertOutcome::Duplicate);
        // Orphan duplicates are also absorbed.
        let b2 = child(&b1, 2);
        let b3 = child(&b2, 3);
        assert_eq!(tree.insert(b3.clone()), InsertOutcome::Orphaned);
        assert_eq!(tree.insert(b3.clone()), InsertOutcome::Orphaned);
        tree.insert(b2);
        assert_eq!(tree.len(), 4); // genesis + b1 + b2 + b3 (no dup b3)
    }

    #[test]
    fn extends_is_reflexive() {
        let tree = BlockTree::new();
        let g = tree.genesis().id();
        assert!(tree.extends(g, g));
    }

    #[test]
    fn extends_fails_across_forks() {
        let mut tree = BlockTree::new();
        let a = child(tree.genesis(), 1);
        let b = Block::build(View(1), NodeId(1), tree.genesis(), Payload::synthetic_items(1, 1));
        tree.insert(a.clone());
        tree.insert(b.clone());
        assert!(!tree.extends(a.id(), b.id()));
        assert!(!tree.extends(b.id(), a.id()));
    }

    #[test]
    fn commit_returns_parent_first_chain() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        let b2 = child(&b1, 2);
        let b3 = child(&b2, 3);
        for b in [&b1, &b2, &b3] {
            tree.insert(b.clone());
        }
        let committed = tree.commit(b2.id());
        assert_eq!(
            committed.iter().map(Block::id).collect::<Vec<_>>(),
            vec![b1.id(), b2.id()]
        );
        assert_eq!(tree.committed_height(), Height(2));
        // Committing b3 later only returns the new suffix.
        let committed = tree.commit(b3.id());
        assert_eq!(committed.iter().map(Block::id).collect::<Vec<_>>(), vec![b3.id()]);
        assert_eq!(tree.committed_count(), 3);
    }

    #[test]
    fn recommit_is_noop() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        tree.insert(b1.clone());
        assert_eq!(tree.commit(b1.id()).len(), 1);
        assert!(tree.commit(b1.id()).is_empty());
    }

    #[test]
    fn commit_unknown_block_is_noop() {
        let mut tree = BlockTree::new();
        let phantom = child(tree.genesis(), 1);
        assert!(tree.commit(phantom.id()).is_empty());
    }

    #[test]
    fn committed_chain_starts_at_genesis() {
        let mut tree = BlockTree::new();
        let b1 = child(tree.genesis(), 1);
        let b2 = child(&b1, 2);
        tree.insert(b1.clone());
        tree.insert(b2.clone());
        tree.commit(b2.id());
        let chain = tree.committed_chain();
        assert_eq!(chain.len(), 3);
        assert!(chain[0].is_genesis());
        assert_eq!(chain[2].id(), b2.id());
    }

    #[test]
    fn blocks_in_view_filters() {
        let mut tree = BlockTree::new();
        let a = child(tree.genesis(), 1);
        let b = Block::build(View(1), NodeId(1), tree.genesis(), Payload::synthetic_items(1, 1));
        let c = child(&a, 2);
        for blk in [&a, &b, &c] {
            tree.insert(blk.clone());
        }
        assert_eq!(tree.blocks_in_view(View(1)).len(), 2);
        assert_eq!(tree.blocks_in_view(View(2)).len(), 1);
        assert!(tree.blocks_in_view(View(3)).is_empty());
    }

    #[test]
    fn chain_between_none_when_unrelated() {
        let mut tree = BlockTree::new();
        let a = child(tree.genesis(), 1);
        let b = Block::build(View(1), NodeId(1), tree.genesis(), Payload::synthetic_items(1, 1));
        tree.insert(a.clone());
        tree.insert(b.clone());
        assert!(tree.chain_between(a.id(), b.id()).is_none());
    }
}
