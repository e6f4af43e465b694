//! Binary Patricia trie (Morrison 1968), as surveyed in Section 2 /
//! Figure 2b of the HOT paper.
//!
//! Every inner **BiNode** stores one discriminative bit position and has
//! exactly two children; nodes with a single child are omitted, so a trie
//! storing `n` keys has exactly `n - 1` inner BiNodes. Because skipped bits
//! are never inspected, a lookup must verify the candidate leaf against the
//! full key, which is resolved from the leaf's TID through a
//! [`KeySource`] — the same convention every other index in this workspace
//! uses.
//!
//! In this reproduction the structure plays two roles:
//!
//! 1. the **BIN** baseline of the Figure 11 leaf-depth experiment, and
//! 2. the executable *reference model* for the HOT property-test suite: a
//!    HOT tree is a partition of exactly this binary Patricia trie into
//!    k-constrained compound nodes, so structural properties (discriminative
//!    bit sets, key order, depth bounds) are checked against this
//!    implementation.

#![deny(missing_docs)]

use hot_keys::MemoryStats;
use hot_keys::{DepthStats, KeySource, KEY_SCRATCH_LEN, MAX_TID};

/// One node of the Patricia trie: either a leaf TID or an inner BiNode with
/// a discriminative bit position and two children.
#[derive(Debug)]
enum Node {
    Leaf(u64),
    Inner {
        /// MSB-first discriminative bit position (see `hot_bits::bitpos`).
        bit: u32,
        /// `children[0]` holds keys with bit 0 at `bit`, `children[1]` bit 1.
        children: [Box<Node>; 2],
    },
}

impl Node {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }
}

/// A binary Patricia trie mapping prefix-free byte-string keys to TIDs.
///
/// Keys are resolved from TIDs through the key source `S`; inserting a key
/// that is a strict prefix of a stored key (after zero padding) is not
/// supported — use the prefix-free encoders from `hot_keys::encode`.
pub struct PatriciaTree<S> {
    root: Option<Box<Node>>,
    source: S,
    len: usize,
}

impl<S: KeySource> PatriciaTree<S> {
    /// Create an empty trie resolving keys through `source`.
    pub fn new(source: S) -> Self {
        PatriciaTree {
            root: None,
            source,
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the key source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Blind descend: follow discriminative bits to the unique candidate leaf.
    fn candidate<'a>(mut node: &'a Node, key: &[u8]) -> &'a Node {
        while let Node::Inner { bit, children } = node {
            node = &children[hot_bits::bit_at(key, *bit as usize) as usize];
        }
        node
    }

    /// Look up `key`; returns its TID if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let root = self.root.as_deref()?;
        let Node::Leaf(tid) = Self::candidate(root, key) else {
            unreachable!("candidate always ends at a leaf")
        };
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        if hot_bits::first_mismatch_bit(self.source.load_key(*tid, &mut scratch), key).is_none() {
            Some(*tid)
        } else {
            None
        }
    }

    /// Insert `key → tid`. Returns the previous TID if the key was present
    /// (upsert semantics).
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`].
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        if self.root.is_none() {
            self.root = Some(Box::new(Node::Leaf(tid)));
            self.len = 1;
            return None;
        }

        // Phase 1: find the candidate leaf and the mismatch position.
        let candidate_tid = {
            let root = self.root.as_deref().expect("non-empty");
            let Node::Leaf(t) = Self::candidate(root, key) else {
                unreachable!()
            };
            *t
        };
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let mismatch = {
            let existing = self.source.load_key(candidate_tid, &mut scratch);
            hot_bits::first_mismatch_bit(existing, key)
        };
        let Some(bit) = mismatch else {
            // Key already present: replace the TID in place.
            let mut node = self.root.as_deref_mut().expect("non-empty");
            loop {
                match node {
                    Node::Leaf(t) => {
                        let old = *t;
                        *t = tid;
                        return Some(old);
                    }
                    Node::Inner { bit, children } => {
                        node = &mut children[hot_bits::bit_at(key, *bit as usize) as usize];
                    }
                }
            }
        };
        let new_bit_value = hot_bits::bit_at(key, bit) as usize;

        // Phase 2: re-descend to the insertion point — the first node whose
        // discriminative bit exceeds the mismatch bit (or a leaf).
        let mut slot: &mut Box<Node> = self.root.as_mut().expect("non-empty");
        loop {
            match slot.as_ref() {
                Node::Leaf(_) => break,
                Node::Inner { bit: b, .. } if *b as usize > bit => break,
                _ => {}
            }
            let Node::Inner { bit: b, children } = slot.as_mut() else {
                unreachable!()
            };
            let dir = hot_bits::bit_at(key, *b as usize) as usize;
            slot = &mut children[dir];
        }

        // Splice in the new BiNode: the displaced subtree keeps the inverse
        // bit value, the new leaf takes `new_bit_value`.
        let displaced = std::mem::replace(slot.as_mut(), Node::Leaf(0));
        let new_leaf = Node::Leaf(tid);
        let children = if new_bit_value == 1 {
            [Box::new(displaced), Box::new(new_leaf)]
        } else {
            [Box::new(new_leaf), Box::new(displaced)]
        };
        *slot.as_mut() = Node::Inner {
            bit: bit as u32,
            children,
        };
        self.len += 1;
        None
    }

    /// Remove `key`; returns its TID if it was present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        // Verify presence first (blind descends don't detect absence).
        self.get(key)?;

        let root = self.root.as_mut().expect("key present implies non-empty");
        if let Node::Leaf(tid) = root.as_ref() {
            let tid = *tid;
            self.root = None;
            self.len = 0;
            return Some(tid);
        }

        // Descend, remembering the parent slot so the sibling can be pulled
        // up when the leaf is removed (Patricia collapse).
        let mut parent: &mut Box<Node> = root;
        loop {
            let Node::Inner { bit, .. } = parent.as_ref() else {
                unreachable!("loop maintains parent as inner node")
            };
            let dir = hot_bits::bit_at(key, *bit as usize) as usize;
            let child_is_leaf = {
                let Node::Inner { children, .. } = parent.as_ref() else {
                    unreachable!()
                };
                children[dir].is_leaf()
            };
            if child_is_leaf {
                let Node::Inner { children, .. } = parent.as_mut() else {
                    unreachable!()
                };
                let sibling = std::mem::replace(children[1 - dir].as_mut(), Node::Leaf(0));
                let Node::Leaf(tid) = *children[dir].as_ref() else {
                    unreachable!()
                };
                *parent.as_mut() = sibling;
                self.len -= 1;
                return Some(tid);
            }
            let Node::Inner { children, .. } = parent.as_mut() else {
                unreachable!()
            };
            parent = &mut children[dir];
        }
    }

    /// In-order iterator over all TIDs (ascending key order).
    pub fn iter(&self) -> Iter<'_> {
        let mut stack = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push(root);
        }
        Iter { stack }
    }

    /// Iterator over TIDs whose keys are `>= key`, in ascending key order.
    pub fn range_from(&self, key: &[u8]) -> Iter<'_> {
        let mut stack: Vec<&Node> = Vec::new();
        let Some(root) = self.root.as_deref() else {
            return Iter { stack };
        };

        // Blind descend to the candidate leaf first to learn the mismatch
        // position; zero cost for the exact-hit case.
        let Node::Leaf(tid) = Self::candidate(root, key) else {
            unreachable!()
        };
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let leaf_key = self.source.load_key(*tid, &mut scratch);
        let mismatch = hot_bits::first_mismatch_bit(leaf_key, key);

        // Re-descend, collecting unvisited right siblings; stop early at the
        // subtree the mismatch bit splits.
        let stop_bit = mismatch.unwrap_or(usize::MAX);
        let mut node = root;
        loop {
            match node {
                Node::Inner { bit, children } if (*bit as usize) < stop_bit => {
                    let dir = hot_bits::bit_at(key, *bit as usize) as usize;
                    if dir == 0 {
                        stack.push(&children[1]);
                    }
                    node = &children[dir];
                }
                _ => break,
            }
        }
        match mismatch {
            None => stack.push(node), // exact hit: include the leaf itself
            Some(bit) => {
                if hot_bits::bit_at(key, bit) == 0 {
                    // The search key sorts before the whole stopped subtree.
                    stack.push(node);
                }
                // Otherwise the search key sorts after the stopped subtree:
                // only the collected right siblings qualify.
            }
        }
        // The stack was filled top-down (shallowest right sibling first), so
        // popping yields the stopped subtree, then siblings deepest-first —
        // exactly ascending key order.
        Iter { stack }
    }

    /// Leaf-depth histogram (depth = number of BiNodes on the root-to-leaf
    /// path), as plotted in Figure 11 for the "BIN" structure.
    pub fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(node: &Node, depth: usize, stats: &mut DepthStats) {
            match node {
                Node::Leaf(_) => stats.record(depth),
                Node::Inner { children, .. } => {
                    walk(&children[0], depth + 1, stats);
                    walk(&children[1], depth + 1, stats);
                }
            }
        }
        if let Some(root) = self.root.as_deref() {
            walk(root, 0, &mut stats);
        }
        stats
    }

    /// Memory accounting: one heap allocation per node.
    pub fn memory_stats(&self) -> MemoryStats {
        fn count(node: &Node) -> (usize, usize) {
            match node {
                Node::Leaf(_) => (std::mem::size_of::<Node>(), 1),
                Node::Inner { children, .. } => {
                    let (b0, n0) = count(&children[0]);
                    let (b1, n1) = count(&children[1]);
                    (std::mem::size_of::<Node>() + b0 + b1, 1 + n0 + n1)
                }
            }
        }
        let (node_bytes, node_count) = self.root.as_deref().map(count).unwrap_or((0, 0));
        MemoryStats {
            node_bytes,
            node_count,
            aux_bytes: 0,
            key_count: self.len,
            capacity_bytes: 0,
        }
    }

    /// The set of discriminative bit positions used anywhere in the trie,
    /// sorted ascending. Used by property tests to compare against HOT
    /// (both structures discriminate on exactly the same bits).
    pub fn discriminative_bits(&self) -> Vec<u32> {
        let mut bits = Vec::new();
        fn walk(node: &Node, bits: &mut Vec<u32>) {
            if let Node::Inner { bit, children } = node {
                bits.push(*bit);
                walk(&children[0], bits);
                walk(&children[1], bits);
            }
        }
        if let Some(root) = self.root.as_deref() {
            walk(root, &mut bits);
        }
        bits.sort_unstable();
        bits.dedup();
        bits
    }
}

/// In-order iterator over leaf TIDs.
pub struct Iter<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            match self.stack.pop()? {
                Node::Leaf(tid) => return Some(*tid),
                Node::Inner { children, .. } => {
                    self.stack.push(&children[1]);
                    self.stack.push(&children[0]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};

    fn int_tree(keys: &[u64]) -> PatriciaTree<EmbeddedKeySource> {
        let mut t = PatriciaTree::new(EmbeddedKeySource);
        for &k in keys {
            t.insert(&encode_u64(k), k);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t = PatriciaTree::new(EmbeddedKeySource);
        assert!(t.is_empty());
        assert_eq!(t.get(b"anything"), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.depth_stats().total(), 0);
    }

    #[test]
    fn single_key() {
        let t = int_tree(&[42]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&encode_u64(42)), Some(42));
        assert_eq!(t.get(&encode_u64(43)), None);
        assert_eq!(t.depth_stats().max_depth(), Some(0));
    }

    #[test]
    fn insert_lookup_many_integers() {
        let keys: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2654435761) % 100_000)
            .collect();
        let mut t = PatriciaTree::new(EmbeddedKeySource);
        let mut expected = std::collections::BTreeSet::new();
        for &k in &keys {
            t.insert(&encode_u64(k), k);
            expected.insert(k);
        }
        for &k in &expected {
            assert_eq!(t.get(&encode_u64(k)), Some(k), "key {k}");
        }
        assert_eq!(t.len(), expected.len());
        assert_eq!(t.get(&encode_u64(999_999_999)), None);
    }

    #[test]
    fn upsert_replaces_tid() {
        let mut arena = ArenaKeySource::new();
        let t1 = arena.push(b"dup");
        let t2 = arena.push(b"dup");
        let mut t = PatriciaTree::new(&arena);
        assert_eq!(t.insert(b"dup", t1), None);
        assert_eq!(t.insert(b"dup", t2), Some(t1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"dup"), Some(t2));
    }

    #[test]
    fn inner_node_count_is_n_minus_one() {
        // "a binary Patricia trie storing n keys has exactly n-1 inner
        // nodes" (Section 3.1) — so total nodes = 2n-1.
        for n in [2u64, 5, 17, 100] {
            let keys: Vec<u64> = (0..n).map(|i| i * 7919).collect();
            let t = int_tree(&keys);
            let m = t.memory_stats();
            assert_eq!(m.node_count as u64, 2 * n - 1, "n={n}");
        }
    }

    #[test]
    fn iteration_is_in_key_order() {
        let keys = [9u64, 1, 5, 0, 1000, 63, 64, 65, u32::MAX as u64];
        let t = int_tree(&keys);
        let tids: Vec<u64> = t.iter().collect();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(tids, sorted);
    }

    #[test]
    fn range_from_exact_and_between() {
        let keys = [10u64, 20, 30, 40];
        let t = int_tree(&keys);
        let from20: Vec<u64> = t.range_from(&encode_u64(20)).collect();
        assert_eq!(from20, vec![20, 30, 40]);
        let from25: Vec<u64> = t.range_from(&encode_u64(25)).collect();
        assert_eq!(from25, vec![30, 40]);
        let from0: Vec<u64> = t.range_from(&encode_u64(0)).collect();
        assert_eq!(from0, vec![10, 20, 30, 40]);
        let past: Vec<u64> = t.range_from(&encode_u64(41)).collect();
        assert!(past.is_empty());
    }

    #[test]
    fn range_from_dense_keys() {
        let keys: Vec<u64> = (0..64).collect();
        let t = int_tree(&keys);
        for start in 0..64u64 {
            let got: Vec<u64> = t.range_from(&encode_u64(start)).collect();
            let want: Vec<u64> = (start..64).collect();
            assert_eq!(got, want, "start={start}");
        }
    }

    #[test]
    fn remove_basics() {
        let mut t = int_tree(&[1, 2, 3]);
        assert_eq!(t.remove(&encode_u64(2)), Some(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&encode_u64(2)), None);
        assert_eq!(t.get(&encode_u64(1)), Some(1));
        assert_eq!(t.get(&encode_u64(3)), Some(3));
        assert_eq!(t.remove(&encode_u64(2)), None);
        assert_eq!(t.remove(&encode_u64(1)), Some(1));
        assert_eq!(t.remove(&encode_u64(3)), Some(3));
        assert!(t.is_empty());
    }

    #[test]
    fn string_keys_via_arena() {
        let words: &[&[u8]] = &[b"trie", b"tree", b"tries", b"art", b"hot", b"patricia"];
        let mut arena = ArenaKeySource::new();
        let encoded: Vec<Vec<u8>> = words
            .iter()
            .map(|w| hot_keys::str_key(w).unwrap())
            .collect();
        let tids: Vec<u64> = encoded.iter().map(|k| arena.push(k)).collect();
        let mut t = PatriciaTree::new(&arena);
        for (k, &tid) in encoded.iter().zip(&tids) {
            t.insert(k, tid);
        }
        for (k, &tid) in encoded.iter().zip(&tids) {
            assert_eq!(t.get(k), Some(tid));
        }
        assert_eq!(t.get(&hot_keys::str_key(b"missing").unwrap()), None);
        // In-order iteration sorts the words.
        let mut sorted = encoded.clone();
        sorted.sort();
        let iterated: Vec<Vec<u8>> = t.iter().map(|tid| arena.key(tid).to_vec()).collect();
        assert_eq!(iterated, sorted);
    }

    #[test]
    fn depth_reflects_patricia_collapse() {
        // Monotonic dense keys 0..8 over 64-bit big-endian integers share a
        // long prefix; Patricia skips it, so depth stays small (3 = log2(8)).
        let t = int_tree(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let stats = t.depth_stats();
        assert_eq!(stats.total(), 8);
        assert_eq!(stats.max_depth(), Some(3));
        assert_eq!(stats.min_depth(), Some(3));
    }

    #[test]
    fn discriminative_bits_for_dense_ints() {
        let t = int_tree(&[0, 1, 2, 3]);
        // Keys differ in the lowest two bits of the last byte: positions
        // 62 and 63 of the 64-bit big-endian encoding.
        assert_eq!(t.discriminative_bits(), vec![62, 63]);
    }
}
