//! Cache-optimized in-memory B+-tree — the paper's "BT" baseline.
//!
//! Modeled on the STX B+-tree setup of Section 6.1: "The default node size
//! is 256 bytes which in the case of 16 bytes per slot (8 bytes key + 8
//! bytes value) amounts to a node fanout of 16." Slots hold 64-bit words:
//! keys of up to 8 bytes are embedded directly; longer keys are represented
//! by their TID and every comparison resolves the key through the
//! [`KeySource`] — which is why the B-tree's memory footprint is identical
//! for all data sets (Figure 9) and why its string performance trails the
//! tries (Figure 8).
//!
//! Intra-node search is a simple ascending scan (linear search beats binary
//! search at fanout 16 on modern CPUs); leaves carry no sibling pointers —
//! range scans run over a cursor stack, like the tries, keeping all
//! structures comparable.

#![deny(missing_docs)]

use hot_keys::MemoryStats;
use hot_keys::{DepthStats, KeySource, MAX_TID};
use std::cmp::Ordering;

/// Maximum slots per node: 256-byte nodes, 16 bytes per slot.
pub const FANOUT: usize = 16;
const MIN_FILL: usize = FANOUT / 2;

/// One tree node. Leaves store (key-word, tid) slots; inner nodes store
/// separator key-words and child pointers.
#[allow(clippy::vec_box)] // boxed children keep split/merge moves O(1) per child
enum Node {
    Leaf {
        /// Key words (embedded key or TID; compared through the source).
        keys: Vec<u64>,
        /// Tuple identifiers parallel to `keys`.
        tids: Vec<u64>,
    },
    Inner {
        /// `seps[i]` is the smallest key word in `children[i + 1]`.
        seps: Vec<u64>,
        children: Vec<Box<Node>>,
    },
}

impl Node {
    fn new_leaf() -> Node {
        Node::Leaf {
            keys: Vec::with_capacity(FANOUT),
            tids: Vec::with_capacity(FANOUT),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Inner { children, .. } => children.len(),
        }
    }

    fn node_bytes(&self) -> usize {
        // Fixed 256-byte slot area plus the header, mirroring STX's
        // fixed-size nodes (capacity is reserved up front).
        std::mem::size_of::<Node>() + FANOUT * 16
    }
}

/// The B+-tree index: key words resolved through a [`KeySource`], exactly
/// like the trie structures in this workspace.
pub struct BPlusTree<S> {
    root: Option<Box<Node>>,
    source: S,
    len: usize,
}

/// Result of an insert into a subtree: possibly a split with the new right
/// sibling and its separator.
enum InsertResult {
    Done(Option<u64>),
    Split { sep: u64, right: Box<Node> },
}

impl<S: KeySource> BPlusTree<S> {
    /// Create an empty tree resolving keys through `source`.
    pub fn new(source: S) -> Self {
        BPlusTree {
            root: None,
            source,
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the key source.
    pub fn source(&self) -> &S {
        &self.source
    }

    #[inline]
    fn cmp(&self, word: u64, key: &[u8]) -> Ordering {
        self.source.cmp_tid_key(word, key)
    }

    /// Position of the first slot whose key is `>= key`.
    #[inline]
    fn lower_bound(&self, keys: &[u64], key: &[u8]) -> usize {
        // Linear scan: fanout 16 fits two cache lines; this is the
        // "cache-optimized" part of the STX design.
        keys.iter()
            .position(|&w| self.cmp(w, key) != Ordering::Less)
            .unwrap_or(keys.len())
    }

    /// Child index to descend into for `key`.
    #[inline]
    fn child_index(&self, seps: &[u64], key: &[u8]) -> usize {
        seps.iter()
            .position(|&w| self.cmp(w, key) == Ordering::Greater)
            .unwrap_or(seps.len())
    }

    /// Look up `key`; returns its TID if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Inner { seps, children } => {
                    node = &children[self.child_index(seps, key)];
                }
                Node::Leaf { keys, tids } => {
                    let i = self.lower_bound(keys, key);
                    if i < keys.len() && self.cmp(keys[i], key) == Ordering::Equal {
                        return Some(tids[i]);
                    }
                    return None;
                }
            }
        }
    }

    /// Insert `key → tid` (upsert); the slot key word is `tid` itself
    /// (embedded key or tuple identifier). Returns the previous TID if the
    /// key was present.
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        if self.root.is_none() {
            self.root = Some(Box::new(Node::new_leaf()));
        }
        let root = self.root.as_mut().expect("just ensured");
        let result = Self::insert_rec(&self.source, root, key, tid);
        match result {
            InsertResult::Done(old) => {
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
            InsertResult::Split { sep, right } => {
                let old_root = self.root.take().expect("non-empty");
                self.root = Some(Box::new(Node::Inner {
                    seps: vec![sep],
                    children: vec![old_root, right],
                }));
                self.len += 1;
                None
            }
        }
    }

    /// Bulk-build the tree from key-sorted `(key, tid)` pairs (duplicate
    /// keys collapse, last write wins), bottom-up: the deduplicated TID
    /// words fill leaves level by level, every level distributing its slots
    /// as evenly as possible over `ceil(n / 16)` nodes so each node holds at
    /// least `MIN_FILL` entries (the classic B+-tree bulk load), with
    /// `seps[i]` taken as the first word of `children[i + 1]`'s run. All
    /// leaves end up at the same depth and no transient splits happen.
    ///
    /// Returns the number of distinct keys loaded.
    ///
    /// # Panics
    /// Panics if the tree is not empty or the input is not sorted
    /// ascending.
    pub fn bulk_load<K: AsRef<[u8]>>(&mut self, entries: &[(K, u64)]) -> usize {
        assert!(
            self.root.is_none() && self.len == 0,
            "bulk load requires an empty tree"
        );
        let mut words: Vec<u64> = Vec::with_capacity(entries.len());
        let mut prev: Option<&[u8]> = None;
        for (key, tid) in entries {
            let key = key.as_ref();
            assert!(*tid <= MAX_TID, "tid exceeds MAX_TID");
            match prev {
                Some(p) if p == key => {
                    *words.last_mut().expect("prev implies an entry") = *tid;
                    continue;
                }
                Some(p) => assert!(p < key, "bulk-load input is not sorted"),
                None => {}
            }
            prev = Some(key);
            words.push(*tid);
        }
        let n = words.len();
        if n == 0 {
            return 0;
        }
        // Leaf level: (first word of the run, node) pairs.
        let mut level: Vec<(u64, Box<Node>)> = even_chunks(n)
            .map(|(a, b)| {
                let keys = words[a..b].to_vec();
                (
                    words[a],
                    Box::new(Node::Leaf {
                        tids: keys.clone(),
                        keys,
                    }),
                )
            })
            .collect();
        // Stack inner levels until one node remains.
        while level.len() > 1 {
            let ranges: Vec<(usize, usize)> = even_chunks(level.len()).collect();
            let mut nodes = level.into_iter();
            let mut next: Vec<(u64, Box<Node>)> = Vec::with_capacity(ranges.len());
            for (a, b) in ranges {
                let group: Vec<(u64, Box<Node>)> =
                    (a..b).map(|_| nodes.next().expect("sized")).collect();
                let min = group[0].0;
                let seps: Vec<u64> = group[1..].iter().map(|g| g.0).collect();
                let children: Vec<Box<Node>> = group.into_iter().map(|g| g.1).collect();
                next.push((min, Box::new(Node::Inner { seps, children })));
            }
            level = next;
        }
        self.root = Some(level.pop().expect("one node remains").1);
        self.len = n;
        n
    }

    fn insert_rec(source: &S, node: &mut Node, key: &[u8], tid: u64) -> InsertResult {
        match node {
            Node::Leaf { keys, tids } => {
                let i = keys
                    .iter()
                    .position(|&w| source.cmp_tid_key(w, key) != Ordering::Less)
                    .unwrap_or(keys.len());
                if i < keys.len() && source.cmp_tid_key(keys[i], key) == Ordering::Equal {
                    let old = tids[i];
                    keys[i] = tid;
                    tids[i] = tid;
                    return InsertResult::Done(Some(old));
                }
                keys.insert(i, tid);
                tids.insert(i, tid);
                if keys.len() <= FANOUT {
                    return InsertResult::Done(None);
                }
                // Split in half; the right half's first key separates.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_tids = tids.split_off(mid);
                let sep = right_keys[0];
                InsertResult::Split {
                    sep,
                    right: Box::new(Node::Leaf {
                        keys: right_keys,
                        tids: right_tids,
                    }),
                }
            }
            Node::Inner { seps, children } => {
                let at = seps
                    .iter()
                    .position(|&w| source.cmp_tid_key(w, key) == Ordering::Greater)
                    .unwrap_or(seps.len());
                match Self::insert_rec(source, &mut children[at], key, tid) {
                    InsertResult::Done(old) => InsertResult::Done(old),
                    InsertResult::Split { sep, right } => {
                        seps.insert(at, sep);
                        children.insert(at + 1, right);
                        if children.len() <= FANOUT {
                            return InsertResult::Done(None);
                        }
                        let mid = children.len() / 2;
                        // Separator moving up is the one between the halves.
                        let up = seps[mid - 1];
                        let right_seps = seps.split_off(mid);
                        seps.pop(); // `up` moves to the parent
                        let right_children = children.split_off(mid);
                        InsertResult::Split {
                            sep: up,
                            right: Box::new(Node::Inner {
                                seps: right_seps,
                                children: right_children,
                            }),
                        }
                    }
                }
            }
        }
    }

    /// Remove `key`; returns its TID if present. Underflowing nodes borrow
    /// from or merge with a sibling, keeping all non-root nodes at least
    /// half full.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let root = self.root.as_mut()?;
        let removed = Self::remove_rec(&self.source, root, key)?;
        self.len -= 1;
        // Shrink the root: an inner root with one child collapses; an empty
        // leaf root empties the tree.
        loop {
            match self.root.as_deref_mut() {
                Some(Node::Inner { children, .. }) if children.len() == 1 => {
                    let only = children.pop().expect("one child");
                    self.root = Some(only);
                }
                Some(Node::Leaf { keys, .. }) if keys.is_empty() => {
                    self.root = None;
                    break;
                }
                _ => break,
            }
        }
        Some(removed)
    }

    fn remove_rec(source: &S, node: &mut Node, key: &[u8]) -> Option<u64> {
        match node {
            Node::Leaf { keys, tids } => {
                let i = keys
                    .iter()
                    .position(|&w| source.cmp_tid_key(w, key) != Ordering::Less)?;
                if i >= keys.len() || source.cmp_tid_key(keys[i], key) != Ordering::Equal {
                    return None;
                }
                keys.remove(i);
                Some(tids.remove(i))
            }
            Node::Inner { seps, children } => {
                let at = seps
                    .iter()
                    .position(|&w| source.cmp_tid_key(w, key) == Ordering::Greater)
                    .unwrap_or(seps.len());
                let removed = Self::remove_rec(source, &mut children[at], key)?;
                if children[at].len() < MIN_FILL {
                    Self::rebalance(seps, children, at);
                }
                Some(removed)
            }
        }
    }

    /// Fix an underflow at `children[at]` by borrowing from or merging with
    /// the left or right sibling.
    #[allow(clippy::vec_box)]
    fn rebalance(seps: &mut Vec<u64>, children: &mut Vec<Box<Node>>, at: usize) {
        let (left, right, sep_idx) = if at > 0 {
            (at - 1, at, at - 1)
        } else if at + 1 < children.len() {
            (at, at + 1, at)
        } else {
            return; // single child: only possible at the root, handled above
        };

        // Try to borrow when the sibling has spare slots, else merge.
        let sibling_len = children[if left == at { right } else { left }].len();
        let (a, b) = children.split_at_mut(right);
        let (lnode, rnode) = (a[left].as_mut(), b[0].as_mut());

        match (lnode, rnode) {
            (
                Node::Leaf { keys: lk, tids: lt },
                Node::Leaf { keys: rk, tids: rt },
            ) => {
                if sibling_len > MIN_FILL {
                    if left == at {
                        // Borrow the right sibling's first slot.
                        lk.push(rk.remove(0));
                        lt.push(rt.remove(0));
                    } else {
                        // Borrow the left sibling's last slot.
                        rk.insert(0, lk.pop().expect("non-empty"));
                        rt.insert(0, lt.pop().expect("non-empty"));
                    }
                    seps[sep_idx] = rk[0];
                } else {
                    lk.append(rk);
                    lt.append(rt);
                    seps.remove(sep_idx);
                    children.remove(right);
                }
            }
            (
                Node::Inner {
                    seps: ls,
                    children: lc,
                },
                Node::Inner {
                    seps: rs,
                    children: rc,
                },
            ) => {
                if sibling_len > MIN_FILL {
                    if left == at {
                        ls.push(seps[sep_idx]);
                        seps[sep_idx] = rs.remove(0);
                        lc.push(rc.remove(0));
                    } else {
                        rs.insert(0, seps[sep_idx]);
                        seps[sep_idx] = ls.pop().expect("non-empty");
                        rc.insert(0, lc.pop().expect("non-empty"));
                    }
                } else {
                    ls.push(seps[sep_idx]);
                    ls.append(rs);
                    lc.append(rc);
                    seps.remove(sep_idx);
                    children.remove(right);
                }
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> Cursor<'_> {
        let mut frames = Vec::new();
        if let Some(root) = self.root.as_deref() {
            frames.push((root, 0usize));
        }
        Cursor { frames }
    }

    /// Iterator over TIDs with keys `>= key`, ascending.
    pub fn range_from(&self, key: &[u8]) -> Cursor<'_> {
        let mut frames = Vec::new();
        let mut node = match self.root.as_deref() {
            Some(n) => n,
            None => return Cursor { frames },
        };
        loop {
            match node {
                Node::Inner { seps, children } => {
                    let at = self.child_index(seps, key);
                    frames.push((node, at + 1));
                    node = &children[at];
                }
                Node::Leaf { keys, .. } => {
                    let i = self.lower_bound(keys, key);
                    frames.push((node, i));
                    break;
                }
            }
        }
        Cursor { frames }
    }

    /// Collect up to `limit` TIDs with keys `>= key`.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        self.range_from(key).take(limit).collect()
    }

    /// Memory footprint: every node accounts for its fixed 256-byte slot
    /// area plus header, independent of fill (STX-style fixed-size nodes).
    pub fn memory_stats(&self) -> MemoryStats {
        fn walk(node: &Node) -> (usize, usize) {
            let mut bytes = node.node_bytes();
            let mut count = 1;
            if let Node::Inner { children, .. } = node {
                for c in children {
                    let (b, n) = walk(c);
                    bytes += b;
                    count += n;
                }
            }
            (bytes, count)
        }
        let (node_bytes, node_count) = self.root.as_deref().map(walk).unwrap_or((0, 0));
        MemoryStats {
            node_bytes,
            node_count,
            aux_bytes: 0,
            key_count: self.len,
            capacity_bytes: 0,
        }
    }

    /// Leaf-depth histogram (all leaves share the B-tree's uniform depth).
    pub fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(node: &Node, depth: usize, stats: &mut DepthStats) {
            match node {
                Node::Leaf { keys, .. } => stats.record_n(depth, keys.len() as u64),
                Node::Inner { children, .. } => {
                    for c in children {
                        walk(c, depth + 1, stats);
                    }
                }
            }
        }
        if let Some(root) = self.root.as_deref() {
            walk(root, 1, &mut stats);
        }
        stats
    }

    /// Structural invariant check (test support): sorted slots, separator
    /// correctness, fill factors, uniform leaf depth.
    pub fn validate(&self) {
        let Some(root) = self.root.as_deref() else {
            assert_eq!(self.len, 0);
            return;
        };
        let mut scratch = [0u8; hot_keys::KEY_SCRATCH_LEN];
        let mut leaf_depths = Vec::new();
        let mut count = 0usize;
        let mut last: Option<Vec<u8>> = None;
        self.validate_rec(root, 1, true, &mut leaf_depths, &mut count, &mut last, &mut scratch);
        assert_eq!(count, self.len, "leaf slot count equals len");
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "all leaves at the same depth"
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_rec(
        &self,
        node: &Node,
        depth: usize,
        is_root: bool,
        leaf_depths: &mut Vec<usize>,
        count: &mut usize,
        last: &mut Option<Vec<u8>>,
        scratch: &mut [u8; hot_keys::KEY_SCRATCH_LEN],
    ) {
        match node {
            Node::Leaf { keys, tids } => {
                assert!(keys.len() <= FANOUT);
                assert!(is_root || keys.len() >= MIN_FILL || keys.len() + 1 >= MIN_FILL);
                assert_eq!(keys.len(), tids.len());
                for &w in keys {
                    let k = self.source.load_key(w, scratch).to_vec();
                    if let Some(prev) = last {
                        assert!(*prev < k, "keys strictly ascending");
                    }
                    *last = Some(k);
                    *count += 1;
                }
                leaf_depths.push(depth);
            }
            Node::Inner { seps, children } => {
                assert!(children.len() <= FANOUT);
                assert!(is_root || children.len() >= MIN_FILL);
                assert_eq!(seps.len() + 1, children.len());
                for (i, c) in children.iter().enumerate() {
                    self.validate_rec(c, depth + 1, false, leaf_depths, count, last, scratch);
                    // After finishing child i, the next separator must be >
                    // every key seen so far.
                    if i < seps.len() {
                        let sep_key = self.source.load_key(seps[i], scratch).to_vec();
                        if let Some(prev) = last {
                            assert!(*prev < sep_key, "separator above left subtree");
                        }
                    }
                }
            }
        }
    }
}

/// Split `n` items into `ceil(n / FANOUT)` contiguous half-open chunks
/// whose sizes differ by at most one — every chunk holds at least
/// `MIN_FILL` items once `n >= MIN_FILL`, which is what lets the bulk
/// loader satisfy the structural fill invariant without tail rebalancing.
fn even_chunks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let groups = n.div_ceil(FANOUT);
    (0..groups).map(move |g| (g * n / groups, (g + 1) * n / groups))
}

/// Ordered iterator over leaf TIDs.
pub struct Cursor<'a> {
    frames: Vec<(&'a Node, usize)>,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let &(node, idx) = self.frames.last()?;
            match node {
                Node::Leaf { tids, .. } => {
                    if idx >= tids.len() {
                        self.frames.pop();
                        continue;
                    }
                    self.frames.last_mut().expect("non-empty").1 += 1;
                    return Some(tids[idx]);
                }
                Node::Inner { children, .. } => {
                    if idx >= children.len() {
                        self.frames.pop();
                        continue;
                    }
                    self.frames.last_mut().expect("non-empty").1 += 1;
                    self.frames.push((&children[idx], 0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};

    fn int_tree(keys: &[u64]) -> BPlusTree<EmbeddedKeySource> {
        let mut t = BPlusTree::new(EmbeddedKeySource);
        for &k in keys {
            t.insert(&encode_u64(k), k);
        }
        t
    }

    #[test]
    fn empty_and_single() {
        let mut t = BPlusTree::new(EmbeddedKeySource);
        assert!(t.is_empty());
        assert_eq!(t.get(&encode_u64(0)), None);
        t.insert(&encode_u64(9), 9);
        assert_eq!(t.get(&encode_u64(9)), Some(9));
        assert_eq!(t.len(), 1);
        t.validate();
    }

    #[test]
    fn fill_leaf_then_split() {
        let keys: Vec<u64> = (0..FANOUT as u64 + 1).collect();
        let t = int_tree(&keys);
        t.validate();
        assert!(t.memory_stats().node_count >= 3, "root + two leaves");
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn ten_thousand_sorted_and_random() {
        let sorted: Vec<u64> = (0..10_000).collect();
        let t = int_tree(&sorted);
        t.validate();
        assert_eq!(t.iter().collect::<Vec<_>>(), sorted);

        let mut x = 0x243F_6A88_85A3_08D3u64;
        let random: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> 1
            })
            .collect();
        let t = int_tree(&random);
        t.validate();
        let mut expect = random.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(t.iter().collect::<Vec<_>>(), expect);
        for &k in random.iter().step_by(111) {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn upsert() {
        let mut arena = ArenaKeySource::new();
        let t1 = arena.push(b"k");
        let t2 = arena.push(b"k");
        let mut t = BPlusTree::new(&arena);
        assert_eq!(t.insert(b"k", t1), None);
        assert_eq!(t.insert(b"k", t2), Some(t1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn string_keys_resolved_through_source() {
        let mut arena = ArenaKeySource::new();
        let words: Vec<Vec<u8>> = ["delta", "alpha", "echo", "charlie", "bravo"]
            .iter()
            .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = words.iter().map(|w| arena.push(w)).collect();
        let mut t = BPlusTree::new(&arena);
        for (w, &tid) in words.iter().zip(&tids) {
            t.insert(w, tid);
        }
        t.validate();
        for (w, &tid) in words.iter().zip(&tids) {
            assert_eq!(t.get(w), Some(tid));
        }
        // In-order = lexicographic.
        let got: Vec<Vec<u8>> = t.iter().map(|tid| arena.key(tid).to_vec()).collect();
        let mut want = words.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn scans() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let t = int_tree(&keys);
        assert_eq!(t.scan(&encode_u64(30), 5), vec![30, 33, 36, 39, 42]);
        assert_eq!(t.scan(&encode_u64(31), 3), vec![33, 36, 39]);
        assert_eq!(t.scan(&encode_u64(3000), 3), Vec::<u64>::new());
        assert_eq!(t.scan(&encode_u64(0), 2), vec![0, 3]);
    }

    #[test]
    fn removal_with_rebalancing() {
        let keys: Vec<u64> = (0..2_000).collect();
        let mut t = int_tree(&keys);
        // Remove every other key, then validate fill factors.
        for k in (0..2_000u64).step_by(2) {
            assert_eq!(t.remove(&encode_u64(k)), Some(k));
        }
        t.validate();
        assert_eq!(t.len(), 1000);
        for k in 0..2_000u64 {
            let want = if k % 2 == 1 { Some(k) } else { None };
            assert_eq!(t.get(&encode_u64(k)), want);
        }
        // Remove the rest in reverse order down to empty.
        for k in (1..2_000u64).step_by(2).collect::<Vec<_>>().into_iter().rev() {
            assert_eq!(t.remove(&encode_u64(k)), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.memory_stats().node_bytes, 0);
    }

    #[test]
    fn memory_is_dataset_independent() {
        // The defining property of the paper's BT baseline: bytes/key does
        // not depend on key length, only on the number of keys.
        let n = 5_000u64;
        let ints = int_tree(&(0..n).collect::<Vec<_>>());

        let mut arena = ArenaKeySource::new();
        let keys: Vec<Vec<u8>> = (0..n)
            .map(|i| hot_keys::str_key(format!("https://example.com/some/long/url/{i:08}").as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut bt = BPlusTree::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            bt.insert(k, tid);
        }
        let a = ints.memory_stats();
        let b = bt.memory_stats();
        let ratio = a.bytes_per_key() / b.bytes_per_key();
        assert!(
            (0.8..1.25).contains(&ratio),
            "int {} vs url {} bytes/key",
            a.bytes_per_key(),
            b.bytes_per_key()
        );
    }

    #[test]
    fn depth_is_uniform_and_logarithmic() {
        let t = int_tree(&(0..10_000u64).collect::<Vec<_>>());
        let d = t.depth_stats();
        assert_eq!(d.min_depth(), d.max_depth());
        // fanout 16, 10k keys -> depth 4-5 (sorted inserts halve fill).
        assert!(d.max_depth().unwrap() <= 6);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        // Sweep sizes around the fill-invariant edge cases: single leaf,
        // one over a leaf, exact multiples and awkward tails.
        for n in [1u64, 7, 16, 17, 32, 100, 255, 256, 257, 4096, 9999] {
            let keys: Vec<u64> = (0..n).map(|i| i * 31 % (n * 7)).collect();
            let incr = int_tree(&keys);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let entries: Vec<([u8; 8], u64)> =
                sorted.iter().map(|&k| (encode_u64(k), k)).collect();
            let mut bulk = BPlusTree::new(EmbeddedKeySource);
            assert_eq!(bulk.bulk_load(&entries), sorted.len(), "n={n}");
            bulk.validate();
            assert_eq!(bulk.len(), incr.len(), "n={n}");
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                incr.iter().collect::<Vec<_>>(),
                "n={n}"
            );
            for &k in sorted.iter().step_by(13) {
                assert_eq!(bulk.get(&encode_u64(k)), Some(k), "n={n}");
            }
            // Full leaves: never more nodes than the split-built tree.
            assert!(
                bulk.memory_stats().node_count <= incr.memory_stats().node_count,
                "n={n}"
            );
        }
    }

    #[test]
    fn bulk_load_duplicates_and_empty() {
        let mut arena = ArenaKeySource::new();
        let t1 = arena.push(b"k");
        let t2 = arena.push(b"k");
        let t3 = arena.push(b"m");
        let mut t = BPlusTree::new(&arena);
        let entries: Vec<(&[u8], u64)> = vec![(b"k", t1), (b"k", t2), (b"m", t3)];
        assert_eq!(t.bulk_load(&entries), 2, "duplicate k collapses");
        assert_eq!(t.get(b"k"), Some(t2), "last write wins");
        assert_eq!(t.get(b"m"), Some(t3));
        t.validate();

        let mut empty = BPlusTree::new(EmbeddedKeySource);
        assert_eq!(empty.bulk_load::<[u8; 8]>(&[]), 0);
        assert!(empty.is_empty());
        empty.validate();
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn bulk_load_rejects_unsorted() {
        let mut t = BPlusTree::new(EmbeddedKeySource);
        t.bulk_load(&[(encode_u64(5), 5u64), (encode_u64(1), 1u64)]);
    }
}
