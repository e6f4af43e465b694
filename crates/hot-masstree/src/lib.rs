//! Masstree-like hybrid index — the paper's "Masstree" baseline
//! (Mao, Kohler, Morris, EuroSys 2012), reimplemented from scratch.
//!
//! Masstree is "a trie with a large span of 64 bits whose internal node
//! structure is a B-tree" (Section 2 of the HOT paper): layer `d` indexes
//! bytes `8d..8d+8` of the key as one big-endian 64-bit *slice* inside a
//! B+-tree; keys that share a full slice and continue descend into a
//! nested next-layer tree. This solves the sparsity problem of fixed-span
//! tries "at the cost of relying more heavily on comparison-based search".
//!
//! Slice comparisons are native `u64` compares (the Masstree trick); only
//! the final candidate is verified against the full key through the shared
//! [`KeySource`]. Keys are zero-padded and must be prefix-free, like
//! everywhere else in this workspace.
//!
//! A slot in a layer leaf holds the key ending at this layer (a TID), a
//! nested layer (keys continuing past the slice), or both.

#![deny(missing_docs)]

use hot_keys::MemoryStats;
use hot_keys::{DepthStats, KeySource, PaddedKey, KEY_SCRATCH_LEN, MAX_TID};

/// B+-tree fanout within a layer (Masstree uses 15-key nodes; we keep the
/// workspace-wide 16).
pub const FANOUT: usize = 16;

/// One leaf slot: the key(s) associated with a slice.
enum Slot {
    /// A single key that ends within this slice (its suffix, if any, is
    /// implied by the TID and verified on lookup).
    Tid(u64),
    /// Keys that share this slice and continue into the next layer.
    Layer(Box<Layer>),
    /// Both: one key ends exactly here, others continue.
    Both(u64, Box<Layer>),
}

impl Slot {
    fn tid(&self) -> Option<u64> {
        match self {
            Slot::Tid(t) | Slot::Both(t, _) => Some(*t),
            Slot::Layer(_) => None,
        }
    }

    fn layer(&self) -> Option<&Layer> {
        match self {
            Slot::Layer(l) | Slot::Both(_, l) => Some(l),
            Slot::Tid(_) => None,
        }
    }
}

/// B+-tree node within one layer.
#[allow(clippy::vec_box)] // boxed children keep split/merge moves O(1) per child
enum LNode {
    Leaf {
        keys: Vec<u64>,
        slots: Vec<Slot>,
    },
    Inner {
        seps: Vec<u64>,
        children: Vec<Box<LNode>>,
    },
}

impl LNode {
    fn new_leaf() -> LNode {
        LNode::Leaf {
            keys: Vec::with_capacity(FANOUT),
            slots: Vec::with_capacity(FANOUT),
        }
    }
}

/// One trie layer: a B+-tree over 64-bit key slices.
struct Layer {
    root: LNode,
    len: usize,
}

impl Layer {
    fn new() -> Layer {
        Layer {
            root: LNode::new_leaf(),
            len: 0,
        }
    }
}

enum InsertUp {
    Done,
    Split { sep: u64, right: Box<LNode> },
}

/// The Masstree-like index.
pub struct Masstree<S> {
    root: Layer,
    source: S,
    len: usize,
}

/// Big-endian 64-bit slice of the padded key at layer `d`.
#[inline]
fn slice_at(key: &PaddedKey, d: usize) -> u64 {
    hot_bits::load_be_u64(key.padded(), d * 8)
}

/// Whether the key terminates within layer `d`'s slice.
#[inline]
fn ends_at(key: &PaddedKey, d: usize) -> bool {
    key.len() <= (d + 1) * 8
}

impl<S: KeySource> Masstree<S> {
    /// Create an empty tree resolving keys through `source`.
    pub fn new(source: S) -> Self {
        Masstree {
            root: Layer::new(),
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

    /// Look up `key`; returns its TID if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let padded = PaddedKey::from_key(key);
        let mut layer = &self.root;
        let mut d = 0usize;
        loop {
            let slice = slice_at(&padded, d);
            let slot = layer_find(&layer.root, slice)?;
            let ends = ends_at(&padded, d);
            match slot {
                Slot::Tid(t) => return self.verify(*t, key),
                Slot::Both(t, l) => {
                    if ends {
                        return self.verify(*t, key);
                    }
                    layer = l;
                    d += 1;
                }
                Slot::Layer(l) => {
                    if ends {
                        return None;
                    }
                    layer = l;
                    d += 1;
                }
            }
        }
    }

    #[inline]
    fn verify(&self, tid: u64, key: &[u8]) -> Option<u64> {
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let stored = self.source.load_key(tid, &mut scratch);
        hot_bits::first_mismatch_bit(stored, key)
            .is_none()
            .then_some(tid)
    }

    /// Insert `key → tid` (upsert); returns the previous TID if present.
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        let padded = PaddedKey::from_key(key);
        // Split borrows: move the layer walk into a free function that only
        // borrows the source immutably.
        let old = insert_into_layer(&self.source, &mut self.root, &padded, 0, tid);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove `key`; returns its TID if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        self.get(key)?;
        let padded = PaddedKey::from_key(key);
        let removed = remove_from_layer(&mut self.root, &padded, 0);
        debug_assert!(removed.is_some());
        self.len -= 1;
        removed
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> Cursor<'_, S> {
        Cursor {
            frames: vec![Frame::Node(&self.root.root, 0)],
            pending: None,
            _tree: self,
        }
    }

    /// Iterator over TIDs with keys `>= key`, ascending.
    pub fn range_from(&self, key: &[u8]) -> Cursor<'_, S> {
        let padded = PaddedKey::from_key(key);
        let mut frames = Vec::new();
        self.seek(&self.root, &padded, key, 0, &mut frames);
        Cursor {
            frames,
            pending: None,
            _tree: self,
        }
    }

    /// Build cursor frames for the first entry `>= key` within `layer`.
    fn seek<'a>(
        &'a self,
        layer: &'a Layer,
        padded: &PaddedKey,
        key: &[u8],
        d: usize,
        frames: &mut Vec<Frame<'a>>,
    ) {
        let slice = slice_at(padded, d);
        // Descend the layer's B-tree, queueing right siblings.
        let mut node = &layer.root;
        loop {
            match node {
                LNode::Inner { seps, children } => {
                    let at = seps.partition_point(|&s| s <= slice);
                    frames.push(Frame::Node(node, at + 1));
                    node = &children[at];
                }
                LNode::Leaf { keys, slots } => {
                    let at = keys.partition_point(|&s| s < slice);
                    if at < keys.len() && keys[at] == slice {
                        // Boundary slot: decide inclusion precisely.
                        frames.push(Frame::Node(node, at + 1));
                        let ends = ends_at(padded, d);
                        match &slots[at] {
                            Slot::Tid(t) => {
                                let mut scratch = [0u8; KEY_SCRATCH_LEN];
                                if self.source.load_key(*t, &mut scratch) >= key {
                                    frames.push(Frame::Pending(*t));
                                }
                            }
                            Slot::Layer(l) => {
                                if ends {
                                    // Everything below continues past the
                                    // slice, hence sorts after `key`.
                                    frames.push(Frame::Node(&l.root, 0));
                                } else {
                                    self.seek(l, padded, key, d + 1, frames);
                                }
                            }
                            Slot::Both(t, l) => {
                                if ends {
                                    frames.push(Frame::Node(&l.root, 0));
                                    let mut scratch = [0u8; KEY_SCRATCH_LEN];
                                    if self.source.load_key(*t, &mut scratch) >= key {
                                        frames.push(Frame::Pending(*t));
                                    }
                                } else {
                                    // The ending key sorts before `key`.
                                    self.seek(l, padded, key, d + 1, frames);
                                }
                            }
                        }
                    } else {
                        frames.push(Frame::Node(node, at));
                    }
                    return;
                }
            }
        }
    }

    /// Collect up to `limit` TIDs with keys `>= key`.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        self.range_from(key).take(limit).collect()
    }

    /// Memory footprint of all layer nodes, plus the key-suffix (ksuf)
    /// storage the original Masstree keeps in its leaves: a key ending in
    /// layer `d` whose bytes extend past the matched slices has its suffix
    /// materialized leaf-side. Our TID-based variant resolves suffixes
    /// through the key source instead, but charges the same bytes so the
    /// Figure 9 comparison stays faithful to the original's footprint.
    pub fn memory_stats(&self) -> MemoryStats {
        fn node_size<S: KeySource>(src: &S, node: &LNode, depth: usize) -> (usize, usize, usize) {
            match node {
                LNode::Leaf { slots, .. } => {
                    // Fixed-capacity slot area (16 slices + 16 slots) plus
                    // recursion into nested layers.
                    let mut bytes =
                        std::mem::size_of::<LNode>() + FANOUT * (8 + std::mem::size_of::<Slot>());
                    let mut count = 1;
                    let mut ksuf = 0usize;
                    let mut scratch = [0u8; KEY_SCRATCH_LEN];
                    for s in slots {
                        if let Some(t) = s.tid() {
                            let len = src.load_key(t, &mut scratch).len();
                            ksuf += len.saturating_sub((depth + 1) * 8);
                        }
                        if let Some(l) = s.layer() {
                            let (b, c, k) = node_size(src, &l.root, depth + 1);
                            bytes += b + std::mem::size_of::<Layer>();
                            count += c;
                            ksuf += k;
                        }
                    }
                    (bytes, count, ksuf)
                }
                LNode::Inner { children, .. } => {
                    let mut bytes = std::mem::size_of::<LNode>() + FANOUT * 16;
                    let mut count = 1;
                    let mut ksuf = 0usize;
                    for c in children {
                        let (b, n, k) = node_size(src, c, depth);
                        bytes += b;
                        count += n;
                        ksuf += k;
                    }
                    (bytes, count, ksuf)
                }
            }
        }
        let (node_bytes, node_count, ksuf) = node_size(&self.source, &self.root.root, 0);
        MemoryStats {
            node_bytes,
            node_count,
            aux_bytes: ksuf,
            key_count: self.len,
            capacity_bytes: 0,
        }
    }

    /// Leaf-depth histogram: depth counts B-tree nodes traversed across all
    /// layers (the comparison-based work per lookup).
    pub fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(node: &LNode, depth: usize, stats: &mut DepthStats) {
            match node {
                LNode::Leaf { slots, .. } => {
                    for s in slots {
                        if s.tid().is_some() {
                            stats.record(depth);
                        }
                        if let Some(l) = s.layer() {
                            walk(&l.root, depth + 1, stats);
                        }
                    }
                }
                LNode::Inner { children, .. } => {
                    for c in children {
                        walk(c, depth + 1, stats);
                    }
                }
            }
        }
        walk(&self.root.root, 1, &mut stats);
        stats
    }

    /// Structural invariant check (test support): slice order within
    /// layers, layer sizes, and full-key order across the whole tree.
    pub fn validate(&self) {
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let tids: Vec<u64> = self.iter().collect();
        assert_eq!(tids.len(), self.len, "iterated count equals len");
        let mut prev: Option<Vec<u8>> = None;
        for tid in &tids {
            let k = self.source.load_key(*tid, &mut scratch).to_vec();
            if let Some(p) = &prev {
                assert!(*p < k, "iteration strictly ascending");
            }
            assert_eq!(self.get(&k), Some(*tid), "every key findable");
            prev = Some(k);
        }
    }
}

/// Find the slot for `slice` within a layer's B-tree.
fn layer_find(node: &LNode, slice: u64) -> Option<&Slot> {
    let mut node = node;
    loop {
        match node {
            LNode::Inner { seps, children } => {
                let at = seps.partition_point(|&s| s <= slice);
                node = &children[at];
            }
            LNode::Leaf { keys, slots } => {
                let at = keys.partition_point(|&s| s < slice);
                return (at < keys.len() && keys[at] == slice).then(|| &slots[at]);
            }
        }
    }
}

fn insert_into_layer<S: KeySource>(
    source: &S,
    layer: &mut Layer,
    key: &PaddedKey,
    d: usize,
    tid: u64,
) -> Option<u64> {
    let slice = slice_at(key, d);
    let (old, up) = insert_rec(source, &mut layer.root, key, d, slice, tid);
    if let InsertUp::Split { sep, right } = up {
        let old_root = std::mem::replace(&mut layer.root, LNode::new_leaf());
        layer.root = LNode::Inner {
            seps: vec![sep],
            children: vec![Box::new(old_root), right],
        };
    }
    if old.is_none() {
        layer.len += 1;
    }
    old
}

fn insert_rec<S: KeySource>(
    source: &S,
    node: &mut LNode,
    key: &PaddedKey,
    d: usize,
    slice: u64,
    tid: u64,
) -> (Option<u64>, InsertUp) {
    match node {
        LNode::Inner { seps, children } => {
            let at = seps.partition_point(|&s| s <= slice);
            let (old, up) = insert_rec(source, &mut children[at], key, d, slice, tid);
            match up {
                InsertUp::Done => (old, InsertUp::Done),
                InsertUp::Split { sep, right } => {
                    seps.insert(at, sep);
                    children.insert(at + 1, right);
                    if children.len() <= FANOUT {
                        return (old, InsertUp::Done);
                    }
                    let mid = children.len() / 2;
                    let promote = seps[mid - 1];
                    let right_seps = seps.split_off(mid);
                    seps.pop();
                    let right_children = children.split_off(mid);
                    (
                        old,
                        InsertUp::Split {
                            sep: promote,
                            right: Box::new(LNode::Inner {
                                seps: right_seps,
                                children: right_children,
                            }),
                        },
                    )
                }
            }
        }
        LNode::Leaf { keys, slots } => {
            let at = keys.partition_point(|&s| s < slice);
            if at < keys.len() && keys[at] == slice {
                let old = slot_insert(source, &mut slots[at], key, d, tid);
                return (old, InsertUp::Done);
            }
            keys.insert(at, slice);
            slots.insert(at, Slot::Tid(tid));
            if keys.len() <= FANOUT {
                return (None, InsertUp::Done);
            }
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid);
            let right_slots = slots.split_off(mid);
            let sep = right_keys[0];
            (
                None,
                InsertUp::Split {
                    sep,
                    right: Box::new(LNode::Leaf {
                        keys: right_keys,
                        slots: right_slots,
                    }),
                },
            )
        }
    }
}

/// Insert into an occupied slot (same slice). Handles upsert, sub-layer
/// creation and the ends-here/continues distinction.
fn slot_insert<S: KeySource>(
    source: &S,
    slot: &mut Slot,
    key: &PaddedKey,
    d: usize,
    tid: u64,
) -> Option<u64> {
    let ends = ends_at(key, d);
    match slot {
        Slot::Tid(existing) => {
            let existing = *existing;
            let mut scratch = [0u8; KEY_SCRATCH_LEN];
            let stored = source.load_key(existing, &mut scratch);
            if hot_bits::first_mismatch_bit(stored, key.bytes()).is_none() {
                *slot = Slot::Tid(tid);
                return Some(existing);
            }
            // Conflict: same slice, different keys — at most one ends here.
            let stored_padded = PaddedKey::from_key(stored);
            let existing_ends = ends_at(&stored_padded, d);
            debug_assert!(
                !(ends && existing_ends),
                "two distinct keys cannot both end in the same slice"
            );
            if ends {
                // New key ends; existing continues into a fresh sub-layer.
                let mut sub = Layer::new();
                insert_into_layer(source, &mut sub, &stored_padded, d + 1, existing);
                *slot = Slot::Both(tid, Box::new(sub));
            } else if existing_ends {
                let mut sub = Layer::new();
                insert_into_layer(source, &mut sub, key, d + 1, tid);
                *slot = Slot::Both(existing, Box::new(sub));
            } else {
                // Both continue: push both down (they may share further
                // slices; the recursion handles it).
                let mut sub = Layer::new();
                insert_into_layer(source, &mut sub, &stored_padded, d + 1, existing);
                insert_into_layer(source, &mut sub, key, d + 1, tid);
                *slot = Slot::Layer(Box::new(sub));
            }
            None
        }
        Slot::Layer(l) => {
            if ends {
                let l = std::mem::replace(l, Box::new(Layer::new()));
                *slot = Slot::Both(tid, l);
                None
            } else {
                insert_into_layer(source, l, key, d + 1, tid)
            }
        }
        Slot::Both(existing, l) => {
            if ends {
                // Same slice, both end -> same key: upsert.
                let old = *existing;
                *existing = tid;
                Some(old)
            } else {
                insert_into_layer(source, l, key, d + 1, tid)
            }
        }
    }
}

fn remove_from_layer(layer: &mut Layer, key: &PaddedKey, d: usize) -> Option<u64> {
    let slice = slice_at(key, d);
    let removed = remove_rec(&mut layer.root, key, d, slice);
    if removed.is_some() {
        layer.len -= 1;
    }
    // Root shrink: an inner root with a single child collapses.
    loop {
        match &mut layer.root {
            LNode::Inner { children, .. } if children.len() == 1 => {
                let only = children.pop().expect("one child");
                layer.root = *only;
            }
            _ => break,
        }
    }
    removed
}

fn remove_rec(node: &mut LNode, key: &PaddedKey, d: usize, slice: u64) -> Option<u64> {
    match node {
        LNode::Inner { seps, children } => {
            let at = seps.partition_point(|&s| s <= slice);
            let removed = remove_rec(&mut children[at], key, d, slice)?;
            // Merge an emptied leaf child away (no rebalancing: layers are
            // small and correctness is what the baseline needs).
            let empty =
                matches!(children[at].as_ref(), LNode::Leaf { keys, .. } if keys.is_empty());
            if empty && children.len() > 1 {
                children.remove(at);
                seps.remove(at.min(seps.len() - 1));
            }
            Some(removed)
        }
        LNode::Leaf { keys, slots } => {
            let at = keys.partition_point(|&s| s < slice);
            if at >= keys.len() || keys[at] != slice {
                return None;
            }
            let ends = ends_at(key, d);
            match &mut slots[at] {
                Slot::Tid(t) => {
                    let tid = *t;
                    keys.remove(at);
                    slots.remove(at);
                    Some(tid)
                }
                Slot::Both(t, l) => {
                    if ends {
                        let tid = *t;
                        let l = match std::mem::replace(&mut slots[at], Slot::Tid(0)) {
                            Slot::Both(_, l) => l,
                            _ => unreachable!(),
                        };
                        slots[at] = Slot::Layer(l);
                        Some(tid)
                    } else {
                        let removed = remove_from_layer(l, key, d + 1)?;
                        if l.len == 0 {
                            let t = *t;
                            slots[at] = Slot::Tid(t);
                        }
                        Some(removed)
                    }
                }
                Slot::Layer(l) => {
                    if ends {
                        return None;
                    }
                    let removed = remove_from_layer(l, key, d + 1)?;
                    if l.len == 0 {
                        keys.remove(at);
                        slots.remove(at);
                    } else if l.len == 1 {
                        // Collapse a singleton pure-TID sub-layer.
                        if let LNode::Leaf { slots: ss, .. } = &l.root {
                            if ss.len() == 1 {
                                if let Slot::Tid(t) = ss[0] {
                                    slots[at] = Slot::Tid(t);
                                }
                            }
                        }
                    }
                    Some(removed)
                }
            }
        }
    }
}

/// Cursor frame: a position in some layer's B-tree, or a key to yield.
enum Frame<'a> {
    Node(&'a LNode, usize),
    Pending(u64),
}

/// Ordered iterator over leaf TIDs.
pub struct Cursor<'a, S> {
    frames: Vec<Frame<'a>>,
    pending: Option<u64>,
    _tree: &'a Masstree<S>,
}

impl<'a, S: KeySource> Iterator for Cursor<'a, S> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(t) = self.pending.take() {
            return Some(t);
        }
        loop {
            match self.frames.last_mut()? {
                Frame::Pending(t) => {
                    let t = *t;
                    self.frames.pop();
                    return Some(t);
                }
                Frame::Node(node, idx) => match node {
                    LNode::Inner { children, .. } => {
                        if *idx >= children.len() {
                            self.frames.pop();
                            continue;
                        }
                        *idx += 1;
                        let child = &children[*idx - 1];
                        self.frames.push(Frame::Node(child, 0));
                    }
                    LNode::Leaf { keys, slots } => {
                        if *idx >= keys.len() {
                            self.frames.pop();
                            continue;
                        }
                        *idx += 1;
                        match &slots[*idx - 1] {
                            Slot::Tid(t) => return Some(*t),
                            Slot::Layer(l) => {
                                self.frames.push(Frame::Node(&l.root, 0));
                            }
                            Slot::Both(t, l) => {
                                let t = *t;
                                self.frames.push(Frame::Node(&l.root, 0));
                                return Some(t);
                            }
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_keys::{encode_u64, str_key, ArenaKeySource, EmbeddedKeySource};

    fn int_tree(keys: &[u64]) -> Masstree<EmbeddedKeySource> {
        let mut t = Masstree::new(EmbeddedKeySource);
        for &k in keys {
            t.insert(&encode_u64(k), k);
        }
        t
    }

    #[test]
    fn empty_and_single_layer_integers() {
        let mut t = Masstree::new(EmbeddedKeySource);
        assert!(t.is_empty());
        assert_eq!(t.get(&encode_u64(1)), None);
        for k in [7u64, 1, 900, 42] {
            t.insert(&encode_u64(k), k);
        }
        // 8-byte keys live entirely in layer 0.
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&encode_u64(900)), Some(900));
        assert_eq!(t.get(&encode_u64(901)), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 7, 42, 900]);
        t.validate();
    }

    #[test]
    fn ten_thousand_integers() {
        let keys: Vec<u64> = (0..10_000).collect();
        let t = int_tree(&keys);
        t.validate();
        assert_eq!(t.iter().collect::<Vec<_>>(), keys);
        for &k in keys.iter().step_by(103) {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn multi_layer_strings() {
        let mut arena = ArenaKeySource::new();
        // 20+ byte keys sharing 16-byte prefixes force three layers.
        let keys: Vec<Vec<u8>> = (0..50)
            .map(|i| str_key(format!("shared-prefix-0123456789-{i:03}").as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Masstree::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        for (k, &tid) in keys.iter().zip(&tids) {
            assert_eq!(t.get(k), Some(tid));
        }
        assert_eq!(
            t.get(&str_key(b"shared-prefix-0123456789-xxx").unwrap()),
            None
        );
        assert_eq!(t.iter().collect::<Vec<_>>(), tids);
    }

    #[test]
    fn key_ending_at_slice_boundary_coexists_with_extension() {
        let mut arena = ArenaKeySource::new();
        // "abcdefg" -> 8 bytes with terminator: ends exactly at slice 0.
        // "abcdefg\x01..." style extensions share slice 0 and continue.
        let short = str_key(b"abcdefg").unwrap();
        let long1 = str_key(b"abcdefg\x01xyz").unwrap();
        let long2 = str_key(b"abcdefg\x02").unwrap();
        let ts = arena.push(&short);
        let t1 = arena.push(&long1);
        let t2 = arena.push(&long2);
        let mut t = Masstree::new(&arena);
        t.insert(&long1, t1);
        t.insert(&short, ts);
        t.insert(&long2, t2);
        t.validate();
        assert_eq!(t.get(&short), Some(ts));
        assert_eq!(t.get(&long1), Some(t1));
        assert_eq!(t.get(&long2), Some(t2));
        // Order: short key first (it is a prefix-before-extension).
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![ts, t1, t2]);
        // Remove the boundary key; extensions survive.
        assert_eq!(t.remove(&short), Some(ts));
        assert_eq!(t.get(&short), None);
        assert_eq!(t.get(&long1), Some(t1));
        t.validate();
    }

    #[test]
    fn removal_collapses_layers() {
        let mut arena = ArenaKeySource::new();
        let keys: Vec<Vec<u8>> = (0..20)
            .map(|i| str_key(format!("long-common-prefix-for-all-{i:02}").as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Masstree::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        for (k, &tid) in keys.iter().zip(&tids) {
            assert_eq!(t.remove(k), Some(tid));
            assert_eq!(t.remove(k), None);
        }
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn scans_across_layers() {
        let mut arena = ArenaKeySource::new();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for stem in ["alpha", "beta", "gamma-very-long-stem"] {
            for i in 0..30 {
                keys.push(str_key(format!("{stem}/{i:04}").as_bytes()).unwrap());
            }
        }
        keys.sort();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Masstree::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        // Scan from several probes, including between keys.
        for probe in ["alpha/0010", "beta", "gamma", "a", "zzz", "beta/0015x"] {
            let probe_key = str_key(probe.as_bytes()).unwrap();
            let want: Vec<u64> = keys
                .iter()
                .zip(&tids)
                .filter(|(k, _)| k.as_slice() >= probe_key.as_slice())
                .map(|(_, &tid)| tid)
                .take(10)
                .collect();
            assert_eq!(t.scan(&probe_key, 10), want, "probe {probe}");
        }
    }

    #[test]
    fn random_integers_match_model() {
        use std::collections::BTreeMap;
        let mut t = Masstree::new(EmbeddedKeySource);
        let mut model = BTreeMap::new();
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 3_000;
            if x % 8 < 5 {
                assert_eq!(t.insert(&encode_u64(k), k), model.insert(k, k));
            } else {
                assert_eq!(t.remove(&encode_u64(k)), model.remove(&k));
            }
        }
        t.validate();
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            model.values().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_grows_with_string_length() {
        // Masstree's defining cost: long keys mean more layers (the paper's
        // Figure 9 shows its footprint growing 230% for urls).
        let n = 2_000u64;
        let ints = int_tree(&(0..n).collect::<Vec<_>>());
        let mut arena = ArenaKeySource::new();
        let keys: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                str_key(
                    format!(
                        "http://www.domain-{:04}.example.org/section-{}/page?id={i:08}",
                        i % 150,
                        i % 11
                    )
                    .as_bytes(),
                )
                .unwrap()
            })
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut urls = Masstree::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            urls.insert(k, tid);
        }
        let a = ints.memory_stats().bytes_per_key();
        let b = urls.memory_stats().bytes_per_key();
        assert!(
            b > a * 1.5,
            "url {b:.1} B/key should far exceed int {a:.1} B/key"
        );
    }
}
