//! Adaptive Radix Tree (ART) — the paper's strongest trie competitor
//! (Leis, Kemper, Neumann, ICDE 2013), reimplemented from scratch.
//!
//! A span-8 radix tree with the two classic space optimizations:
//!
//! * **adaptive node sizes** — inner nodes grow through four layouts
//!   (Node4 → Node16 → Node48 → Node256) and shrink back on deletion;
//! * **path compression** — single-child chains collapse into a per-node
//!   prefix (pessimistically materialized up to 8 bytes; longer prefixes are
//!   verified against a leaf's full key, the "hybrid" scheme of the ART
//!   paper).
//!
//! Leaves are 63-bit TIDs resolved through the shared
//! [`KeySource`], so lookups end with a full-key verification exactly like
//! HOT and the binary Patricia trie — keeping all structures comparable in
//! the Figure 8/9/11 experiments. Keys are treated as zero-padded,
//! prefix-free byte strings (same contract as the rest of the workspace).

#![deny(missing_docs)]

use hot_keys::MemoryStats;
use hot_keys::{DepthStats, KeySource, PaddedKey, KEY_PAD_LEN, KEY_SCRATCH_LEN, MAX_TID};

/// Bytes of prefix stored inline per node; longer compressed paths fall back
/// to a leaf lookup for verification.
pub const MAX_INLINE_PREFIX: usize = 8;

const LEAF_BIT: u64 = 1 << 63;

/// Tagged child word: null, leaf TID (bit 63) or `*mut Node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Child(u64);

impl Child {
    const NULL: Child = Child(0);

    #[inline]
    fn leaf(tid: u64) -> Child {
        debug_assert!(tid <= MAX_TID);
        Child(tid | LEAF_BIT)
    }

    #[inline]
    fn node(ptr: *mut Node) -> Child {
        Child(ptr as u64)
    }

    #[inline]
    fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    #[inline]
    fn is_node(self) -> bool {
        !self.is_null() && !self.is_leaf()
    }

    #[inline]
    fn tid(self) -> u64 {
        debug_assert!(self.is_leaf());
        self.0 & !LEAF_BIT
    }

    #[inline]
    fn ptr(self) -> *mut Node {
        debug_assert!(self.is_node());
        self.0 as *mut Node
    }

    /// # Safety
    /// The child must be a node pointer created by `Box::into_raw` and
    /// still owned by the tree.
    #[inline]
    unsafe fn node_ref<'a>(self) -> &'a Node {
        // SAFETY: caller guarantees a live, tree-owned Box allocation.
        unsafe { &*self.ptr() }
    }

    /// # Safety
    /// As [`Self::node_ref`], plus exclusive access.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn node_mut<'a>(self) -> &'a mut Node {
        // SAFETY: caller guarantees a live, tree-owned Box allocation and
        // exclusive access.
        unsafe { &mut *self.ptr() }
    }
}

/// The four adaptive inner-node layouts. The larger bodies are boxed so a
/// node's allocation size tracks its layout (the defining ART property —
/// memory adapts to the fanout), instead of every node paying for the
/// largest variant.
enum Body {
    /// Up to 4 children: parallel key/child arrays, keys sorted.
    N4 {
        len: u8,
        keys: [u8; 4],
        children: [Child; 4],
    },
    /// Up to 16 children: parallel arrays, keys sorted (SIMD-searchable).
    N16 {
        len: u8,
        keys: Box<[u8; 16]>,
        children: Box<[Child; 16]>,
    },
    /// Up to 48 children: 256-entry index into a 48-slot child array.
    N48 {
        len: u8,
        index: Box<[u8; 256]>,
        children: Box<[Child; 48]>,
    },
    /// Direct 256-slot child array.
    N256 {
        len: u16,
        children: Box<[Child; 256]>,
    },
}

const N48_EMPTY: u8 = 0xFF;

/// One inner node: compressed-path header plus the adaptive body.
struct Node {
    /// Total compressed-path length (may exceed the inline capacity).
    prefix_len: u32,
    /// First `min(prefix_len, 8)` compressed-path bytes.
    prefix: [u8; MAX_INLINE_PREFIX],
    body: Body,
}

impl Node {
    fn new_n4(prefix_src: &[u8]) -> Box<Node> {
        let mut prefix = [0u8; MAX_INLINE_PREFIX];
        let inline = prefix_src.len().min(MAX_INLINE_PREFIX);
        prefix[..inline].copy_from_slice(&prefix_src[..inline]);
        Box::new(Node {
            prefix_len: prefix_src.len() as u32,
            prefix,
            body: Body::N4 {
                len: 0,
                keys: [0; 4],
                children: [Child::NULL; 4],
            },
        })
    }

    fn heap_bytes(&self) -> usize {
        let child = std::mem::size_of::<Child>();
        let boxed = match &self.body {
            Body::N4 { .. } => 0,
            Body::N16 { .. } => 16 + 16 * child,
            Body::N48 { .. } => 256 + 48 * child,
            Body::N256 { .. } => 256 * child,
        };
        std::mem::size_of::<Node>() + boxed
    }

    fn count(&self) -> usize {
        match &self.body {
            Body::N4 { len, .. } | Body::N16 { len, .. } | Body::N48 { len, .. } => *len as usize,
            Body::N256 { len, .. } => *len as usize,
        }
    }

    /// The child for `byte`, if any.
    #[inline]
    fn find_child(&self, byte: u8) -> Option<Child> {
        match &self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .map(|i| children[i]),
            Body::N16 {
                len,
                keys,
                children,
            } => {
                // Linear scan; the sorted array is small enough that the
                // branchy SSE variant gains little in Rust.
                keys[..*len as usize]
                    .iter()
                    .position(|&k| k == byte)
                    .map(|i| children[i])
            }
            Body::N48 {
                index, children, ..
            } => {
                let slot = index[byte as usize];
                (slot != N48_EMPTY).then(|| children[slot as usize])
            }
            Body::N256 { children, .. } => {
                let c = children[byte as usize];
                (!c.is_null()).then_some(c)
            }
        }
    }

    /// Mutable slot of the child for `byte`, if present.
    fn find_child_mut(&mut self, byte: u8) -> Option<&mut Child> {
        match &mut self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .map(move |i| &mut children[i]),
            Body::N16 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .map(move |i| &mut children[i]),
            Body::N48 {
                index, children, ..
            } => {
                let slot = index[byte as usize];
                (slot != N48_EMPTY).then(move || &mut children[slot as usize])
            }
            Body::N256 { children, .. } => {
                let c = &mut children[byte as usize];
                (!c.is_null()).then_some(c)
            }
        }
    }

    /// Whether the node is at capacity for its current layout.
    fn is_full(&self) -> bool {
        match &self.body {
            Body::N4 { len, .. } => *len == 4,
            Body::N16 { len, .. } => *len == 16,
            Body::N48 { len, .. } => *len == 48,
            Body::N256 { .. } => false,
        }
    }

    /// Add a child under `byte`. The node must not be full and `byte` must
    /// be absent.
    fn add_child(&mut self, byte: u8, child: Child) {
        match &mut self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let at = keys[..n].partition_point(|&k| k < byte);
                keys.copy_within(at..n, at + 1);
                children.copy_within(at..n, at + 1);
                keys[at] = byte;
                children[at] = child;
                *len += 1;
            }
            Body::N16 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let at = keys[..n].partition_point(|&k| k < byte);
                keys.copy_within(at..n, at + 1);
                children.copy_within(at..n, at + 1);
                keys[at] = byte;
                children[at] = child;
                *len += 1;
            }
            Body::N48 {
                len,
                index,
                children,
            } => {
                debug_assert_eq!(index[byte as usize], N48_EMPTY);
                let slot = children
                    .iter()
                    .position(|c| c.is_null())
                    .expect("node48 not full");
                children[slot] = child;
                index[byte as usize] = slot as u8;
                *len += 1;
            }
            Body::N256 { len, children } => {
                debug_assert!(children[byte as usize].is_null());
                children[byte as usize] = child;
                *len += 1;
            }
        }
    }

    /// Grow to the next layout (Node4 → Node16 → Node48 → Node256).
    #[allow(clippy::needless_range_loop)] // byte value doubles as array index
    fn grow(&mut self) {
        self.body = match &self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => {
                let mut nk = [0u8; 16];
                let mut nc = [Child::NULL; 16];
                nk[..4].copy_from_slice(keys);
                nc[..4].copy_from_slice(children);
                Body::N16 {
                    len: *len,
                    keys: Box::new(nk),
                    children: Box::new(nc),
                }
            }
            Body::N16 {
                len,
                keys,
                children,
            } => {
                let mut index = [N48_EMPTY; 256];
                let mut nc = [Child::NULL; 48];
                for i in 0..*len as usize {
                    index[keys[i] as usize] = i as u8;
                    nc[i] = children[i];
                }
                Body::N48 {
                    len: *len,
                    index: Box::new(index),
                    children: Box::new(nc),
                }
            }
            Body::N48 {
                len,
                index,
                children,
            } => {
                let mut nc = [Child::NULL; 256];
                for byte in 0..256 {
                    let slot = index[byte];
                    if slot != N48_EMPTY {
                        nc[byte] = children[slot as usize];
                    }
                }
                Body::N256 {
                    len: *len as u16,
                    children: Box::new(nc),
                }
            }
            Body::N256 { .. } => unreachable!("Node256 never grows"),
        };
    }

    /// Remove the child under `byte` (must exist), shrinking the layout when
    /// the fill factor allows.
    fn remove_child(&mut self, byte: u8) -> Child {
        let removed;
        match &mut self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let at = keys[..n].iter().position(|&k| k == byte).expect("present");
                removed = children[at];
                keys.copy_within(at + 1..n, at);
                children.copy_within(at + 1..n, at);
                *len -= 1;
            }
            Body::N16 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let at = keys[..n].iter().position(|&k| k == byte).expect("present");
                removed = children[at];
                keys.copy_within(at + 1..n, at);
                children.copy_within(at + 1..n, at);
                *len -= 1;
            }
            Body::N48 {
                len,
                index,
                children,
            } => {
                let slot = index[byte as usize];
                debug_assert_ne!(slot, N48_EMPTY);
                removed = children[slot as usize];
                children[slot as usize] = Child::NULL;
                index[byte as usize] = N48_EMPTY;
                *len -= 1;
            }
            Body::N256 { len, children } => {
                removed = children[byte as usize];
                children[byte as usize] = Child::NULL;
                *len -= 1;
            }
        }
        self.maybe_shrink();
        removed
    }

    #[allow(clippy::needless_range_loop)] // byte value doubles as array index
    fn maybe_shrink(&mut self) {
        let new_body = match &self.body {
            Body::N16 {
                len,
                keys,
                children,
            } if *len <= 3 => {
                let mut nk = [0u8; 4];
                let mut nc = [Child::NULL; 4];
                nk[..*len as usize].copy_from_slice(&keys[..*len as usize]);
                nc[..*len as usize].copy_from_slice(&children[..*len as usize]);
                Some(Body::N4 {
                    len: *len,
                    keys: nk,
                    children: nc,
                })
            }
            Body::N48 {
                len,
                index,
                children,
            } if *len <= 12 => {
                let mut nk = [0u8; 16];
                let mut nc = [Child::NULL; 16];
                let mut at = 0;
                for byte in 0..256 {
                    let slot = index[byte];
                    if slot != N48_EMPTY {
                        nk[at] = byte as u8;
                        nc[at] = children[slot as usize];
                        at += 1;
                    }
                }
                Some(Body::N16 {
                    len: *len,
                    keys: Box::new(nk),
                    children: Box::new(nc),
                })
            }
            Body::N256 { len, children } if *len <= 36 => {
                let mut index = [N48_EMPTY; 256];
                let mut nc = [Child::NULL; 48];
                let mut at = 0;
                for byte in 0..256 {
                    if !children[byte].is_null() {
                        index[byte] = at as u8;
                        nc[at as usize] = children[byte];
                        at += 1;
                    }
                }
                Some(Body::N48 {
                    len: *len as u8,
                    index: Box::new(index),
                    children: Box::new(nc),
                })
            }
            _ => None,
        };
        if let Some(body) = new_body {
            self.body = body;
        }
    }

    /// Children in ascending byte order: `(byte, child)`.
    #[allow(clippy::needless_range_loop)] // byte value doubles as array index
    fn children_sorted(&self) -> Vec<(u8, Child)> {
        let mut out = Vec::with_capacity(self.count());
        match &self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => {
                for i in 0..*len as usize {
                    out.push((keys[i], children[i]));
                }
            }
            Body::N16 {
                len,
                keys,
                children,
            } => {
                for i in 0..*len as usize {
                    out.push((keys[i], children[i]));
                }
            }
            Body::N48 {
                index, children, ..
            } => {
                for byte in 0..256usize {
                    let slot = index[byte];
                    if slot != N48_EMPTY {
                        out.push((byte as u8, children[slot as usize]));
                    }
                }
            }
            Body::N256 { children, .. } => {
                for byte in 0..256usize {
                    if !children[byte].is_null() {
                        out.push((byte as u8, children[byte]));
                    }
                }
            }
        }
        out
    }

    /// First child in byte order whose byte is `>= from`.
    fn next_child_at_or_after(&self, from: usize) -> Option<(u8, Child)> {
        match &self.body {
            Body::N4 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .iter()
                .position(|&k| k as usize >= from)
                .map(|i| (keys[i], children[i])),
            Body::N16 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .iter()
                .position(|&k| k as usize >= from)
                .map(|i| (keys[i], children[i])),
            Body::N48 {
                index, children, ..
            } => (from..256).find_map(|byte| {
                let slot = index[byte];
                (slot != N48_EMPTY).then(|| (byte as u8, children[slot as usize]))
            }),
            Body::N256 { children, .. } => (from..256).find_map(|byte| {
                let c = children[byte];
                (!c.is_null()).then_some((byte as u8, c))
            }),
        }
    }
}

/// The Adaptive Radix Tree index.
pub struct Art<S> {
    root: Child,
    source: S,
    len: usize,
    node_bytes: usize,
    node_count: usize,
}

impl<S: KeySource> Art<S> {
    /// Create an empty tree resolving keys through `source`.
    pub fn new(source: S) -> Self {
        Art {
            root: Child::NULL,
            source,
            len: 0,
            node_bytes: 0,
            node_count: 0,
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

    fn alloc(&mut self, node: Box<Node>) -> Child {
        self.node_bytes += node.heap_bytes();
        self.node_count += 1;
        Child::node(Box::into_raw(node))
    }

    /// # Safety
    /// `child` must be an owned node pointer with no other references.
    unsafe fn free(&mut self, child: Child) {
        // SAFETY: caller passes the last reference to a pointer made by
        // `Box::into_raw` in `alloc`; re-boxing transfers ownership back.
        let node = unsafe { Box::from_raw(child.ptr()) };
        self.node_bytes -= node.heap_bytes();
        self.node_count -= 1;
    }

    /// Look up `key`; returns its TID if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let padded = PaddedKey::from_key(key);
        let mut cur = self.root;
        let mut depth = 0usize;
        loop {
            if cur.is_null() {
                return None;
            }
            if cur.is_leaf() {
                let tid = cur.tid();
                let mut scratch = [0u8; KEY_SCRATCH_LEN];
                let stored = self.source.load_key(tid, &mut scratch);
                return (hot_bits::first_mismatch_bit(stored, key).is_none()).then_some(tid);
            }
            // SAFETY: tree-owned node pointer.
            let node = unsafe { cur.node_ref() };
            // Optimistic prefix skip: compare only the inline bytes; the
            // final leaf comparison catches false positives.
            let inline = (node.prefix_len as usize).min(MAX_INLINE_PREFIX);
            if depth + node.prefix_len as usize > KEY_PAD_LEN - 1 {
                return None;
            }
            if padded.padded()[depth..depth + inline] != node.prefix[..inline] {
                return None;
            }
            depth += node.prefix_len as usize;
            match node.find_child(padded.padded()[depth]) {
                Some(next) => {
                    cur = next;
                    depth += 1;
                }
                None => return None,
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key → tid` (upsert); returns the previous TID if present.
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        let padded = PaddedKey::from_key(key);
        if self.root.is_null() {
            self.root = Child::leaf(tid);
            self.len = 1;
            return None;
        }
        let root_slot = self.root_slot();
        let result = self.insert_rec(root_slot, &padded, 0, tid);
        if result.is_none() {
            self.len += 1;
        }
        result
    }

    /// Bulk-build the tree from key-sorted `(key, tid)` pairs (duplicate
    /// keys collapse, last write wins) in one bottom-up pass: each node's
    /// compressed path is the longest common prefix of its key run (taken
    /// from the run's first and last key — sorted input makes that the lcp
    /// of the whole run), and children partition the run by the next byte.
    /// This produces exactly the path-compressed structure incremental
    /// inserts converge to, without any transient node4→16→48→256 growth.
    ///
    /// Returns the number of distinct keys loaded.
    ///
    /// # Panics
    /// Panics if the tree is not empty or the input is not sorted
    /// ascending.
    pub fn bulk_load<K: AsRef<[u8]>>(&mut self, entries: &[(K, u64)]) -> usize {
        assert!(
            self.root.is_null() && self.len == 0,
            "bulk load requires an empty tree"
        );
        let mut keys: Vec<&[u8]> = Vec::with_capacity(entries.len());
        let mut tids: Vec<u64> = Vec::with_capacity(entries.len());
        for (key, tid) in entries {
            let key = key.as_ref();
            assert!(*tid <= MAX_TID, "tid exceeds MAX_TID");
            match keys.last() {
                Some(&prev) if prev == key => {
                    *tids.last_mut().expect("prev implies an entry") = *tid;
                    continue;
                }
                Some(&prev) => assert!(prev < key, "bulk-load input is not sorted"),
                None => {}
            }
            keys.push(key);
            tids.push(*tid);
        }
        let n = keys.len();
        self.root = match n {
            0 => Child::NULL,
            1 => Child::leaf(tids[0]),
            _ => self.bulk_rec(&keys, &tids, 0, n - 1, 0),
        };
        self.len = n;
        n
    }

    /// Build the subtree for the sorted key run `lo..=hi`, whose keys all
    /// agree on (zero-padded) bytes before `depth`.
    fn bulk_rec(
        &mut self,
        keys: &[&[u8]],
        tids: &[u64],
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> Child {
        if lo == hi {
            return Child::leaf(tids[lo]);
        }
        // Longest common prefix of the run from `depth`: sorted input makes
        // the first/last pair the minimum over all pairs.
        let mut p = depth;
        while p < KEY_PAD_LEN - 1 && byte_at(keys[lo], p) == byte_at(keys[hi], p) {
            p += 1;
        }
        let prefix: Vec<u8> = (depth..p).map(|i| byte_at(keys[lo], i)).collect();
        let mut node = Node::new_n4(&prefix);
        let mut a = lo;
        while a <= hi {
            let byte = byte_at(keys[a], p);
            let mut e = a;
            while e < hi && byte_at(keys[e + 1], p) == byte {
                e += 1;
            }
            let child = self.bulk_rec(keys, tids, a, e, p + 1);
            if node.is_full() {
                node.grow();
            }
            node.add_child(byte, child);
            a = e + 1;
        }
        self.alloc(node)
    }

    fn root_slot(&mut self) -> *mut Child {
        &mut self.root
    }

    /// Recursive insert on the slot holding the current subtree. Uses a raw
    /// slot pointer because splits replace the slot's contents while the
    /// borrow checker cannot see through the tagged-pointer graph.
    fn insert_rec(
        &mut self,
        slot: *mut Child,
        key: &PaddedKey,
        depth: usize,
        tid: u64,
    ) -> Option<u64> {
        // SAFETY: slot points into a live node (or the root field) owned by
        // self, and we hold &mut self.
        let cur = unsafe { *slot };

        if cur.is_leaf() {
            let existing = cur.tid();
            let mut scratch = [0u8; KEY_SCRATCH_LEN];
            let stored = self.source.load_key(existing, &mut scratch);
            if hot_bits::first_mismatch_bit(stored, key.bytes()).is_none() {
                // SAFETY: as above.
                unsafe { *slot = Child::leaf(tid) };
                return Some(existing);
            }
            // Split: find the first differing byte at or after `depth`.
            let mut stored_padded = PaddedKey::from_key(stored);
            let d = mismatch_byte(stored_padded.padded(), key.padded(), depth);
            let mut node = Node::new_n4(&key.padded()[depth..d]);
            node.add_child(stored_padded.padded()[d], cur);
            node.add_child(key.padded()[d], Child::leaf(tid));
            let new_child = self.alloc(node);
            // SAFETY: as above.
            unsafe { *slot = new_child };
            stored_padded.set(&[]); // drop the large buffer eagerly
            return None;
        }

        // SAFETY: tree-owned node pointer, exclusive via &mut self.
        let node = unsafe { cur.node_mut() };
        let prefix_len = node.prefix_len as usize;
        if prefix_len > 0 {
            // Pessimistic check over the inline bytes, full check via a
            // stored leaf when the compressed path exceeds the inline cap.
            let mismatch = self.prefix_mismatch(node, key, depth);
            if mismatch < prefix_len {
                // Split the compressed path at `mismatch`.
                let full_prefix = self.full_prefix(node, depth, prefix_len);
                let mut parent = Node::new_n4(&full_prefix[..mismatch]);
                // Old node keeps the tail of the prefix after the branch byte.
                let old_branch_byte = full_prefix[mismatch];
                let tail = &full_prefix[mismatch + 1..];
                node.prefix_len = tail.len() as u32;
                let inline = tail.len().min(MAX_INLINE_PREFIX);
                node.prefix[..inline].copy_from_slice(&tail[..inline]);
                parent.add_child(old_branch_byte, cur);
                parent.add_child(key.padded()[depth + mismatch], Child::leaf(tid));
                let new_child = self.alloc(parent);
                // SAFETY: as above.
                unsafe { *slot = new_child };
                return None;
            }
        }
        let depth = depth + prefix_len;
        let byte = key.padded()[depth];
        if let Some(child_slot) = node.find_child_mut(byte) {
            let child_slot: *mut Child = child_slot;
            return self.insert_rec(child_slot, key, depth + 1, tid);
        }
        if node.is_full() {
            node.grow();
        }
        node.add_child(byte, Child::leaf(tid));
        None
    }

    /// Number of prefix bytes of `node` matching `key` at `depth`
    /// (up to `prefix_len`).
    fn prefix_mismatch(&self, node: &Node, key: &PaddedKey, depth: usize) -> usize {
        let prefix_len = node.prefix_len as usize;
        let inline = prefix_len.min(MAX_INLINE_PREFIX);
        for i in 0..inline {
            if key.padded()[depth + i] != node.prefix[i] {
                return i;
            }
        }
        if prefix_len <= MAX_INLINE_PREFIX {
            return prefix_len;
        }
        // Long path: reconstruct from any stored leaf (they all share it).
        let full = self.full_prefix(node, depth, prefix_len);
        for (i, &b) in full.iter().enumerate().skip(inline) {
            if key.padded()[depth + i] != b {
                return i;
            }
        }
        prefix_len
    }

    /// Reconstruct the full compressed path of `node` (which spans key bytes
    /// `depth..depth + prefix_len`) from the minimum leaf below it.
    fn full_prefix(&self, node: &Node, depth: usize, prefix_len: usize) -> Vec<u8> {
        if prefix_len <= MAX_INLINE_PREFIX {
            return node.prefix[..prefix_len].to_vec();
        }
        let tid = min_leaf(node);
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        let leaf_key = PaddedKey::from_key(self.source.load_key(tid, &mut scratch));
        leaf_key.padded()[depth..depth + prefix_len].to_vec()
    }

    /// Remove `key`; returns its TID if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        self.get(key)?;
        let padded = PaddedKey::from_key(key);
        if self.root.is_leaf() {
            let tid = self.root.tid();
            self.root = Child::NULL;
            self.len = 0;
            return Some(tid);
        }
        let root_slot = self.root_slot();
        let removed = self.remove_rec(root_slot, &padded, 0);
        debug_assert!(removed.is_some());
        self.len -= 1;
        removed
    }

    fn remove_rec(&mut self, slot: *mut Child, key: &PaddedKey, depth: usize) -> Option<u64> {
        // SAFETY: slot points into a live, exclusively held node/root.
        let cur = unsafe { *slot };
        debug_assert!(cur.is_node(), "presence verified by the caller");
        // SAFETY: as above.
        let node = unsafe { cur.node_mut() };
        let depth = depth + node.prefix_len as usize;
        let byte = key.padded()[depth];
        let child = node.find_child(byte).expect("verified present");

        if child.is_leaf() {
            let tid = child.tid();
            node.remove_child(byte);
            if node.count() == 1 {
                // Path compression: merge the node into its only child.
                let (only_byte, only_child) = node.children_sorted()[0];
                let merged = if only_child.is_node() {
                    // SAFETY: tree-owned node pointer.
                    let child_node = unsafe { only_child.node_mut() };
                    let mut full = self.full_prefix(
                        node,
                        depth - node.prefix_len as usize,
                        node.prefix_len as usize,
                    );
                    full.push(only_byte);
                    let child_prefix_len = child_node.prefix_len as usize;
                    let child_inline = child_prefix_len.min(MAX_INLINE_PREFIX);
                    full.extend_from_slice(&child_node.prefix[..child_inline]);
                    // The child's possibly-longer logical prefix length still
                    // counts in full even if bytes beyond 8 are not inline.
                    let new_len = node.prefix_len as usize + 1 + child_prefix_len;
                    child_node.prefix_len = new_len as u32;
                    let inline = full.len().min(MAX_INLINE_PREFIX);
                    child_node.prefix[..inline].copy_from_slice(&full[..inline]);
                    only_child
                } else {
                    only_child
                };
                // SAFETY: replacing the slot; the old node is freed below.
                unsafe {
                    *slot = merged;
                    self.free(cur);
                }
            }
            return Some(tid);
        }
        let child_slot: *mut Child = node.find_child_mut(byte).expect("present");
        self.remove_rec(child_slot, key, depth + 1)
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> Cursor<'_, S> {
        let mut frames = Vec::new();
        let mut pending = None;
        if self.root.is_leaf() {
            pending = Some(self.root.tid());
        } else if self.root.is_node() {
            // SAFETY: tree-owned.
            frames.push((unsafe { self.root.node_ref() }, 0usize));
        }
        Cursor {
            frames,
            pending,
            _tree: self,
        }
    }

    /// Iterator over TIDs with keys `>= key`, ascending.
    pub fn range_from(&self, key: &[u8]) -> Cursor<'_, S> {
        let padded = PaddedKey::from_key(key);
        let mut frames: Vec<(&Node, usize)> = Vec::new();
        let mut pending = None;

        if self.root.is_leaf() {
            let mut scratch = [0u8; KEY_SCRATCH_LEN];
            if self.source.load_key(self.root.tid(), &mut scratch) >= key {
                pending = Some(self.root.tid());
            }
            return Cursor {
                frames,
                pending,
                _tree: self,
            };
        }
        if self.root.is_null() {
            return Cursor {
                frames,
                pending,
                _tree: self,
            };
        }

        // Descend while the compressed paths match the search key exactly;
        // on divergence the whole subtree is entirely before or after.
        // SAFETY: tree-owned.
        let mut node = unsafe { self.root.node_ref() };
        let mut depth = 0usize;
        loop {
            let prefix_len = node.prefix_len as usize;
            let full = self.full_prefix(node, depth, prefix_len);
            if let Some(i) = full
                .iter()
                .zip(&padded.padded()[depth..depth + prefix_len])
                .position(|(a, b)| a != b)
            {
                if full[i] > padded.padded()[depth + i] {
                    // Subtree sorts after the key: take all of it.
                    frames.push((node, 0));
                }
                // Else: subtree entirely before the key; fall through to
                // whatever ancestors queued.
                break;
            }
            let depth_after = depth + prefix_len;
            let byte = padded.padded()[depth_after] as usize;
            // Queue this node starting after `byte`, then descend into the
            // child at `byte` if it exists.
            match node.find_child(byte as u8) {
                Some(child) => {
                    frames.push((node, byte + 1));
                    if child.is_leaf() {
                        let tid = child.tid();
                        let mut scratch = [0u8; KEY_SCRATCH_LEN];
                        if self.source.load_key(tid, &mut scratch) >= key {
                            pending = Some(tid);
                        }
                        break;
                    }
                    // SAFETY: tree-owned.
                    node = unsafe { child.node_ref() };
                    depth = depth_after + 1;
                }
                None => {
                    frames.push((node, byte));
                    break;
                }
            }
        }
        Cursor {
            frames,
            pending,
            _tree: self,
        }
    }

    /// Collect up to `limit` TIDs with keys `>= key`.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        self.range_from(key).take(limit).collect()
    }

    /// Memory footprint of the inner nodes.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            node_bytes: self.node_bytes,
            node_count: self.node_count,
            aux_bytes: 0,
            key_count: self.len,
            capacity_bytes: 0,
        }
    }

    /// Leaf-depth histogram (depth = inner nodes on the path), Figure 11's
    /// ART series.
    pub fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(child: Child, depth: usize, stats: &mut DepthStats) {
            if child.is_leaf() {
                stats.record(depth);
            } else if child.is_node() {
                // SAFETY: tree-owned.
                let node = unsafe { child.node_ref() };
                for (_, c) in node.children_sorted() {
                    walk(c, depth + 1, stats);
                }
            }
        }
        walk(self.root, 0, &mut stats);
        stats
    }

    /// Structural invariant check (test support).
    pub fn validate(&self) {
        fn walk(child: Child, count: &mut usize) {
            if child.is_leaf() {
                *count += 1;
                return;
            }
            if child.is_null() {
                return;
            }
            // SAFETY: tree-owned.
            let node = unsafe { child.node_ref() };
            let kids = node.children_sorted();
            assert!(kids.len() >= 2, "inner nodes have >= 2 children");
            assert_eq!(kids.len(), node.count());
            assert!(
                kids.windows(2).all(|w| w[0].0 < w[1].0),
                "child bytes strictly ascending"
            );
            for (_, c) in kids {
                assert!(!c.is_null());
                walk(c, count);
            }
        }
        let mut count = 0;
        walk(self.root, &mut count);
        assert_eq!(count, self.len, "leaf count equals len");
        // Every stored key resolves through the public lookup.
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        for tid in self.iter().collect::<Vec<_>>() {
            let k = self.source.load_key(tid, &mut scratch).to_vec();
            assert_eq!(self.get(&k), Some(tid));
        }
    }
}

/// Smallest-key leaf below `node` (descend first children).
fn min_leaf(node: &Node) -> u64 {
    let mut cur = node;
    loop {
        let (_, child) = cur
            .next_child_at_or_after(0)
            .expect("inner nodes are non-empty");
        if child.is_leaf() {
            return child.tid();
        }
        // SAFETY: tree-owned.
        cur = unsafe { child.node_ref() };
    }
}

/// First byte index `>= from` where the padded keys differ.
/// Byte `i` of `key` under the zero-padding convention.
#[inline]
fn byte_at(key: &[u8], i: usize) -> u8 {
    if i < key.len() {
        key[i]
    } else {
        0
    }
}

fn mismatch_byte(a: &[u8; KEY_PAD_LEN], b: &[u8; KEY_PAD_LEN], from: usize) -> usize {
    (from..KEY_PAD_LEN)
        .find(|&i| a[i] != b[i])
        .expect("prefix-free keys differ somewhere")
}

impl<S> Drop for Art<S> {
    fn drop(&mut self) {
        fn free_subtree(child: Child) {
            if child.is_node() {
                // SAFETY: dropping the tree, sole owner.
                let node = unsafe { Box::from_raw(child.ptr()) };
                for (_, c) in node.children_sorted() {
                    free_subtree(c);
                }
            }
        }
        free_subtree(self.root);
    }
}

/// Ordered iterator over leaf TIDs. Frames hold (node, next byte slot).
pub struct Cursor<'a, S> {
    frames: Vec<(&'a Node, usize)>,
    pending: Option<u64>,
    _tree: &'a Art<S>,
}

impl<'a, S: KeySource> Iterator for Cursor<'a, S> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(tid) = self.pending.take() {
            return Some(tid);
        }
        loop {
            let &(node, from) = self.frames.last()?;
            match node.next_child_at_or_after(from) {
                None => {
                    self.frames.pop();
                }
                Some((byte, child)) => {
                    self.frames.last_mut().expect("non-empty").1 = byte as usize + 1;
                    if child.is_leaf() {
                        return Some(child.tid());
                    }
                    // SAFETY: tree-owned; cursor borrows the tree.
                    self.frames.push((unsafe { child.node_ref() }, 0));
                }
            }
        }
    }
}

// SAFETY: the tree owns all nodes; sharing &Art across threads only permits
// reads (all mutation requires &mut).
unsafe impl<S: Sync> Sync for Art<S> {}
// SAFETY: nodes are heap allocations reachable only through the tree; moving
// the tree to another thread moves exclusive ownership of all of them.
unsafe impl<S: Send> Send for Art<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_keys::{encode_u64, ArenaKeySource, EmbeddedKeySource};

    fn int_art(keys: &[u64]) -> Art<EmbeddedKeySource> {
        let mut t = Art::new(EmbeddedKeySource);
        for &k in keys {
            t.insert(&encode_u64(k), k);
        }
        t
    }

    #[test]
    fn empty_single_pair() {
        let mut t = Art::new(EmbeddedKeySource);
        assert_eq!(t.get(&encode_u64(0)), None);
        t.insert(&encode_u64(5), 5);
        assert_eq!(t.get(&encode_u64(5)), Some(5));
        assert_eq!(t.get(&encode_u64(4)), None);
        t.insert(&encode_u64(300), 300);
        assert_eq!(t.get(&encode_u64(300)), Some(300));
        assert_eq!(t.len(), 2);
        t.validate();
    }

    #[test]
    fn node_growth_through_all_layouts() {
        // 200 keys differing in the last byte exercise N4→N16→N48→N256.
        let keys: Vec<u64> = (0..200).collect();
        let t = int_art(&keys);
        t.validate();
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
        // One N256 (or N48) node at the bottom: few nodes overall.
        assert!(t.memory_stats().node_count <= 3);
    }

    #[test]
    fn node_shrink_through_all_layouts() {
        let keys: Vec<u64> = (0..256).collect();
        let mut t = int_art(&keys);
        for k in 0..250u64 {
            assert_eq!(t.remove(&encode_u64(k)), Some(k));
            if k % 50 == 0 {
                t.validate();
            }
        }
        t.validate();
        for k in 250..256u64 {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn path_compression_with_long_prefixes() {
        let mut arena = ArenaKeySource::new();
        // Shared 30-byte prefix, branch at the end: compressed path longer
        // than the 8-byte inline buffer.
        let prefix = "x".repeat(30);
        let keys: Vec<Vec<u8>> = (0..20)
            .map(|i| hot_keys::str_key(format!("{prefix}{i:02}").as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Art::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        for (k, &tid) in keys.iter().zip(&tids) {
            assert_eq!(t.get(k), Some(tid));
        }
        // Lookups that diverge inside the long compressed path miss cleanly.
        assert_eq!(t.get(&hot_keys::str_key(b"xxxyyy").unwrap()), None);
        let other = format!("{}00", "y".repeat(30));
        assert_eq!(t.get(&hot_keys::str_key(other.as_bytes()).unwrap()), None);
    }

    #[test]
    fn upsert_and_removal_roundtrip() {
        let mut arena = ArenaKeySource::new();
        let keys: Vec<Vec<u8>> = ["one", "two", "three", "two"]
            .iter()
            .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Art::new(&arena);
        assert_eq!(t.insert(&keys[0], tids[0]), None);
        assert_eq!(t.insert(&keys[1], tids[1]), None);
        assert_eq!(t.insert(&keys[2], tids[2]), None);
        // Upsert "two" with a fresh TID for the same key bytes.
        assert_eq!(t.insert(&keys[3], tids[3]), Some(tids[1]));
        assert_eq!(t.get(&keys[1]), Some(tids[3]));
        assert_eq!(t.remove(&keys[1]), Some(tids[3]));
        assert_eq!(t.remove(&keys[1]), None);
        assert_eq!(t.len(), 2);
        t.validate();
        assert_eq!(t.remove(&keys[0]), Some(tids[0]));
        assert_eq!(t.remove(&keys[2]), Some(tids[2]));
        assert!(t.is_empty());
        assert_eq!(t.memory_stats().node_bytes, 0);
    }

    #[test]
    fn ordered_iteration_and_scans() {
        let mut keys: Vec<u64> = vec![5, 1, 300, 70_000, 2, 90, 65_535, 65_536];
        let t = int_art(&keys);
        keys.sort_unstable();
        assert_eq!(t.iter().collect::<Vec<_>>(), keys);
        assert_eq!(t.scan(&encode_u64(3), 3), vec![5, 90, 300]);
        assert_eq!(t.scan(&encode_u64(0), 2), vec![1, 2]);
        assert_eq!(t.scan(&encode_u64(90), 2), vec![90, 300]);
        assert_eq!(t.scan(&encode_u64(70_001), 10), Vec::<u64>::new());
    }

    #[test]
    fn dense_and_random_10k() {
        let dense: Vec<u64> = (0..10_000).collect();
        let t = int_art(&dense);
        t.validate();
        assert_eq!(t.iter().collect::<Vec<_>>(), dense);
        // Dense keys: depth stays tiny (the ART sweet spot).
        assert!(t.depth_stats().max_depth().unwrap() <= 4);

        let mut x = 0x9E37_79B9u64;
        let random: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> 1
            })
            .collect();
        let t = int_art(&random);
        t.validate();
        for &k in random.iter().step_by(101) {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn string_scan_order() {
        let mut arena = ArenaKeySource::new();
        let words = ["art", "arterial", "artist", "bar", "baz", "zoo"];
        let keys: Vec<Vec<u8>> = words
            .iter()
            .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let mut t = Art::new(&arena);
        for (k, &tid) in keys.iter().zip(&tids) {
            t.insert(k, tid);
        }
        t.validate();
        let got: Vec<u64> = t
            .range_from(&hot_keys::str_key(b"artist").unwrap())
            .collect();
        assert_eq!(got, vec![tids[2], tids[3], tids[4], tids[5]]);
        let got: Vec<u64> = t.range_from(&hot_keys::str_key(b"aq").unwrap()).collect();
        assert_eq!(got.len(), 6);
        let got: Vec<u64> = t.range_from(&hot_keys::str_key(b"zzz").unwrap()).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn mixed_insert_remove_against_model() {
        use std::collections::BTreeMap;
        let mut t = Art::new(EmbeddedKeySource);
        let mut model = BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 2_000;
            if x % 10 < 6 {
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
    fn bulk_load_matches_incremental() {
        let mut x = 0xABCDu64;
        let mut keys: Vec<u64> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
            .collect();
        let incr = int_art(&keys);
        keys.sort_unstable();
        keys.dedup();
        let entries: Vec<([u8; 8], u64)> = keys.iter().map(|&k| (encode_u64(k), k)).collect();
        let mut bulk = Art::new(EmbeddedKeySource);
        assert_eq!(bulk.bulk_load(&entries), keys.len());
        bulk.validate();
        assert_eq!(bulk.len(), incr.len());
        assert_eq!(
            bulk.iter().collect::<Vec<_>>(),
            incr.iter().collect::<Vec<_>>()
        );
        for &k in keys.iter().step_by(37) {
            assert_eq!(bulk.get(&encode_u64(k)), Some(k));
            assert_eq!(bulk.get(&encode_u64(k + 1)), incr.get(&encode_u64(k + 1)));
        }
        // Bottom-up construction allocates each node in its final layout,
        // so the footprint never exceeds the incremental build's.
        assert!(bulk.memory_stats().node_count <= incr.memory_stats().node_count);
    }

    #[test]
    fn bulk_load_strings_duplicates_and_edge_cases() {
        let mut arena = ArenaKeySource::new();
        let words = ["art", "arterial", "artist", "bar", "bar", "baz", "zoo"];
        let keys: Vec<Vec<u8>> = words
            .iter()
            .map(|w| hot_keys::str_key(w.as_bytes()).unwrap())
            .collect();
        let tids: Vec<u64> = keys.iter().map(|k| arena.push(k)).collect();
        let entries: Vec<(&[u8], u64)> = keys
            .iter()
            .map(|k| k.as_slice())
            .zip(tids.iter().copied())
            .collect();
        let mut t = Art::new(&arena);
        assert_eq!(t.bulk_load(&entries), 6, "duplicate bar collapses");
        t.validate();
        // Last write wins on the duplicate.
        assert_eq!(t.get(&keys[3]), Some(tids[4]));
        assert_eq!(t.get(&keys[0]), Some(tids[0]));

        let mut empty = Art::new(EmbeddedKeySource);
        assert_eq!(empty.bulk_load::<[u8; 8]>(&[]), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.bulk_load(&[(encode_u64(9), 9u64)]), 1);
        assert_eq!(empty.get(&encode_u64(9)), Some(9));
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn bulk_load_rejects_unsorted() {
        let mut t = Art::new(EmbeddedKeySource);
        t.bulk_load(&[(encode_u64(5), 5u64), (encode_u64(1), 1u64)]);
    }
}
