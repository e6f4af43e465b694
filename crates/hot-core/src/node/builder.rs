//! Transient decoded node representation and the intra-node algorithms of
//! Section 4.4.
//!
//! epoch-exempt: builders decode nodes the caller already protects (epoch
//! pin + node lock on the concurrent path, `&mut` on the single-threaded
//! path) and build private not-yet-published replacements.
//!
//! Nodes are copy-on-write: every structural modification decodes the node
//! into a [`Builder`] (sorted discriminative positions + widened sparse
//! partial keys + value words), mutates it, and encodes a fresh node choosing
//! the smallest of the 9 physical layouts. The extracted-space convention is
//! the one fixed in `hot_bits`: with `m` positions `p_0 < … < p_{m-1}`,
//! position `p_r` occupies partial-key bit `m - 1 - r`.
//!
//! The correctness core (see also DESIGN.md §3.3): for an insert with
//! mismatch bit `b` and matched (false-positive) entry `t`, the *affected
//! subtree* — the leaves below the BiNode the new discriminative bit splits —
//! is exactly the contiguous run of entries `e` with
//! `e.sparse & M == t.sparse & M`, where `M` masks the positions `< b`:
//!
//! * positions along any path strictly increase, so every BiNode inside the
//!   affected subtree has a position `> b`; affected entries' sparse bits at
//!   positions `< b` are therefore either shared path bits (equal to `t`'s)
//!   or off-path zeros (also equal to `t`'s, which shares the path);
//! * an unaffected entry diverges from `t` at some BiNode with position
//!   `q < b` that lies on both paths, where their bits — and hence their
//!   sparse bits, `q` being on-path for both — differ.

use super::{open_bit, RawNode, Slot, MAX_FANOUT, MAX_POSITIONS};

/// A decoded compound node: the linearization of a k-constrained binary
/// Patricia trie, in mutable form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Builder {
    /// Sorted, distinct discriminative key-bit positions (`m` entries).
    pub(crate) positions: Vec<u16>,
    /// Sparse partial keys in extracted space, in trie (key) order.
    /// May temporarily hold `MAX_FANOUT + 1` entries during overflow.
    pub(crate) sparse: Vec<u32>,
    /// Value words parallel to `sparse`.
    pub(crate) values: Vec<u64>,
    /// Compound-subtree height (1 = all entries are leaves).
    pub(crate) height: u8,
}

impl Builder {
    /// An empty builder shell for reuse via [`Self::decode_into`].
    pub(crate) fn empty() -> Builder {
        Builder {
            positions: Vec::with_capacity(MAX_POSITIONS + 1),
            sparse: Vec::with_capacity(MAX_FANOUT + 1),
            values: Vec::with_capacity(MAX_FANOUT + 1),
            height: 0,
        }
    }

    /// Decode a physical node with `V` value slots into this builder, value
    /// words widened, reusing its buffers (the hot insert path decodes one
    /// node per operation; reusing the allocations keeps it malloc-free).
    pub(crate) fn decode_into<V: Slot>(&mut self, node: RawNode) {
        node.positions_into(&mut self.positions);
        node.read_entries::<V>(&mut self.sparse, &mut self.values);
        self.height = node.height();
    }

    /// Make this builder the two-entry node used for leaf-node pushdown,
    /// new roots and intermediate nodes: a single BiNode at `pos` with
    /// `zero` on the 0 side and `one` on the 1 side.
    pub(crate) fn pair(&mut self, pos: u16, zero: u64, one: u64, height: u8) {
        self.positions.clear();
        self.positions.push(pos);
        self.sparse.clear();
        self.sparse.extend_from_slice(&[0, 1]);
        self.values.clear();
        self.values.extend_from_slice(&[zero, one]);
        self.height = height;
    }

    /// Assemble a node from a bottom-up construction fragment (the bulk
    /// loader's primitive, DESIGN.md §11).
    ///
    /// `bounds[i]` is the discriminative bit position separating entry `i`
    /// from entry `i + 1` — the first mismatching bit between the last key
    /// under entry `i` and the first key under entry `i + 1`. The node's
    /// embedded Patricia topology is implied: it is the min-Cartesian tree
    /// over `bounds` (the BiNode with the smallest position is the root,
    /// and over a contiguous key range that minimum is unique, so the tree
    /// is well defined). Sparse partial keys follow by setting, at every
    /// BiNode, the extracted bit of all entries on its 1-side.
    ///
    /// `values` are the entries' value words in key order, in the store's
    /// widened reference-word space; the height is derived from them (`1 +`
    /// the tallest child, which `height_of` reads — out of the heap node
    /// behind a pointer word, out of the arena behind an offset word).
    #[cfg(test)]
    pub(crate) fn from_fragment(
        bounds: &[u16],
        values: &[u64],
        height_of: impl Fn(u64) -> u8 + Copy,
    ) -> Builder {
        let mut builder = Builder::empty();
        builder.fill_from_fragment(bounds, values, height_of);
        builder
    }

    /// [`Self::from_fragment`] into this builder, reusing its buffers: the
    /// bulk loader encodes every node through one builder per worker, so
    /// its node build allocates nothing per node.
    pub(crate) fn fill_from_fragment(
        &mut self,
        bounds: &[u16],
        values: &[u64],
        height_of: impl Fn(u64) -> u8 + Copy,
    ) {
        let n = values.len();
        assert!((2..=MAX_FANOUT).contains(&n), "entry count {n}");
        assert_eq!(bounds.len(), n - 1, "one boundary between adjacent entries");
        let positions = &mut self.positions;
        positions.clear();
        positions.extend_from_slice(bounds);
        positions.sort_unstable();
        positions.dedup();
        let m = positions.len();
        debug_assert!(m <= MAX_POSITIONS, "n <= 32 entries imply <= 31 positions");
        let sparse = &mut self.sparse;
        sparse.clear();
        sparse.resize(n, 0);
        // Worklist recursion over entry subranges: the smallest boundary in
        // a range is its subtree's root BiNode; everything right of it gets
        // that position's extracted bit set (path bits accumulate, off-path
        // bits stay 0). The ranges on the list are disjoint and non-empty,
        // so there are never more than `n` of them.
        let mut ranges = [(0usize, 0usize); MAX_FANOUT];
        ranges[0] = (0, n - 1);
        let mut pending = 1;
        while pending > 0 {
            pending -= 1;
            let (lo, hi) = ranges[pending];
            if lo == hi {
                continue;
            }
            let mut root = lo;
            for j in lo + 1..hi {
                if bounds[j] < bounds[root] {
                    root = j;
                }
            }
            let rank = positions.partition_point(|&p| p < bounds[root]);
            let bit = 1u32 << (m - 1 - rank);
            for s in &mut sparse[root + 1..=hi] {
                *s |= bit;
            }
            ranges[pending] = (lo, root);
            ranges[pending + 1] = (root + 1, hi);
            pending += 2;
        }
        self.values.clear();
        self.values.extend_from_slice(values);
        self.height = 1 + values.iter().map(|&v| height_of(v)).max().unwrap_or(0);
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the builder holds more than `k` entries and must be split.
    #[inline]
    pub(crate) fn overflowed(&self) -> bool {
        self.values.len() > MAX_FANOUT
    }

    #[inline]
    fn m(&self) -> usize {
        self.positions.len()
    }

    /// Extracted-space bit index of the position with rank `r`.
    #[inline]
    fn bit_of_rank(&self, r: usize) -> u32 {
        (self.m() - 1 - r) as u32
    }

    /// Ensure `pos` is a discriminative position, recoding all sparse keys
    /// when it is new (Section 4.4: "all sparse partial keys are recoded
    /// using a single PDEP instruction" — whose deposit mask, every bit but
    /// the new one, makes it the shift of [`open_bit`]). Returns the
    /// extracted-space bit index of `pos`.
    pub(crate) fn ensure_position(&mut self, pos: u16) -> u32 {
        match self.positions.binary_search(&pos) {
            Ok(r) => self.bit_of_rank(r),
            Err(r) => {
                self.positions.insert(r, pos);
                let new_bit = (self.m() - 1 - r) as u32;
                for s in self.sparse.iter_mut() {
                    *s = open_bit(*s, new_bit);
                }
                new_bit
            }
        }
    }

    /// Mask (extracted space) of all positions strictly smaller than the
    /// position at extracted bit `bit` — i.e. the path prefix above it.
    #[inline]
    fn prefix_mask_above(&self, bit: u32) -> u32 {
        let m = self.m() as u32;
        debug_assert!(bit < m);
        // Positions smaller than the one at `bit` occupy bits (bit, m-1].
        let above = m - 1 - bit; // how many positions are smaller
        if above == 0 {
            0
        } else {
            (((1u64 << above) - 1) << (bit + 1)) as u32
        }
    }

    /// The contiguous run of entries in the subtree below the BiNode at
    /// `bit`, on the path of entry `through` (see module docs).
    pub(crate) fn affected_range(&self, bit: u32, through: usize) -> (usize, usize) {
        let mask = self.prefix_mask_above(bit);
        let prefix = self.sparse[through] & mask;
        let mut lo = through;
        while lo > 0 && self.sparse[lo - 1] & mask == prefix {
            lo -= 1;
        }
        let mut hi = through;
        while hi + 1 < self.sparse.len() && self.sparse[hi + 1] & mask == prefix {
            hi += 1;
        }
        debug_assert!((lo..=hi).all(|i| self.sparse[i] & mask == prefix));
        (lo, hi)
    }

    /// Insert a new entry: `pos` is the mismatch bit position, `matched` the
    /// index of the false-positive candidate entry found by the preceding
    /// search, `key_bit` the new key's bit at `pos`, and `value` the new
    /// entry's value word. Implements the sparse-partial-key insertion of
    /// Section 4.4. Returns the index the entry was inserted at.
    pub(crate) fn insert_entry(
        &mut self,
        pos: u16,
        matched: usize,
        key_bit: u8,
        value: u64,
    ) -> usize {
        debug_assert!(self.len() <= MAX_FANOUT, "insert into overflowed builder");
        let bit = self.ensure_position(pos);
        let (lo, hi) = self.affected_range(bit, matched);
        // Every affected entry sits below the new BiNode, whose position is
        // smaller than everything on their remaining paths, so their bit at
        // `pos` is still undefined (0).
        debug_assert!((lo..=hi).all(|i| self.sparse[i] & (1 << bit) == 0));
        let prefix = self.sparse[matched] & self.prefix_mask_above(bit);
        let new_sparse = prefix | ((key_bit as u32) << bit);
        let at = if key_bit == 1 {
            // Affected subtree keeps bit 0; new entry goes after it.
            hi + 1
        } else {
            // Affected subtree moves to the 1 side of the new BiNode; the
            // new entry precedes it.
            for i in lo..=hi {
                self.sparse[i] |= 1 << bit;
            }
            lo
        };
        self.sparse.insert(at, new_sparse);
        self.values.insert(at, value);
        at
    }

    /// Replace the entry at `idx` (a collapsed child link) by a BiNode at
    /// `pos` with children `zero` and `one` — the *parent pull up* primitive
    /// (the moved BiNode is the split child's root BiNode).
    /// `height_of` resolves a child's height as for [`Self::from_fragment`].
    pub(crate) fn replace_entry_with_pair(
        &mut self,
        idx: usize,
        pos: u16,
        zero: u64,
        one: u64,
        height_of: impl Fn(u64) -> u8 + Copy,
    ) {
        let bit = self.ensure_position(pos);
        debug_assert_eq!(
            self.sparse[idx] & (1 << bit),
            0,
            "pulled-up position lies below the entry's path"
        );
        self.values[idx] = zero;
        self.sparse.insert(idx + 1, self.sparse[idx] | (1 << bit));
        self.values.insert(idx + 1, one);
        // The replaced subtree may have been the unique tallest child.
        self.height = 1 + self.values.iter().map(|&v| height_of(v)).max().unwrap_or(0);
    }

    /// Rank (and extracted bit) of this node's root BiNode: the smallest
    /// position at which both bit values occur.
    fn root_rank(&self) -> usize {
        debug_assert!(self.len() >= 2);
        // The minimum position is always the root BiNode (positions increase
        // along paths and the root lies on all of them), so rank 0 — but
        // assert the mixed-bits property in debug builds.
        debug_assert!({
            let bit = self.bit_of_rank(0);
            let ones = self.sparse.iter().filter(|&&s| s & (1 << bit) != 0).count();
            ones > 0 && ones < self.sparse.len()
        });
        0
    }

    /// Split an overflowed builder at its root BiNode (Listing 1's
    /// `split(n)`) into the `left` and `right` halves, reusing their
    /// buffers; returns the root position. A half of one entry collapses to
    /// that entry's value word, which the caller takes as it is.
    /// `height_of` resolves a child's height as for [`Self::from_fragment`].
    pub(crate) fn split(
        &self,
        left: &mut Builder,
        right: &mut Builder,
        height_of: impl Fn(u64) -> u8 + Copy,
    ) -> u16 {
        let r = self.root_rank();
        let bit = self.bit_of_rank(r);
        let s = self
            .sparse
            .iter()
            .position(|&k| k & (1 << bit) != 0)
            .expect("root BiNode has a non-empty 1 side");
        debug_assert!(s >= 1 && s < self.len());
        self.sub_range(0, s, left, height_of);
        self.sub_range(s, self.len(), right, height_of);
        self.positions[r]
    }

    /// Fill `out` with the entry range `lo..hi` (exclusive), keeping exactly
    /// the positions that discriminate *within* the range — the mixed bits,
    /// `OR ^ AND` over its sparse keys — and compacting the sparse keys with
    /// a PEXT. A single entry keeps no position.
    fn sub_range(
        &self,
        lo: usize,
        hi: usize,
        out: &mut Builder,
        height_of: impl Fn(u64) -> u8 + Copy,
    ) {
        let (any, all) = self.sparse[lo..hi]
            .iter()
            .fold((0, u32::MAX), |(any, all), &s| (any | s, all & s));
        let keep = if hi - lo == 1 { 0 } else { any ^ all };
        let m = self.m();
        out.positions.clear();
        let mut bits = keep;
        while bits != 0 {
            let bit = 31 - bits.leading_zeros();
            out.positions.push(self.positions[m - 1 - bit as usize]);
            bits &= !(1 << bit);
        }
        out.sparse.clear();
        out.sparse.extend(
            self.sparse[lo..hi]
                .iter()
                .map(|&s| hot_bits::pext64(s as u64, keep as u64) as u32),
        );
        out.values.clear();
        out.values.extend_from_slice(&self.values[lo..hi]);
        // A half keeps only a subset of the children, so its height must be
        // recomputed — inheriting the split node's height would let stored
        // heights ratchet upward and defeat the height optimization.
        out.height = 1 + out.values.iter().map(|&v| height_of(v)).max().unwrap_or(0);
    }

    /// Remove the entry at `idx`, collapsing its parent BiNode and dropping
    /// the BiNode's position when it becomes unused (the deletion
    /// counterpart of the sparse-partial-key insertion).
    ///
    /// Requires at least 3 entries (2-entry nodes collapse at tree level).
    pub(crate) fn remove_entry(&mut self, idx: usize) {
        debug_assert!(self.len() >= 3);
        let bit = parent_bit(self.len(), idx, |i| self.sparse[i]);
        let parent = 1u32 << bit;
        // The parent's subtree: the sibling subtree loses the collapsed
        // parent BiNode from its paths, so clear its bit there (a no-op on
        // a 0-side sibling and on `idx`, which goes).
        let (lo, hi) = self.affected_range(bit, idx);
        for s in &mut self.sparse[lo..=hi] {
            *s &= !parent;
        }
        self.sparse.remove(idx);
        self.values.remove(idx);

        // Drop the position entirely if no other BiNode uses it: the bits
        // above it move down one.
        if self.sparse.iter().fold(0, |any, &s| any | s) & parent == 0 {
            self.positions.remove(self.m() - 1 - bit as usize);
            let low = parent - 1;
            for s in self.sparse.iter_mut() {
                *s = (*s & low) | ((*s >> 1) & !low);
            }
        }
    }

    /// The walk [`Self::remove_entry`] replaced, kept as its reference:
    /// locate the parent BiNode of `idx` by descending the linearized
    /// topology from the root — at each step the subtree root is the
    /// smallest mixed position within the range — until `idx` is alone on
    /// its side, and drop an unused position with a PEXT.
    #[cfg(test)]
    fn remove_entry_walk(&mut self, idx: usize) {
        debug_assert!(self.len() >= 3);
        let (mut lo, mut hi) = (0usize, self.len() - 1);
        let (parent_rank, sib_range) = loop {
            let rank = self.range_root_rank(lo, hi);
            let bit = self.bit_of_rank(rank);
            let split = (lo..=hi)
                .find(|&i| self.sparse[i] & (1 << bit) != 0)
                .expect("mixed position has a 1 side");
            let (side, other) = if idx < split {
                ((lo, split - 1), (split, hi))
            } else {
                ((split, hi), (lo, split - 1))
            };
            if side == (idx, idx) {
                break (rank, other);
            }
            (lo, hi) = side;
        };
        let parent_bit = self.bit_of_rank(parent_rank);
        for i in sib_range.0..=sib_range.1 {
            self.sparse[i] &= !(1 << parent_bit);
        }
        self.sparse.remove(idx);
        self.values.remove(idx);
        if self.sparse.iter().all(|&s| s & (1 << parent_bit) == 0) {
            self.positions.remove(parent_rank);
            let m_after = self.m() as u64;
            let keep = !(1u64 << parent_bit) & ((1u64 << (m_after + 1)) - 1);
            for s in self.sparse.iter_mut() {
                *s = hot_bits::pext64(*s as u64, keep) as u32;
            }
        }
    }

    /// Root rank of the subtree spanning entries `lo..=hi`: the smallest
    /// rank whose bit is mixed within the range.
    #[cfg(test)]
    fn range_root_rank(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(hi > lo);
        for r in 0..self.m() {
            let bit = self.bit_of_rank(r);
            let first = self.sparse[lo] & (1 << bit);
            if self.sparse[lo..=hi]
                .iter()
                .any(|&s| s & (1 << bit) != first)
            {
                return r;
            }
        }
        unreachable!("distinct entries must differ at some position")
    }

    /// The sub-builder [`Self::sub_range`] replaced, kept as its reference:
    /// the entry range `lo..hi` (at least two entries), with the positions
    /// found mixed one rank at a time.
    #[cfg(test)]
    fn sub_builder_reference(
        &self,
        lo: usize,
        hi: usize,
        height_of: impl Fn(u64) -> u8 + Copy,
    ) -> Builder {
        debug_assert!(hi - lo >= 2);
        let mut keep_mask = 0u64;
        let mut kept_positions = Vec::new();
        for r in 0..self.m() {
            let bit = self.bit_of_rank(r);
            let ones = self.sparse[lo..hi]
                .iter()
                .filter(|&&s| s & (1 << bit) != 0)
                .count();
            if ones > 0 && ones < hi - lo {
                keep_mask |= 1u64 << bit;
                kept_positions.push(self.positions[r]);
            }
        }
        let values = self.values[lo..hi].to_vec();
        Builder {
            positions: kept_positions,
            sparse: self.sparse[lo..hi]
                .iter()
                .map(|&s| hot_bits::pext64(s as u64, keep_mask) as u32)
                .collect(),
            height: 1 + values.iter().map(|&v| height_of(v)).max().unwrap_or(0),
            values,
        }
    }

    /// Structural invariant check for tests: a panicking wrapper over [`Self::try_check_invariants`].
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        if let Err(msg) = self.try_check_invariants() {
            panic!("{msg}");
        }
    }

    /// Structural invariant check, reporting the first violation instead of
    /// panicking (the whole-tree walk in [`crate::invariants`] aggregates
    /// these into its error message).
    ///
    /// Verifies: entries within bounds, positions sorted and distinct, entry
    /// 0's sparse key is 0, entries are distinct, the linearization decodes
    /// to a well-formed Patricia topology (every recursion step finds a
    /// mixed position and splits into contiguous sides — this is the
    /// paper's sparse-partial-key *discriminativity*), and every sparse key
    /// bit is justified by the entry's path.
    pub(crate) fn try_check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        let m = self.m();
        if n < 2 {
            return Err(format!("node holds {n} entries; at least 2 required"));
        }
        if n > MAX_FANOUT + 1 {
            return Err(format!("node holds {n} entries; at most k+1 allowed"));
        }
        if m == 0 || m >= n {
            return Err(format!(
                "position count violates 1 <= m <= n-1 (m={m}, n={n})"
            ));
        }
        if !self.positions.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "positions not sorted/distinct: {:?}",
                self.positions
            ));
        }
        if self.sparse[0] != 0 {
            return Err(format!(
                "leftmost entry's sparse key is {:#b}, expected 0",
                self.sparse[0]
            ));
        }
        if self.sparse.len() != self.values.len() {
            return Err(format!(
                "sparse/values length mismatch: {} vs {}",
                self.sparse.len(),
                self.values.len()
            ));
        }
        let max_sparse = self.sparse.iter().map(|s| *s as u64).max().unwrap_or(0);
        if max_sparse >= (1u64 << m) {
            return Err(format!(
                "sparse key {max_sparse:#b} does not fit in m={m} bits"
            ));
        }
        self.check_topology(0, n - 1, &mut vec![false; m])
    }

    fn check_topology(&self, lo: usize, hi: usize, on_path: &mut Vec<bool>) -> Result<(), String> {
        if lo == hi {
            // A leaf entry: every set sparse bit must be an on-path 1 bit.
            for (r, &on) in on_path.iter().enumerate().take(self.m()) {
                let bit = self.bit_of_rank(r);
                if self.sparse[lo] & (1 << bit) != 0 && !on {
                    return Err(format!("entry {lo} has bit set at rank {r} off its path"));
                }
            }
            return Ok(());
        }
        let Some(rank) = (0..self.m()).find(|&r| {
            let bit = self.bit_of_rank(r);
            let first = self.sparse[lo] & (1 << bit);
            self.sparse[lo..=hi]
                .iter()
                .any(|&s| s & (1 << bit) != first)
        }) else {
            return Err(format!(
                "entries {lo}..={hi} are indistinguishable (duplicate sparse keys)"
            ));
        };
        let bit = self.bit_of_rank(rank);
        let split = (lo..=hi)
            .find(|&i| self.sparse[i] & (1 << bit) != 0)
            .expect("rank was chosen mixed over lo..=hi");
        if split == lo {
            return Err(format!(
                "BiNode at rank {rank} over {lo}..={hi} has an empty 0 side"
            ));
        }
        // The 0 side precedes the 1 side and each is contiguous.
        for i in lo..split {
            if self.sparse[i] & (1 << bit) != 0 {
                return Err(format!("entry {i}: 0 side of rank {rank} not contiguous"));
            }
        }
        for i in split..=hi {
            if self.sparse[i] & (1 << bit) == 0 {
                return Err(format!("entry {i}: 1 side of rank {rank} not contiguous"));
            }
        }
        self.check_topology(lo, split - 1, on_path)?;
        on_path[rank] = true;
        let res = self.check_topology(split, hi, on_path);
        on_path[rank] = false;
        res
    }
}

/// The extracted bit of the parent BiNode of entry `idx` in a node of `n`
/// entries whose sparse keys `sparse` reads. Two adjacent entries diverge
/// at their lowest common BiNode, and its bit is the highest one in which
/// their sparse keys differ (below it, only the left entry's path has set
/// bits). Both divergences of `idx` with its neighbours lie on its path;
/// the parent is the deeper one, at the larger position and so at the
/// lower bit.
pub(crate) fn parent_bit(n: usize, idx: usize, sparse: impl Fn(usize) -> u32) -> u32 {
    let key = sparse(idx);
    let divergence = |other: u32| 31 - (key ^ other).leading_zeros();
    let left = if idx > 0 {
        divergence(sparse(idx - 1))
    } else {
        u32::MAX
    };
    let right = if idx + 1 < n {
        divergence(sparse(idx + 1))
    } else {
        u32::MAX
    };
    left.min(right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{encode, free, HeapSlot, NodeRef, NodeTag};
    use crate::store::HeapStore;
    use hot_keys::EmbeddedKeySource;

    /// Child-height resolver over heap value words.
    fn ref_height(word: u64) -> u8 {
        let r = NodeRef(word);
        if r.is_node() {
            r.as_raw().height()
        } else {
            0
        }
    }

    /// The two-entry node of [`Builder::pair`], in a fresh builder.
    fn pair(pos: u16, zero: u64, one: u64, height: u8) -> Builder {
        let mut b = Builder::empty();
        b.pair(pos, zero, one, height);
        b
    }

    /// [`Builder::split`] into two fresh halves.
    fn split(b: &Builder) -> (u16, Builder, Builder) {
        let (mut left, mut right) = (Builder::empty(), Builder::empty());
        let pos = b.split(&mut left, &mut right, ref_height);
        (pos, left, right)
    }

    /// Reference: build the expected (sparse) linearization from full keys
    /// by simulating a binary Patricia trie over the given bit width.
    fn reference_builder(keys: &[u32], width: u16) -> Builder {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        // Discriminative positions = positions where a Patricia trie over
        // these keys branches. Build recursively.
        fn build(
            keys: &[u32],
            width: u16,
            from_bit: u16,
            positions: &mut Vec<u16>,
            paths: &mut Vec<Vec<(u16, u8)>>,
            prefix: &mut Vec<(u16, u8)>,
        ) {
            if keys.len() == 1 {
                paths.push(prefix.clone());
                return;
            }
            // Find the highest bit (smallest position) where keys differ.
            let mut pos = from_bit;
            loop {
                let b = |k: u32| (k >> (width - 1 - pos)) & 1;
                if keys.iter().any(|&k| b(k) != b(keys[0])) {
                    break;
                }
                pos += 1;
            }
            positions.push(pos);
            let split = keys
                .iter()
                .position(|&k| (k >> (width - 1 - pos)) & 1 == 1)
                .unwrap();
            prefix.push((pos, 0));
            build(&keys[..split], width, pos + 1, positions, paths, prefix);
            prefix.pop();
            prefix.push((pos, 1));
            build(&keys[split..], width, pos + 1, positions, paths, prefix);
            prefix.pop();
        }
        let mut positions = Vec::new();
        let mut paths = Vec::new();
        build(keys, width, 0, &mut positions, &mut paths, &mut Vec::new());
        positions.sort_unstable();
        positions.dedup();
        let m = positions.len();
        let sparse: Vec<u32> = paths
            .iter()
            .map(|path| {
                let mut s = 0u32;
                for &(pos, bitval) in path {
                    let r = positions.binary_search(&pos).unwrap();
                    s |= (bitval as u32) << (m - 1 - r);
                }
                s
            })
            .collect();
        Builder {
            positions,
            sparse,
            values: keys.iter().map(|&k| NodeRef::leaf(k as u64).0).collect(),
            height: 1,
        }
    }

    /// Insert keys one at a time through the builder API, mimicking what the
    /// tree layer does (search = subset match, mismatch via full keys).
    fn builder_by_insertion(keys: &[u32], width: u16) -> Builder {
        assert!(keys.len() >= 2);
        let key_bit = |k: u32, p: u16| ((k >> (width - 1 - p)) & 1) as u8;
        let mut sorted_first_two = [keys[0], keys[1]];
        sorted_first_two.sort_unstable();
        // Find mismatch position of the first two keys.
        let mut pos = 0;
        while key_bit(keys[0], pos) == key_bit(keys[1], pos) {
            pos += 1;
        }
        let mut b = pair(
            pos,
            NodeRef::leaf(sorted_first_two[0] as u64).0,
            NodeRef::leaf(sorted_first_two[1] as u64).0,
            1,
        );
        for &k in &keys[2..] {
            // Search: extract dense key, find highest subset match.
            let dense = {
                let mut d = 0u32;
                let m = b.positions.len();
                for (r, &p) in b.positions.iter().enumerate() {
                    d |= (key_bit(k, p) as u32) << (m - 1 - r);
                }
                d
            };
            let matched = (0..b.len())
                .rev()
                .find(|&i| b.sparse[i] & dense == b.sparse[i])
                .unwrap();
            let existing = NodeRef(b.values[matched]).tid() as u32;
            assert_ne!(existing, k, "duplicate key in test");
            let mut mis = 0;
            while key_bit(existing, mis) == key_bit(k, mis) {
                mis += 1;
            }
            b.insert_entry(mis, matched, key_bit(k, mis), NodeRef::leaf(k as u64).0);
            b.check_invariants();
        }
        b
    }

    /// Seven 10-bit keys whose binary Patricia trie has the discriminative
    /// positions {3, 4, 6, 8, 9} of the paper's Figure 5 example (position 4
    /// discriminates in two subtrees, so 6 BiNodes share 5 positions).
    const FIG5_KEYS: [u32; 7] = [0, 1, 32, 40, 64, 66, 96];

    #[test]
    fn figure5_example() {
        let b = reference_builder(&FIG5_KEYS, 10);
        assert_eq!(b.positions, vec![3, 4, 6, 8, 9]);
        // Sparse partial keys: only on-path discriminative bits are set,
        // all others stay 0. Positions (3,4,6,8,9) -> extracted bits
        // (4,3,2,1,0).
        assert_eq!(
            b.sparse,
            vec![0b00000, 0b00001, 0b01000, 0b01100, 0b10000, 0b10010, 0b11000]
        );
        b.check_invariants();
    }

    #[test]
    fn insertion_matches_reference_construction() {
        // Deterministic structure conjecture at node level: inserting in any
        // order yields the reference linearization.
        let keys = FIG5_KEYS;
        let reference = reference_builder(&keys, 10);
        // Insertion in sorted order.
        let built = builder_by_insertion(&keys, 10);
        assert_eq!(built.positions, reference.positions);
        assert_eq!(built.sparse, reference.sparse);
        assert_eq!(built.values, reference.values);
        // Insertion in a scrambled order.
        let scrambled = [
            keys[4], keys[0], keys[6], keys[2], keys[5], keys[1], keys[3],
        ];
        let built2 = builder_by_insertion(&scrambled, 10);
        assert_eq!(built2.positions, reference.positions);
        assert_eq!(built2.sparse, reference.sparse);
        assert_eq!(built2.values, reference.values);
    }

    #[test]
    fn ensure_position_recodes_with_pdep() {
        let mut b = Builder {
            positions: vec![3, 9],
            sparse: vec![0b00, 0b01, 0b10],
            values: vec![NodeRef::leaf(0).0, NodeRef::leaf(1).0, NodeRef::leaf(2).0],
            height: 1,
        };
        // Insert position 7 between ranks: new ranks (3,7,9); extracted bits
        // p3 -> 2, p7 -> 1, p9 -> 0. Old bit for p3 was 1, for p9 was 0.
        let bit = b.ensure_position(7);
        assert_eq!(bit, 1);
        assert_eq!(b.positions, vec![3, 7, 9]);
        assert_eq!(b.sparse, vec![0b000, 0b001, 0b100]);
        // Existing position returns its bit without recoding.
        assert_eq!(b.ensure_position(3), 2);
        assert_eq!(b.sparse, vec![0b000, 0b001, 0b100]);
    }

    #[test]
    fn affected_range_is_the_subtree() {
        // Node over positions {0,1}: entries 00, 01, 10, 11 (a full trie).
        let b = Builder {
            positions: vec![0, 1],
            sparse: vec![0b00, 0b01, 0b10, 0b11],
            values: (0..4).map(|i| NodeRef::leaf(i).0).collect(),
            height: 1,
        };
        // BiNode at bit 0 (position 1) below entry 1: the subtree through
        // entry 1 with prefix bits above bit 0 -> entries sharing bit 1.
        assert_eq!(b.affected_range(0, 1), (0, 1));
        assert_eq!(b.affected_range(0, 2), (2, 3));
        // At the root bit every entry is affected.
        assert_eq!(b.affected_range(1, 2), (0, 3));
    }

    #[test]
    fn insert_entry_zero_and_one_sides() {
        // Start with keys {0b00, 0b11} over 2-bit space, position 0.
        let mut b = pair(0, NodeRef::leaf(0b00).0, NodeRef::leaf(0b11).0, 1);
        // Insert 0b01: mismatch with 0b00 at position 1, bit 1 -> goes after.
        b.insert_entry(1, 0, 1, NodeRef::leaf(0b01).0);
        b.check_invariants();
        assert_eq!(
            b.values,
            vec![
                NodeRef::leaf(0b00).0,
                NodeRef::leaf(0b01).0,
                NodeRef::leaf(0b11).0
            ]
        );
        // Insert 0b10: candidate search would match 0b11 (dense 10 ⊇ sparse
        // of entry 2? entry 2 sparse is 1<<1|? ). Mismatch at position 1,
        // bit 0 -> goes before the affected subtree {0b11}.
        let matched = 2;
        b.insert_entry(1, matched, 0, NodeRef::leaf(0b10).0);
        b.check_invariants();
        assert_eq!(
            b.values,
            vec![
                NodeRef::leaf(0b00).0,
                NodeRef::leaf(0b01).0,
                NodeRef::leaf(0b10).0,
                NodeRef::leaf(0b11).0
            ]
        );
        assert_eq!(b.positions, vec![0, 1]);
        assert_eq!(b.sparse, vec![0b00, 0b01, 0b10, 0b11]);
    }

    #[test]
    fn split_partitions_at_root() {
        let keys: Vec<u32> = (0..8).collect();
        let b = reference_builder(&keys, 8);
        let (pos, left, right) = split(&b);
        // Root BiNode = smallest position. Keys 0..8 over 8 bits differ in
        // bits 5,6,7; the root splits at position 5 into 0..4 and 4..8.
        assert_eq!(pos, 5);
        assert_eq!(left.len(), 4);
        assert_eq!(right.len(), 4);
        left.check_invariants();
        right.check_invariants();
        assert_eq!(
            left.values,
            (0..4).map(|i| NodeRef::leaf(i).0).collect::<Vec<_>>()
        );
        assert_eq!(
            right.values,
            (4..8).map(|i| NodeRef::leaf(i).0).collect::<Vec<_>>()
        );
        // Sub-builders keep only internally-mixed positions.
        assert_eq!(left.positions, vec![6, 7]);
        assert_eq!(right.positions, vec![6, 7]);
        assert_eq!(left.sparse, vec![0b00, 0b01, 0b10, 0b11]);
        assert_eq!(right.sparse, left.sparse);
    }

    #[test]
    fn split_with_singleton_side() {
        // Keys 0,1,2 over 2 bits: root at position 0 -> left {0,1}, right {2}.
        let b = reference_builder(&[0b00, 0b01, 0b10], 2);
        let (pos, left, right) = split(&b);
        assert_eq!(pos, 0);
        assert_eq!(left.len(), 2);
        assert_eq!(right.len(), 1);
        assert_eq!(right.values, vec![NodeRef::leaf(0b10).0]);
        assert!(right.positions.is_empty());
    }

    #[test]
    fn replace_entry_with_pair_pull_up() {
        // Parent with entries over position 0; pull up a BiNode at
        // position 4 under entry 1.
        let mut b = pair(0, NodeRef::leaf(10).0, NodeRef::leaf(20).0, 2);
        b.replace_entry_with_pair(1, 4, NodeRef::leaf(21).0, NodeRef::leaf(22).0, ref_height);
        b.check_invariants();
        assert_eq!(b.positions, vec![0, 4]);
        assert_eq!(b.sparse, vec![0b00, 0b10, 0b11]);
        assert_eq!(
            b.values,
            vec![
                NodeRef::leaf(10).0,
                NodeRef::leaf(21).0,
                NodeRef::leaf(22).0
            ]
        );
    }

    #[test]
    fn remove_entry_collapses_parent_binode() {
        // Full 2-bit trie; remove entry 0b01: its parent BiNode (position 1
        // on the left side) collapses, position 1 must survive (still used
        // on the right side).
        let mut b = Builder {
            positions: vec![0, 1],
            sparse: vec![0b00, 0b01, 0b10, 0b11],
            values: (0..4).map(|i| NodeRef::leaf(i).0).collect(),
            height: 1,
        };
        b.remove_entry(1);
        b.check_invariants();
        assert_eq!(b.positions, vec![0, 1]);
        assert_eq!(b.sparse, vec![0b00, 0b10, 0b11]);
        assert_eq!(
            b.values,
            vec![NodeRef::leaf(0).0, NodeRef::leaf(2).0, NodeRef::leaf(3).0]
        );
        // Now remove 0b11: position 1 becomes unused and is dropped.
        b.remove_entry(2);
        b.check_invariants();
        assert_eq!(b.positions, vec![0]);
        assert_eq!(b.sparse, vec![0b0, 0b1]);
    }

    #[test]
    fn remove_then_insert_roundtrip() {
        let keys = [3u32, 9, 17, 40, 41, 200, 201, 202];
        let full = reference_builder(&keys, 8);
        for victim in 0..keys.len() {
            let mut b = full.clone();
            b.remove_entry(victim);
            b.check_invariants();
            let remaining: Vec<u32> = keys
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != victim)
                .map(|(_, &k)| k)
                .collect();
            let expected = reference_builder(&remaining, 8);
            assert_eq!(b.positions, expected.positions, "victim {victim}");
            assert_eq!(b.sparse, expected.sparse, "victim {victim}");
            assert_eq!(b.values, expected.values, "victim {victim}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_through_physical_node() {
        let store = HeapStore::new(EmbeddedKeySource);
        let keys: Vec<u32> = vec![1, 5, 9, 100, 101, 162, 163, 255];
        let b = reference_builder(&keys, 8);
        let Ok(r) = encode(&store, &b);
        let mut decoded = Builder::empty();
        decoded.decode_into::<HeapSlot>(r.as_raw());
        assert_eq!(decoded, b);
        // SAFETY: the node was only just encoded; no other reference exists.
        unsafe { free(&store, r) };
        assert_eq!(store.mem.bytes(), 0);
    }

    #[test]
    fn encode_uses_minimal_layouts() {
        let store = HeapStore::new(EmbeddedKeySource);
        // 2 entries, 1 position in byte 0 -> Single8; positions spanning two
        // distant bytes -> Multi8x8.
        let multi = Builder {
            positions: vec![0, 100],
            sparse: vec![0b00, 0b01, 0b10],
            values: vec![NodeRef::leaf(0).0, NodeRef::leaf(1).0, NodeRef::leaf(2).0],
            height: 1,
        };
        for (b, tag) in [
            (
                pair(4, NodeRef::leaf(1).0, NodeRef::leaf(2).0, 1),
                NodeTag::Single8,
            ),
            (multi, NodeTag::Multi8x8),
        ] {
            let Ok(r) = encode(&store, &b);
            assert_eq!(r.tag(), tag);
            // SAFETY: the node was only just encoded; no other reference exists.
            unsafe { free(&store, r) };
        }
        assert_eq!(store.mem.bytes(), 0);
    }

    #[test]
    fn overflow_detection() {
        let keys: Vec<u32> = (0..32).collect();
        let mut b = reference_builder(&keys, 8);
        assert!(!b.overflowed());
        b.insert_entry(0, 0, 1, NodeRef::leaf(128).0);
        assert!(b.overflowed());
        b.check_invariants();
        let (_, left, right) = split(&b);
        assert!(!left.overflowed() && !right.overflowed());
        assert_eq!(left.len() + right.len(), 33);
    }

    /// Adjacent-pair mismatch positions for `width`-bit keys, the bulk
    /// loader's boundary representation.
    fn mismatch_bounds(keys: &[u32], width: u16) -> Vec<u16> {
        keys.windows(2)
            .map(|w| {
                let diff = w[0] ^ w[1];
                assert_ne!(diff, 0, "sorted distinct");
                (diff.leading_zeros() as u16) - (32 - width)
            })
            .collect()
    }

    #[test]
    fn from_fragment_matches_reference_builder() {
        // The boundary-only reconstruction must reproduce the full
        // recursive Patricia linearization, including shared positions
        // (e.g. bit 4 discriminating in two sibling subtrees, Figure 5).
        let cases: Vec<(Vec<u32>, u16)> = vec![
            (vec![0b000, 0b001, 0b100, 0b110], 3),
            (vec![0b0000, 0b0100, 0b0110, 0b1000, 0b1100, 0b1110], 4),
            ((0..32).collect(), 8),
            (vec![1, 2, 4, 8, 16, 32, 64, 128], 8),
            (vec![3, 7, 11, 200, 201, 202, 255], 8),
        ];
        for (keys, width) in cases {
            let expected = reference_builder(&keys, width);
            let values: Vec<u64> = keys.iter().map(|&k| NodeRef::leaf(k as u64).0).collect();
            let got = Builder::from_fragment(&mismatch_bounds(&keys, width), &values, ref_height);
            assert_eq!(got, expected, "keys {keys:?}");
            got.check_invariants();
        }
    }

    #[test]
    fn from_fragment_random_vs_reference() {
        // Deterministic LCG sweep over random key sets of every node size.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=32usize {
            for _ in 0..8 {
                let mut keys: Vec<u32> = Vec::with_capacity(n);
                while keys.len() < n {
                    let k = (next() & 0xFFFF) as u32;
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                keys.sort_unstable();
                let expected = reference_builder(&keys, 16);
                let values: Vec<u64> = keys.iter().map(|&k| NodeRef::leaf(k as u64).0).collect();
                let got = Builder::from_fragment(&mismatch_bounds(&keys, 16), &values, ref_height);
                assert_eq!(got, expected, "n={n} keys {keys:?}");
            }
        }
    }

    /// Random builders of every size from 3 to 33 entries (33: an
    /// overflowed builder, as the split sees it) over `width`-bit keys.
    fn random_builders(width: u16, mut visit: impl FnMut(&Builder)) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB11D_0E25);
        for n in 3..=MAX_FANOUT + 1 {
            for _ in 0..16 {
                let mut keys = std::collections::BTreeSet::new();
                while keys.len() < n {
                    keys.insert(rng.gen::<u32>() >> (32 - width));
                }
                visit(&reference_builder(
                    &keys.into_iter().collect::<Vec<_>>(),
                    width,
                ));
            }
        }
    }

    #[test]
    fn remove_entry_matches_the_walk() {
        for width in [8, 16, 32] {
            random_builders(width, |b| {
                for idx in 0..b.len() {
                    let (mut fast, mut walked) = (b.clone(), b.clone());
                    fast.remove_entry(idx);
                    walked.remove_entry_walk(idx);
                    assert_eq!(fast, walked, "width {width} idx {idx} of {b:?}");
                }
            });
        }
    }

    #[test]
    fn sub_range_matches_the_reference() {
        random_builders(32, |b| {
            let mut out = Builder::empty();
            for lo in 0..b.len() - 1 {
                for hi in lo + 2..=b.len() {
                    b.sub_range(lo, hi, &mut out, ref_height);
                    assert_eq!(
                        out,
                        b.sub_builder_reference(lo, hi, ref_height),
                        "{lo}..{hi} of {b:?}"
                    );
                }
            }
        });
    }
}
