//! Physical node representation (Section 4 of the paper) — the one node
//! codec of both stores.
//!
//! epoch-exempt: node primitives borrow a `RawNode` the caller already
//! holds legitimately (epoch pin, node lock, private pre-publish build, or
//! quiescence) — liveness is established a layer above, in `sync.rs`.
//!
//! A HOT compound node linearizes a k-constrained binary Patricia trie into
//! one exact-size block holding four sections:
//!
//! ```text
//! ┌────────┬───────────────┬──────────────┬────────┐
//! │ header │ bit positions │ partial keys │ values │
//! └────────┴───────────────┴──────────────┴────────┘
//! ```
//!
//! * **header** — versioned lock word (used by the concurrent index), subtree
//!   height, entry count;
//! * **bit positions** — either a *single mask* (8-bit byte offset + 64-bit
//!   extraction mask over one 8-byte key window) or a *multi mask* (8, 16 or
//!   32 pairs of byte offset + 8-bit mask);
//! * **partial keys** — `n` *sparse partial keys* of 8, 16 or 32 bits;
//! * **values** — `n` child words of the store's [`Slot`] width: 64-bit
//!   tagged pointers or leaf TIDs on the heap, 32-bit offset words in the
//!   arena (DESIGN.md §16).
//!
//! The 9 valid (mask representation × partial-key width) combinations are
//! the paper's 9 node layouts ([`NodeTag`]). The node type travels in the
//! low 5 bits of each child reference word so the type dispatch overlaps the
//! prefetch of the node body (Section 4.5).
//!
//! Everything about a node is written here once, generic over the slot:
//! its [`geometry`], the header set-up of a fresh block ([`alloc`]),
//! [`encode`], the fused insert ([`RawNode::insert_entry_cow`]), the free
//! ([`free`]) and the descent step. A store only hands out and takes back
//! blocks of a given size (DESIGN.md §19).

pub(crate) mod builder;
pub(crate) mod heap;

// Lock words and value slots are ROWEX-protocol state: their atomics come
// from the shim so the loom models can instrument them. The `MemCounter`
// of `heap` intentionally stays on std atomics — allocation counters are
// not part of the protocol and would only blow up the model's state space.
use crate::sync_shim::{AtomicU32, AtomicU64, Ordering};

use hot_bits::search::{PADDED_BYTES_U16, PADDED_BYTES_U32, PADDED_BYTES_U8};
use crate::arena::{CRef, NODE_UNIT};
use crate::store::NodeStore;
use crate::trie::HotTrie;
use builder::Builder;
use hot_bits::{Isa, Kernel};
use hot_keys::{KeySource, PaddedKey, KEY_PAD_LEN};

pub(crate) use heap::MemCounter;

/// Maximum compound-node fanout `k` (Section 4.1: "set the maximum fanout k
/// to 32, which is large enough to benefit from CPU caches and small enough
/// to support fast updates").
pub(crate) const MAX_FANOUT: usize = 32;

/// Maximum number of discriminative bit positions per node (`k - 1` BiNodes
/// always suffice to separate `k` keys).
pub(crate) const MAX_POSITIONS: usize = MAX_FANOUT - 1;

const LEAF_BIT: u64 = 1 << 63;
const TAG_MASK: u64 = 0x1F;
const HEADER_BYTES: usize = 8;
const NODE_ALIGN: usize = 32;

/// The nine physical node layouts of Figure 6: four bit-position
/// representations crossed with three partial-key widths, restricted to the
/// combinations that can actually occur (9–16 distinct key bytes imply at
/// least 9 discriminative bits, hence ≥ 16-bit partial keys, and so on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeTag {
    /// Single 64-bit mask, 8-bit partial keys.
    Single8 = 0,
    /// Single 64-bit mask, 16-bit partial keys.
    Single16 = 1,
    /// Single 64-bit mask, 32-bit partial keys.
    Single32 = 2,
    /// 8 offset/mask pairs, 8-bit partial keys.
    Multi8x8 = 3,
    /// 8 offset/mask pairs, 16-bit partial keys.
    Multi8x16 = 4,
    /// 8 offset/mask pairs, 32-bit partial keys.
    Multi8x32 = 5,
    /// 16 offset/mask pairs, 16-bit partial keys.
    Multi16x16 = 6,
    /// 16 offset/mask pairs, 32-bit partial keys.
    Multi16x32 = 7,
    /// 32 offset/mask pairs, 32-bit partial keys.
    Multi32x32 = 8,
}

/// Bit-position representation kind (first adaptivity dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaskKind {
    /// One byte offset + one 64-bit mask over an 8-byte window.
    Single,
    /// `n` byte offsets, each with an 8-bit mask.
    Multi(usize),
}

impl NodeTag {
    /// All nine layouts, for exhaustive tests.
    pub const ALL: [NodeTag; 9] = [
        NodeTag::Single8,
        NodeTag::Single16,
        NodeTag::Single32,
        NodeTag::Multi8x8,
        NodeTag::Multi8x16,
        NodeTag::Multi8x32,
        NodeTag::Multi16x16,
        NodeTag::Multi16x32,
        NodeTag::Multi32x32,
    ];

    #[inline]
    pub(crate) fn from_u8(v: u8) -> NodeTag {
        debug_assert!(v <= 8);
        // SAFETY: NodeTag is repr(u8) with contiguous discriminants 0..=8
        // and every stored tag was produced from a NodeTag.
        unsafe { std::mem::transmute::<u8, NodeTag>(v) }
    }

    /// Partial-key width in bytes (1, 2 or 4).
    #[inline]
    pub(crate) fn key_width(self) -> usize {
        match self {
            NodeTag::Single8 | NodeTag::Multi8x8 => 1,
            NodeTag::Single16 | NodeTag::Multi8x16 | NodeTag::Multi16x16 => 2,
            NodeTag::Single32
            | NodeTag::Multi8x32
            | NodeTag::Multi16x32
            | NodeTag::Multi32x32 => 4,
        }
    }

    /// Bit-position representation.
    #[inline]
    pub(crate) fn mask_kind(self) -> MaskKind {
        match self {
            NodeTag::Single8 | NodeTag::Single16 | NodeTag::Single32 => MaskKind::Single,
            NodeTag::Multi8x8 | NodeTag::Multi8x16 | NodeTag::Multi8x32 => MaskKind::Multi(8),
            NodeTag::Multi16x16 | NodeTag::Multi16x32 => MaskKind::Multi(16),
            NodeTag::Multi32x32 => MaskKind::Multi(32),
        }
    }

    /// Choose the smallest layout able to represent `positions` (sorted
    /// ascending key-bit positions).
    pub(crate) fn choose(positions: &[u16]) -> NodeTag {
        debug_assert!(!positions.is_empty() && positions.len() <= MAX_POSITIONS);
        let bits = positions.len();
        let min_byte = positions[0] / 8;
        let max_byte = positions[positions.len() - 1] / 8;
        let single = max_byte - min_byte < 8;
        let distinct_bytes = {
            let mut count = 0usize;
            let mut last = u16::MAX;
            for &p in positions {
                if p / 8 != last {
                    count += 1;
                    last = p / 8;
                }
            }
            count
        };
        match (single, distinct_bytes, bits) {
            (true, _, b) if b <= 8 => NodeTag::Single8,
            (true, _, b) if b <= 16 => NodeTag::Single16,
            (true, _, _) => NodeTag::Single32,
            (false, d, b) if d <= 8 && b <= 8 => NodeTag::Multi8x8,
            (false, d, b) if d <= 8 && b <= 16 => NodeTag::Multi8x16,
            (false, d, _) if d <= 8 => NodeTag::Multi8x32,
            (false, d, b) if d <= 16 && b <= 16 => NodeTag::Multi16x16,
            (false, d, _) if d <= 16 => NodeTag::Multi16x32,
            _ => NodeTag::Multi32x32,
        }
    }

    fn mask_section_bytes(self) -> usize {
        match self.mask_kind() {
            MaskKind::Single => 16,               // u8 offset + pad + u64 mask
            MaskKind::Multi(n) => n + n,          // n offsets + n mask bytes
        }
    }

    fn simd_padding(self) -> usize {
        match self.key_width() {
            1 => PADDED_BYTES_U8,
            2 => PADDED_BYTES_U16,
            _ => PADDED_BYTES_U32,
        }
    }
}

/// Byte offsets of the node sections and the total allocation size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeGeometry {
    pub(crate) pkeys_offset: usize,
    pub(crate) values_offset: usize,
    pub(crate) alloc_size: usize,
}

/// The section offsets and block size of a node of layout `tag` with
/// `count` value slots of flavour `V`. Header, mask and partial-key sections
/// are the same for either flavour; the value section starts at the next
/// `V::BYTES` boundary, and the block rounds up to the store's
/// `V::GRAIN`.
pub(crate) fn geometry<V: Slot>(tag: NodeTag, count: usize) -> NodeGeometry {
    debug_assert!((2..=MAX_FANOUT).contains(&count));
    let pkeys_offset = HEADER_BYTES + tag.mask_section_bytes();
    let pkeys_end = pkeys_offset + count * tag.key_width();
    let values_offset = pkeys_end.next_multiple_of(V::BYTES);
    let logical_end = values_offset + count * V::BYTES;
    // The SIMD search reads full vectors from the partial-key base; make
    // sure those reads stay inside the allocation (the values section
    // usually covers it already).
    let simd_end = pkeys_offset + tag.simd_padding();
    let alloc_size = logical_end.max(simd_end).next_multiple_of(V::GRAIN);
    NodeGeometry {
        pkeys_offset,
        values_offset,
        alloc_size,
    }
}

/// A fresh block of `store` for a node of layout `tag` with `count` entries
/// at `height`: its reference, and the view its sections are written
/// through. This is the one place a node's header is written; mask,
/// partial-key and value sections must be written before the node is
/// published.
pub(crate) fn alloc<St: NodeStore>(
    store: &St,
    tag: NodeTag,
    count: usize,
    height: u8,
) -> Result<(St::Ref, RawNode), St::Full> {
    let r = store.alloc_node(tag, geometry::<St::Slot>(tag, count).alloc_size)?;
    let node = store.raw(r);
    // Header layout: [lock: u32][height: u8][count: u8][pad: u16]; the lock
    // word starts clear.
    // SAFETY: the store handed out an exclusively owned block, 8-aligned
    // and covering at least the 8-byte header.
    unsafe { (node.base as *mut [u8; HEADER_BYTES]).write([0, 0, 0, 0, height, count as u8, 0, 0]) };
    Ok((r, node))
}

/// Encode `builder` (value words widened) into a fresh node of `store`
/// with the smallest applicable layout, not yet reachable.
///
/// # Panics
/// Panics if the builder is not a valid node (entry count outside
/// `2..=32`, or more than 31 positions).
pub(crate) fn encode<St: NodeStore>(store: &St, builder: &Builder) -> Result<St::Ref, St::Full> {
    let n = builder.values.len();
    assert!((2..=MAX_FANOUT).contains(&n), "entry count {n}");
    assert!(
        !builder.positions.is_empty() && builder.positions.len() <= MAX_POSITIONS,
        "position count {}",
        builder.positions.len()
    );
    let tag = NodeTag::choose(&builder.positions);
    let (r, node) = alloc(store, tag, n, builder.height)?;
    node.fill::<St::Slot>(&builder.positions, &builder.sparse, &builder.values);
    Ok(r)
}

/// Give `node`'s block back to `store`.
///
/// # Safety
/// `node` must be unreachable — unlinked by a completed publish, or never
/// published — and no reader may still hold it (the concurrent front-end
/// defers this call through the epoch).
pub(crate) unsafe fn free<St: NodeStore + ?Sized>(store: &St, node: St::Ref) {
    let raw = store.raw(node);
    let bytes = geometry::<St::Slot>(raw.tag, raw.count()).alloc_size;
    // SAFETY: the caller's contract; `bytes` is the size `alloc` took for
    // this layout and count.
    unsafe { store.free_node(node, bytes) };
}

/// The node micro-benchmark's copy-on-write cycle: build a height-1 node
/// over `n` leaves (`2..=MAX_FANOUT`), and return a closure that encodes it
/// into a block of `trie`'s store and frees that block again, once per call.
#[doc(hidden)]
pub fn cow_cycle_for_bench<S: KeySource>(trie: &HotTrie<S>, n: usize) -> impl FnMut() -> u64 + '_ {
    // A valid linearization by repeated insert_entry: n - 1 positions, each
    // new entry split off the first one at the next smaller position.
    let m = n - 1;
    let mut builder = Builder::pair((m - 1) as u16, NodeRef::leaf(0).0, NodeRef::leaf(1).0, 1);
    for i in 2..n {
        builder.insert_entry((m - i + 1) as u16, 0, 1, NodeRef::leaf(i as u64).0);
    }
    move || {
        let Ok(r) = encode(trie.store(), &builder);
        // SAFETY: `r` was never published, so no other reference exists.
        unsafe { free(trie.store(), r) };
        r.0
    }
}

/// A tagged 64-bit tree word: null, leaf TID (bit 63 set) or node pointer
/// with the [`NodeTag`] in the low 5 bits (Section 4.2: "we distinguish
/// between a pointer and a tuple identifier using the most-significant bit";
/// Section 4.5: "we encode the node type within the least-significant bits
/// of each node pointer").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub(crate) struct NodeRef(pub u64);

impl NodeRef {
    /// The null reference (empty tree).
    pub(crate) const NULL: NodeRef = NodeRef(0);

    /// Tag a tuple identifier as a leaf word.
    #[inline]
    pub(crate) fn leaf(tid: u64) -> NodeRef {
        debug_assert!(tid & LEAF_BIT == 0, "tid must fit in 63 bits");
        NodeRef(tid | LEAF_BIT)
    }

    #[inline]
    pub(crate) fn node(ptr: *mut u8, tag: NodeTag) -> NodeRef {
        debug_assert_eq!(ptr as u64 & TAG_MASK, 0, "node pointers are 32-byte aligned");
        NodeRef(ptr as u64 | tag as u64)
    }

    /// Is this the null reference?
    #[inline]
    pub(crate) fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Is this a leaf TID?
    #[inline]
    pub(crate) fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    /// Is this a compound-node pointer?
    #[inline]
    pub(crate) fn is_node(self) -> bool {
        !self.is_leaf() && !self.is_null()
    }

    /// The tuple identifier of a leaf word.
    #[inline]
    pub(crate) fn tid(self) -> u64 {
        debug_assert!(self.is_leaf());
        self.0 & !LEAF_BIT
    }

    #[inline]
    pub(crate) fn tag(self) -> NodeTag {
        debug_assert!(self.is_node());
        NodeTag::from_u8((self.0 & TAG_MASK) as u8)
    }

    #[inline]
    pub(crate) fn ptr(self) -> *mut u8 {
        debug_assert!(self.is_node());
        (self.0 & !TAG_MASK) as *mut u8
    }

    /// View as a raw node. Caller must know this is a node reference.
    #[inline]
    pub(crate) fn as_raw(self) -> RawNode {
        debug_assert!(self.is_node());
        RawNode {
            base: self.ptr(),
            tag: self.tag(),
        }
    }
}

/// Typed view over one node allocation.
#[derive(Clone, Copy)]
pub(crate) struct RawNode {
    pub(crate) base: *mut u8,
    pub(crate) tag: NodeTag,
}

impl RawNode {
    #[inline]
    fn count_ptr(self) -> *mut u8 {
        // Header layout: [lock: u32][height: u8][count: u8][pad: u16]
        // SAFETY: within the 8-byte header.
        unsafe { self.base.add(5) }
    }

    #[inline]
    fn height_ptr(self) -> *mut u8 {
        // SAFETY: within the 8-byte header.
        unsafe { self.base.add(4) }
    }

    /// The versioned lock word (used only by the concurrent index).
    #[inline]
    pub(crate) fn lock_word(self) -> &'static AtomicU32 {
        // SAFETY: the first 4 bytes of the header are the lock word, aligned
        // to 4 (node base is 32-byte aligned). Lifetime is managed by the
        // epoch scheme; callers never hold the reference past the node. The
        // cast is valid in loom-model builds too: the shim's AtomicU32 is
        // guaranteed #[repr(transparent)] over std's (asserted by
        // sync_shim::tests::layout_matches_std).
        unsafe { &*(self.base as *const AtomicU32) }
    }

    /// Number of entries (2..=32).
    #[inline]
    pub(crate) fn count(self) -> usize {
        // SAFETY: header is always initialized.
        unsafe { *self.count_ptr() as usize }
    }

    /// Compound-subtree height (1 = all entries are leaves).
    #[inline]
    pub(crate) fn height(self) -> u8 {
        // SAFETY: header is always initialized.
        unsafe { *self.height_ptr() }
    }

    // ---- mask section accessors -------------------------------------------------

    /// Single-mask: the starting byte offset.
    #[inline]
    fn single_offset(self) -> usize {
        // SAFETY: single-mask section starts right after the header.
        unsafe { *self.base.add(HEADER_BYTES) as usize }
    }

    /// Single-mask: the 64-bit extraction mask (in big-endian window space).
    #[inline]
    fn single_mask(self) -> u64 {
        // SAFETY: mask is at header + 8, 8-byte aligned.
        unsafe { *(self.base.add(HEADER_BYTES + 8) as *const u64) }
    }

    #[inline]
    fn set_single(self, offset: u8, mask: u64) {
        // SAFETY: exclusively owned during build.
        unsafe {
            *self.base.add(HEADER_BYTES) = offset;
            *(self.base.add(HEADER_BYTES + 8) as *mut u64) = mask;
        }
    }

    /// Multi-mask: the byte-offset array (width = slot count).
    #[inline]
    fn multi_offsets(self, slots: usize) -> &'static [u8] {
        // SAFETY: offsets start right after the header, `slots` bytes.
        unsafe { std::slice::from_raw_parts(self.base.add(HEADER_BYTES), slots) }
    }

    /// Multi-mask: the mask words; word `w` packs mask bytes of slots
    /// `8w..8w+8` big-endian (slot `8w` in the most significant byte), so
    /// a PEXT over the correspondingly gathered key bytes emits bits in
    /// global position order.
    #[inline]
    fn multi_mask_word(self, slots: usize, w: usize) -> u64 {
        // SAFETY: mask words follow the offsets array (8-byte aligned since
        // slots is 8, 16 or 32 and the header is 8 bytes).
        unsafe { *(self.base.add(HEADER_BYTES + slots) as *const u64).add(w) }
    }

    #[inline]
    fn set_multi(self, offsets: &[u8], mask_bytes: &[u8]) {
        let slots = offsets.len();
        debug_assert_eq!(mask_bytes.len(), slots);
        // SAFETY: exclusively owned during build; section is `2 * slots`.
        unsafe {
            std::ptr::copy_nonoverlapping(offsets.as_ptr(), self.base.add(HEADER_BYTES), slots);
            let words = self.base.add(HEADER_BYTES + slots) as *mut u64;
            for w in 0..slots / 8 {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&mask_bytes[w * 8..w * 8 + 8]);
                *words.add(w) = u64::from_be_bytes(bytes);
            }
        }
    }

    // ---- partial keys and values ------------------------------------------------

    #[inline]
    pub(crate) fn pkeys_base(self) -> *mut u8 {
        // SAFETY: the partial keys follow the header and the mask section,
        // both inside the node.
        unsafe { self.base.add(HEADER_BYTES + self.tag.mask_section_bytes()) }
    }

    /// The sparse partial key of entry `i`, widened to u32.
    #[inline]
    pub(crate) fn sparse_key(self, i: usize) -> u32 {
        debug_assert!(i < self.count());
        let base = self.pkeys_base();
        // SAFETY: i < count and the partial-key section holds `count`
        // entries of the tag's width.
        unsafe {
            match self.tag.key_width() {
                1 => *base.add(i) as u32,
                2 => *(base as *const u16).add(i) as u32,
                _ => *(base as *const u32).add(i),
            }
        }
    }

    // ---- search -------------------------------------------------------------------

    /// One descent step: the index of the entry `key` selects, and its
    /// value word.
    ///
    /// This is the **one tag dispatch per node** (Section 4.5): every arm is
    /// a monomorphic [`step`] whose section offsets are constants plus
    /// `count`. It is generic over the [`Kernel`], so the caller's one ISA
    /// dispatch per call covers every node of the descent, and over the
    /// [`Slot`], so heap and compact nodes share it.
    #[inline(always)]
    pub(crate) fn find_candidate<K: Kernel, V: Slot>(
        self,
        k: K,
        key: &[u8; KEY_PAD_LEN],
    ) -> (usize, V::Word) {
        let base = self.base;
        // SAFETY: a `RawNode` views a live, fully built node of layout
        // `tag`; the caller names the slot width it was built with.
        unsafe {
            match self.tag {
                NodeTag::Single8 => step::<K, V, 0, 1>(k, base, key),
                NodeTag::Single16 => step::<K, V, 0, 2>(k, base, key),
                NodeTag::Single32 => step::<K, V, 0, 4>(k, base, key),
                NodeTag::Multi8x8 => step::<K, V, 8, 1>(k, base, key),
                NodeTag::Multi8x16 => step::<K, V, 8, 2>(k, base, key),
                NodeTag::Multi8x32 => step::<K, V, 8, 4>(k, base, key),
                NodeTag::Multi16x16 => step::<K, V, 16, 2>(k, base, key),
                NodeTag::Multi16x32 => step::<K, V, 16, 4>(k, base, key),
                NodeTag::Multi32x32 => step::<K, V, 32, 4>(k, base, key),
            }
        }
    }

    /// Intra-node search, portably: index of the result candidate for
    /// `dense` (highest-index subset match; Listing 2's
    /// `searchPartialKeys*`). For the invariant walks and as the reference
    /// the fused step is tested against; descents go through
    /// [`find_candidate`](Self::find_candidate).
    pub(crate) fn search(self, dense: u32) -> usize {
        use hot_bits::Portable;
        let (n, base) = (self.count(), self.pkeys_base() as *const u8);
        // SAFETY: the partial-key section holds `n` aligned entries of the
        // tag's width.
        unsafe {
            match self.tag.key_width() {
                1 => Portable.search_subset::<1>(base, n, dense),
                2 => Portable.search_subset::<2>(base, n, dense),
                _ => Portable.search_subset::<4>(base, n, dense),
            }
        }
    }

    /// Smallest discriminative bit position — the position of this node's
    /// root BiNode (positions strictly increase along every path, so the
    /// minimum over the node is attained at its root BiNode).
    #[inline]
    pub(crate) fn min_position(self) -> u16 {
        match self.tag.mask_kind() {
            MaskKind::Single => {
                let mask = self.single_mask();
                debug_assert!(mask != 0);
                (self.single_offset() * 8) as u16 + mask.leading_zeros() as u16
            }
            MaskKind::Multi(slots) => {
                // Slot 0 holds the smallest byte offset; its most significant
                // mask bit is the smallest position.
                let offsets = self.multi_offsets(slots);
                let byte0 = (self.multi_mask_word(slots, 0) >> 56) as u8;
                debug_assert!(byte0 != 0);
                (offsets[0] as u16) * 8 + byte0.leading_zeros() as u16
            }
        }
    }

    /// Decode the sorted discriminative bit positions (inverse of the mask
    /// encoding; used by structure modifications and invariant checks).
    pub(crate) fn positions(self) -> Vec<u16> {
        let mut out = Vec::new();
        self.positions_into(&mut out);
        out
    }

    /// Bulk-read all sparse keys and value words, both widened, into the
    /// given buffers — one width dispatch instead of one per entry.
    pub(crate) fn read_entries<V: Slot>(self, sparse: &mut Vec<u32>, values: &mut Vec<u64>) {
        let n = self.count();
        sparse.clear();
        values.clear();
        let base = self.pkeys_base();
        // SAFETY: the partial-key section holds `count` entries of the
        // tag's width; the value section `count` initialized `V` slots.
        unsafe {
            match self.tag.key_width() {
                1 => sparse.extend(std::slice::from_raw_parts(base, n).iter().map(|&k| k as u32)),
                2 => sparse.extend(
                    std::slice::from_raw_parts(base as *const u16, n)
                        .iter()
                        .map(|&k| k as u32),
                ),
                _ => sparse.extend_from_slice(std::slice::from_raw_parts(base as *const u32, n)),
            }
            let vals = V::values(self) as *const V::Atomic;
            values.extend((0..n).map(|i| (*vals.add(i)).load_word(Ordering::Relaxed)));
        }
    }

    /// Number of discriminative positions strictly below `pos`, and the
    /// total position count — computed directly from the mask encoding
    /// (no allocation; used by the hot insert/scan paths).
    pub(crate) fn rank_and_total(self, pos: usize) -> (usize, usize) {
        match self.tag.mask_kind() {
            MaskKind::Single => {
                let mask = self.single_mask();
                let m = mask.count_ones() as usize;
                let base = self.single_offset() * 8;
                if pos <= base {
                    return (0, m);
                }
                let rel = pos - base;
                if rel >= 64 {
                    return (m, m);
                }
                // Positions below `pos` occupy window bits above 63-rel.
                ((mask >> (64 - rel)).count_ones() as usize, m)
            }
            MaskKind::Multi(slots) => {
                let offsets = self.multi_offsets(slots);
                let byte_pos = pos / 8;
                let bit_in_byte = pos % 8;
                let mut rank = 0usize;
                let mut total = 0usize;
                for (s, &offset) in offsets.iter().enumerate() {
                    let word = self.multi_mask_word(slots, s / 8);
                    let mask_byte = (word >> (8 * (7 - s % 8))) as u8;
                    if mask_byte == 0 {
                        continue;
                    }
                    let ones = mask_byte.count_ones() as usize;
                    total += ones;
                    let b = offset as usize;
                    if b < byte_pos {
                        rank += ones;
                    } else if b == byte_pos && bit_in_byte > 0 {
                        // Key bits i < bit_in_byte live in mask-byte bits
                        // above (7 - bit_in_byte).
                        rank += (mask_byte >> (8 - bit_in_byte)).count_ones() as usize;
                    }
                }
                (rank, total)
            }
        }
    }

    /// Like [`Self::rank_and_total`], additionally reporting whether `pos`
    /// itself is already a discriminative position.
    pub(crate) fn rank_total_contains(self, pos: usize) -> (usize, usize, bool) {
        let (rank, total) = self.rank_and_total(pos);
        let contains = match self.tag.mask_kind() {
            MaskKind::Single => {
                let base = self.single_offset() * 8;
                pos >= base
                    && pos < base + 64
                    && self.single_mask() & (1u64 << (63 - (pos - base))) != 0
            }
            MaskKind::Multi(slots) => {
                let byte = (pos / 8) as u8;
                let bit = 1u8 << (7 - pos % 8);
                let offsets = self.multi_offsets(slots);
                (0..slots).any(|sl| {
                    let word = self.multi_mask_word(slots, sl / 8);
                    let mask_byte = (word >> (8 * (7 - sl % 8))) as u8;
                    mask_byte != 0 && offsets[sl] == byte && mask_byte & bit != 0
                })
            }
        };
        (rank, total, contains)
    }

    /// Fused copy-on-write insert fast path (the common normal-insert case),
    /// into a fresh block of `store`.
    ///
    /// Builds the new node directly from this node's physical layout when
    /// the layout is structurally stable: the node is not full, the
    /// partial-key width does not change, and the new position either
    /// already exists, fits the single-mask window, or lands in an existing
    /// multi-mask byte slot. Returns `Ok(None)` when any of that fails — the
    /// caller falls back to the general builder path — and the store's
    /// error when the block cannot be had.
    ///
    /// `lo..=hi` is the affected entry range, `key_bit` the new key's bit at
    /// `pos`, `leaf` the new entry's value word.
    pub(crate) fn insert_entry_cow<St: NodeStore>(
        self,
        store: &St,
        pos: usize,
        lo: usize,
        hi: usize,
        key_bit: u8,
        leaf: St::Ref,
    ) -> Result<Option<St::Ref>, St::Full> {
        let n = self.count();
        if n >= MAX_FANOUT {
            return Ok(None); // overflow: the builder/split path handles it
        }
        let (rank, m, contains) = self.rank_total_contains(pos);
        let new_m = m + usize::from(!contains);
        let width = self.tag.key_width();
        let new_width = match new_m {
            0..=8 => 1,
            9..=16 => 2,
            _ => 4,
        };
        if new_width != width {
            return Ok(None);
        }

        // Work out the (possibly) updated mask section.
        enum MaskPatch {
            None,
            Single(u64),
            Multi { slot: usize, byte_mask: u8 },
        }
        let patch = if contains {
            MaskPatch::None
        } else {
            match self.tag.mask_kind() {
                MaskKind::Single => {
                    let base = self.single_offset() * 8;
                    if pos < base || pos >= base + 64 {
                        return Ok(None); // window must grow: builder path
                    }
                    MaskPatch::Single(self.single_mask() | (1u64 << (63 - (pos - base))))
                }
                MaskKind::Multi(slots) => {
                    let byte = (pos / 8) as u8;
                    let offsets = self.multi_offsets(slots);
                    let mut found = None;
                    for (sl, &off) in offsets.iter().enumerate() {
                        let word = self.multi_mask_word(slots, sl / 8);
                        let mask_byte = (word >> (8 * (7 - sl % 8))) as u8;
                        if mask_byte != 0 && off == byte {
                            found = Some((sl, mask_byte | (1u8 << (7 - pos % 8))));
                            break;
                        }
                    }
                    match found {
                        Some((slot, byte_mask)) => MaskPatch::Multi { slot, byte_mask },
                        None => return Ok(None), // new byte slot: builder path
                    }
                }
            }
        };

        let e = (new_m - 1 - rank) as u32; // extracted bit of `pos`
        let deposit = if contains {
            0 // no recode
        } else {
            (((1u64 << new_m) - 1) & !(1u64 << e)) as u32
        };
        let at = if key_bit == 1 { hi + 1 } else { lo };

        let (r, node) = alloc(store, self.tag, n + 1, self.height())?;
        // Copy the mask section (between header and pkeys) verbatim, then
        // apply the one-bit patch.
        // SAFETY: both nodes share the tag; the mask section lies between
        // the 8-byte header and the partial keys and has identical extent.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(HEADER_BYTES),
                node.base.add(HEADER_BYTES),
                self.tag.mask_section_bytes(),
            );
        }
        match patch {
            MaskPatch::None => {}
            MaskPatch::Single(mask) => {
                // SAFETY: single-mask word sits at header + 8.
                unsafe { *(node.base.add(HEADER_BYTES + 8) as *mut u64) = mask };
            }
            MaskPatch::Multi { slot, byte_mask } => {
                let MaskKind::Multi(slots) = self.tag.mask_kind() else {
                    unreachable!()
                };
                // SAFETY: mask words follow the offsets array.
                unsafe {
                    let word_ptr =
                        (node.base.add(HEADER_BYTES + slots) as *mut u64).add(slot / 8);
                    let shift = 8 * (7 - slot % 8);
                    let cleared = *word_ptr & !(0xFFu64 << shift);
                    *word_ptr = cleared | ((byte_mask as u64) << shift);
                }
            }
        }

        // Transform + insert the sparse partial keys in one pass.
        let transform = |v: u32, idx: usize| -> u32 {
            let mut v = if contains {
                v
            } else {
                hot_bits::pdep64(v as u64, deposit as u64) as u32
            };
            if key_bit == 0 && (lo..=hi).contains(&idx) {
                v |= 1 << e;
            }
            v
        };
        // The new entry shares the path prefix (bits above `e`) with the
        // affected subtree; take it from the transformed `lo` entry before
        // its inverse-bit patch — i.e. from the recoded-only value.
        let prefix_mask = if e as usize + 1 >= 32 {
            0
        } else {
            !((2u32 << e) - 1)
        };
        let lo_recoded = if contains {
            self.sparse_key(lo)
        } else {
            hot_bits::pdep64(self.sparse_key(lo) as u64, deposit as u64) as u32
        };
        let new_sparse = (lo_recoded & prefix_mask) | ((key_bit as u32) << e);

        let src = self.pkeys_base();
        let dst = node.pkeys_base();
        // SAFETY: source holds n entries, destination n+1, both of `width`
        // and with value sections of `St::Slot` slots, whose words a
        // `St::Ref` is.
        unsafe {
            match width {
                1 => {
                    for i in 0..n + 1 {
                        let v = match i.cmp(&at) {
                            std::cmp::Ordering::Less => transform(*src.add(i) as u32, i),
                            std::cmp::Ordering::Equal => new_sparse,
                            std::cmp::Ordering::Greater => transform(*src.add(i - 1) as u32, i - 1),
                        };
                        *dst.add(i) = v as u8;
                    }
                }
                2 => {
                    let (src, dst) = (src as *const u16, dst as *mut u16);
                    for i in 0..n + 1 {
                        let v = match i.cmp(&at) {
                            std::cmp::Ordering::Less => transform(*src.add(i) as u32, i),
                            std::cmp::Ordering::Equal => new_sparse,
                            std::cmp::Ordering::Greater => transform(*src.add(i - 1) as u32, i - 1),
                        };
                        *dst.add(i) = v as u16;
                    }
                }
                _ => {
                    let (src, dst) = (src as *const u32, dst as *mut u32);
                    for i in 0..n + 1 {
                        let v = match i.cmp(&at) {
                            std::cmp::Ordering::Less => transform(*src.add(i), i),
                            std::cmp::Ordering::Equal => new_sparse,
                            std::cmp::Ordering::Greater => transform(*src.add(i - 1), i - 1),
                        };
                        *dst.add(i) = v;
                    }
                }
            }
            // Values: two block copies around the hole.
            let slot = St::Slot::BYTES;
            let (vsrc, vdst) = (St::Slot::values(self), St::Slot::values(node) as *mut u8);
            std::ptr::copy_nonoverlapping(vsrc, vdst, at * slot);
            (vdst as *mut St::Ref).add(at).write(leaf);
            std::ptr::copy_nonoverlapping(vsrc.add(at * slot), vdst.add((at + 1) * slot), (n - at) * slot);
        }
        Ok(Some(r))
    }

    /// The contiguous run of entries in the subtree that a (possibly new)
    /// discriminative bit at `pos` would split, on the path through entry
    /// `through` (see `builder` module docs for the correctness argument).
    pub(crate) fn affected_range(self, pos: usize, through: usize) -> (usize, usize) {
        let (rank, m) = self.rank_and_total(pos);
        let mask = if rank == 0 {
            0u32
        } else {
            (((1u64 << rank) - 1) << (m - rank)) as u32
        };
        let prefix = self.sparse_key(through) & mask;
        let n = self.count();
        let base = self.pkeys_base();
        // One SIMD compare replaces the scalar two-direction narrowing walk:
        // bit i of `matches` is set iff entry i shares the path prefix above
        // `pos` (the range-scan seek and the insert path both call this on a
        // hot path).
        // SAFETY: the allocation reserves the SIMD padding behind the
        // partial-key section (see `geometry`) and n is in 1..=32.
        let matches = unsafe {
            match self.tag.key_width() {
                1 => hot_bits::match_prefix_u8(base, n, mask as u8, prefix as u8),
                2 => hot_bits::match_prefix_u16(base as *const u16, n, mask as u16, prefix as u16),
                _ => hot_bits::match_prefix_u32(base as *const u32, n, mask, prefix),
            }
        };
        debug_assert!(matches & (1 << through) != 0, "member entry matches itself");
        // The affected range is the maximal run of consecutive matches
        // containing `through` (matching entries are contiguous in a
        // well-formed node — the subtree below `pos` is one in-order run —
        // but computing the run keeps the result identical to the scalar
        // narrowing even on a transiently inconsistent concurrent read).
        let above = !matches >> through;
        let hi = (through + above.trailing_zeros() as usize - 1).min(n - 1);
        let below = !matches << (31 - through);
        let lo = through + 1 - (below.leading_zeros() as usize).min(through + 1);
        (lo, hi)
    }

    /// Like [`Self::positions`], reusing the caller's buffer.
    pub(crate) fn positions_into(self, out: &mut Vec<u16>) {
        out.clear();
        match self.tag.mask_kind() {
            MaskKind::Single => {
                let offset = self.single_offset();
                let mask = self.single_mask();
                for j in (0..64).rev() {
                    if mask & (1u64 << j) != 0 {
                        out.push((offset * 8 + 63 - j) as u16);
                    }
                }
            }
            MaskKind::Multi(slots) => {
                let offsets = self.multi_offsets(slots);
                for (s, &offset) in offsets.iter().enumerate() {
                    let word = self.multi_mask_word(slots, s / 8);
                    let byte = (word >> (8 * (7 - s % 8))) as u8;
                    if byte == 0 {
                        continue;
                    }
                    for i in 0..8 {
                        if byte & (1 << (7 - i)) != 0 {
                            out.push(offset as u16 * 8 + i as u16);
                        }
                    }
                }
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "positions sorted");
    }

    /// Write the full node contents from decoded parts (build time only):
    /// mask and partial-key sections, and the value words narrowed to `V`
    /// slots (valid `V::Word` bit patterns).
    pub(crate) fn fill<V: Slot>(self, positions: &[u16], sparse: &[u32], values: &[u64]) {
        debug_assert_eq!(sparse.len(), values.len());
        debug_assert_eq!(self.count(), values.len());
        match self.tag.mask_kind() {
            MaskKind::Single => {
                let offset = (positions[0] / 8) as u8;
                let mut mask = 0u64;
                for &p in positions {
                    let rel = p as usize - offset as usize * 8;
                    debug_assert!(rel < 64);
                    mask |= 1u64 << (63 - rel);
                }
                self.set_single(offset, mask);
            }
            MaskKind::Multi(slots) => {
                let mut offsets = [0u8; 32];
                let mut mask_bytes = [0u8; 32];
                let mut used = 0usize;
                let mut last_byte = u16::MAX;
                for &p in positions {
                    let byte = p / 8;
                    if byte != last_byte {
                        offsets[used] = byte as u8;
                        used += 1;
                        last_byte = byte;
                    }
                    mask_bytes[used - 1] |= 1 << (7 - (p % 8));
                }
                debug_assert!(used <= slots);
                self.set_multi(&offsets[..slots], &mask_bytes[..slots]);
            }
        }
        // Bulk-write partial keys: one width dispatch, tight copy loops
        // (this is the hot part of every copy-on-write insert), then the
        // value words.
        let n = sparse.len();
        let base = self.pkeys_base();
        // SAFETY: exclusively owned during build; section sizes follow from
        // the node's `geometry::<V>`, and a `V::Word` is a slot's bytes.
        unsafe {
            match self.tag.key_width() {
                1 => {
                    for (i, &k) in sparse.iter().enumerate() {
                        debug_assert!(k <= u8::MAX as u32);
                        *base.add(i) = k as u8;
                    }
                }
                2 => {
                    let dst = base as *mut u16;
                    for (i, &k) in sparse.iter().enumerate() {
                        debug_assert!(k <= u16::MAX as u32);
                        *dst.add(i) = k as u16;
                    }
                }
                _ => {
                    std::ptr::copy_nonoverlapping(sparse.as_ptr(), base as *mut u32, n);
                }
            }
            let slots = V::values(self) as *mut V::Word;
            for (i, &v) in values.iter().enumerate() {
                slots.add(i).write(V::Word::from_word(v));
            }
        }
    }
}

/// A child-reference word: null, a leaf, or a compound node. The heap
/// back-end's is the tagged 64-bit [`NodeRef`], the arena's the 32-bit
/// offset word; both widen losslessly to the `u64` value words a
/// [`Builder`] holds, which is also how paths, frames and scheduler lanes
/// store them (so those buffers serve either back-end).
pub(crate) trait TreeRef: Copy + PartialEq + std::fmt::Debug {
    /// The null reference (empty slot / empty trie).
    const NULL: Self;
    /// Narrow a widened word back (the inverse of [`word`](Self::word)).
    fn from_word(w: u64) -> Self;
    /// Widen to the builder's value-word space.
    fn word(self) -> u64;
    fn is_null(self) -> bool;
    fn is_leaf(self) -> bool;
    fn is_node(self) -> bool;
}

impl TreeRef for NodeRef {
    const NULL: NodeRef = NodeRef::NULL;
    #[inline(always)]
    fn from_word(w: u64) -> NodeRef {
        NodeRef(w)
    }
    #[inline(always)]
    fn word(self) -> u64 {
        self.0
    }
    #[inline(always)]
    fn is_null(self) -> bool {
        NodeRef::is_null(self)
    }
    #[inline(always)]
    fn is_leaf(self) -> bool {
        NodeRef::is_leaf(self)
    }
    #[inline(always)]
    fn is_node(self) -> bool {
        NodeRef::is_node(self)
    }
}

/// The value-slot flavour of a node: 8-byte tree words on the heap, 4-byte
/// arena references in the compact layout (DESIGN.md §16). Header, mask and
/// partial-key sections are identical, so the whole codec — [`geometry`],
/// [`encode`], the fused insert, [`step`] — is written once over this
/// trait. What differs per flavour is here: the widths, and the one Acquire
/// load and one Release store of a slot.
pub(crate) trait Slot: Sized {
    /// A loaded value word, `#[repr(transparent)]` over the slot's integer
    /// (a build writes words straight into the slots).
    type Word: TreeRef;
    /// The atomic integer one slot is.
    type Atomic: SlotAtomic;
    /// Slot size, which is also the value section's alignment.
    const BYTES: usize;
    /// Block granularity of the store the nodes live in.
    const GRAIN: usize;

    /// Load value word `i` of the value section starting at `values`.
    ///
    /// Ordering: **Acquire** — pairs with the **Release** in
    /// [`set`](Self::set). A reader that observes a COW replacement's
    /// reference therefore observes the replacement node's fully written
    /// body.
    ///
    /// # Safety
    /// `values` must be the value section of a live node with more than
    /// `i` initialized slots of this flavour.
    unsafe fn load(values: *const u8, i: usize) -> Self::Word;

    /// Publish `w` in entry `i` of `node` — the single Release store of a
    /// copy-on-write replacement (the "single pointer swap" of Section 5).
    /// All plain stores that filled the new node happen-before it.
    fn set(node: RawNode, i: usize, w: Self::Word);

    /// Start of `node`'s value section (located once per scan-frame visit).
    #[inline(always)]
    fn values(node: RawNode) -> *const u8 {
        // SAFETY: the offset comes from the node's own geometry.
        unsafe { node.base.add(geometry::<Self>(node.tag, node.count()).values_offset) }
    }

    /// Value word of entry `i` (Acquire, see [`load`](Self::load)).
    #[inline(always)]
    fn get(node: RawNode, i: usize) -> Self::Word {
        debug_assert!(i < node.count());
        // SAFETY: i < count; values are initialized at build time.
        unsafe { Self::load(Self::values(node), i) }
    }
}

/// A slot's atomic integer, loaded widened to the builder's word space —
/// what lets one [`RawNode::read_entries`] serve both flavours.
pub(crate) trait SlotAtomic {
    fn load_word(&self, order: Ordering) -> u64;
}

impl SlotAtomic for AtomicU64 {
    #[inline(always)]
    fn load_word(&self, order: Ordering) -> u64 {
        self.load(order)
    }
}

impl SlotAtomic for AtomicU32 {
    #[inline(always)]
    fn load_word(&self, order: Ordering) -> u64 {
        self.load(order).into()
    }
}

/// Heap nodes: tagged 64-bit tree words, in blocks of the 32-byte
/// granularity the pointer tag needs.
pub(crate) struct HeapSlot;

impl Slot for HeapSlot {
    type Word = NodeRef;
    type Atomic = AtomicU64;
    const BYTES: usize = 8;
    const GRAIN: usize = NODE_ALIGN;

    /// # Safety
    /// As [`Slot::load`].
    #[inline(always)]
    unsafe fn load(values: *const u8, i: usize) -> NodeRef {
        // SAFETY: the caller guarantees slot `i` exists; the heap value
        // section is 8-byte aligned.
        // pairs-with: value-slot
        NodeRef(unsafe { (*(values as *const AtomicU64).add(i)).load(Ordering::Acquire) })
    }

    #[inline(always)]
    fn set(node: RawNode, i: usize, w: NodeRef) {
        debug_assert!(i < node.count());
        // SAFETY: i < count; the heap value section is 8-byte aligned.
        // pairs-with: value-slot
        unsafe { (*(Self::values(node) as *const AtomicU64).add(i)).store(w.0, Ordering::Release) }
    }
}

/// Compact (arena) nodes: 32-bit offset words, in blocks of the arena's
/// 8-byte offset unit.
pub(crate) struct CompactSlot;

impl Slot for CompactSlot {
    type Word = CRef;
    type Atomic = AtomicU32;
    const BYTES: usize = 4;
    const GRAIN: usize = NODE_UNIT;

    /// # Safety
    /// As [`Slot::load`].
    #[inline(always)]
    unsafe fn load(values: *const u8, i: usize) -> CRef {
        // SAFETY: the caller guarantees slot `i` exists; the compact value
        // section is 4-byte aligned.
        // pairs-with: cvalue-slot
        CRef(unsafe { (*(values as *const AtomicU32).add(i)).load(Ordering::Acquire) })
    }

    #[inline(always)]
    fn set(node: RawNode, i: usize, w: CRef) {
        debug_assert!(i < node.count());
        // SAFETY: i < count; the compact value section is 4-byte aligned.
        // pairs-with: cvalue-slot
        unsafe { (*(Self::values(node) as *const AtomicU32).add(i)).store(w.0, Ordering::Release) }
    }
}

/// The fused descent step for one node layout: `SLOTS` is the multi-mask
/// slot count (0 for the single-mask layouts), `WIDTH` the partial-key
/// width in bytes. Extract the dense partial key (§4.1), find the highest
/// sparse partial key it covers (§4.3), load that entry's value word —
/// with both section offsets computed once, from constants and `count`.
///
/// # Safety
/// `base` must be a live, fully built node of that layout whose value
/// slots are `V`s (so that the SIMD over-read past the partial keys stays
/// inside the allocation, see [`geometry`]).
#[inline(always)]
unsafe fn step<K: Kernel, V: Slot, const SLOTS: usize, const WIDTH: usize>(
    k: K,
    base: *const u8,
    key: &[u8; KEY_PAD_LEN],
) -> (usize, V::Word) {
    let pkeys_offset = HEADER_BYTES + if SLOTS == 0 { 16 } else { 2 * SLOTS };
    // SAFETY: every read below is inside the node per its geometry: the
    // count byte in the header, the mask section right behind the header,
    // `count` partial keys plus SIMD padding behind that, then `count`
    // value slots at the next `V::BYTES` boundary. Key-byte offsets are
    // `u8`s and the padded key holds 264 bytes, so `offset + 8` is in it.
    unsafe {
        let count = *base.add(5) as usize;
        let dense = if SLOTS == 0 {
            let offset = *base.add(HEADER_BYTES) as usize;
            let mask = *(base.add(HEADER_BYTES + 8) as *const u64);
            k.pext64(hot_bits::load_be_u64(key, offset), mask)
        } else {
            let offsets = base.add(HEADER_BYTES);
            let masks = base.add(HEADER_BYTES + SLOTS) as *const u64;
            let mut dense = 0u64;
            for w in 0..SLOTS / 8 {
                let mut gathered = [0u8; 8];
                for (s, byte) in gathered.iter_mut().enumerate() {
                    *byte = key[*offsets.add(w * 8 + s) as usize];
                }
                let mask = *masks.add(w);
                dense = (dense << mask.count_ones()) | k.pext64(u64::from_be_bytes(gathered), mask);
            }
            dense
        };
        let idx = k.search_subset::<WIDTH>(base.add(pkeys_offset), count, dense as u32);
        let values_offset = (pkeys_offset + count * WIDTH + V::BYTES - 1) & !(V::BYTES - 1);
        (idx, V::load(base.add(values_offset), idx))
    }
}

/// Where a descent records its `(node, taken entry)` hops: a reusable
/// `Vec` of widened words (a writer's path, the scan seek), or `()` for
/// lookups, which keep none.
pub(crate) trait Hops<R> {
    fn push_hop(&mut self, node: R, idx: usize);
}

impl<R> Hops<R> for () {
    #[inline(always)]
    fn push_hop(&mut self, _: R, _: usize) {}
}

impl<R: TreeRef> Hops<R> for Vec<(u64, usize)> {
    #[inline(always)]
    fn push_hop(&mut self, node: R, idx: usize) {
        self.push((node.word(), idx));
    }
}

/// Walk from `root` to the terminal word `key` leads to — a leaf, or null
/// for an empty tree or a slot observed mid-update — recording each hop in
/// `path`. Serves the scalar lookups, the insert/remove seeks and the scan
/// seek of either back-end, and is their one ISA dispatch.
pub(crate) fn descend<St: NodeStore, P: Hops<St::Ref>>(
    store: &St,
    root: St::Ref,
    key: &PaddedKey,
    path: &mut P,
) -> St::Ref {
    match hot_bits::features().isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the token proves detection found every enabled feature.
        Isa::Avx2(k) => unsafe { descend_avx2(k, store, root, key, path) },
        Isa::Portable(k) => descend_on(k, store, root, key, path),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
fn descend_avx2<St: NodeStore, P: Hops<St::Ref>>(
    k: hot_bits::Avx2,
    store: &St,
    root: St::Ref,
    key: &PaddedKey,
    path: &mut P,
) -> St::Ref {
    descend_on(k, store, root, key, path)
}

#[inline(always)]
fn descend_on<K: Kernel, St: NodeStore, P: Hops<St::Ref>>(
    k: K,
    store: &St,
    root: St::Ref,
    key: &PaddedKey,
    path: &mut P,
) -> St::Ref {
    let mut cur = root;
    while cur.is_node() {
        let raw = store.raw(cur);
        // Section 4.5: the node's lines load while its type dispatches
        // (the tag travels in the reference word of either back-end).
        hot_bits::prefetch_node(raw.base, 4);
        let (idx, next) = raw.find_candidate::<K, St::Slot>(k, key.padded());
        path.push_hop(cur, idx);
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaStore;
    use crate::store::HeapStore;
    use hot_keys::EmbeddedKeySource;

    type Heap = HeapStore<EmbeddedKeySource>;

    /// A heap store for node-level tests (no key is ever resolved).
    fn heap() -> Heap {
        HeapStore::new(EmbeddedKeySource)
    }

    /// A heap node of `positions`' layout holding `sparse` / `values`.
    fn filled(store: &Heap, positions: &[u16], sparse: &[u32], values: &[u64], height: u8) -> RawNode {
        let Ok((_, node)) = alloc(store, NodeTag::choose(positions), values.len(), height);
        node.fill::<HeapSlot>(positions, sparse, values);
        node
    }

    /// Give a test node back to its heap.
    fn release(store: &Heap, node: RawNode) {
        // SAFETY: every test node is local to its test and never published.
        unsafe { free(store, NodeRef::node(node.base, node.tag)) };
    }

    /// The dense partial key of `key` for `node`'s bit positions, extracted
    /// portably from the mask accessors: with [`RawNode::search`] and
    /// [`Slot::get`], the unfused reference [`step`] is tested against.
    fn extract_dense(node: RawNode, key: &[u8; KEY_PAD_LEN]) -> u32 {
        use hot_bits::pext::pext64_scalar;
        match node.tag.mask_kind() {
            MaskKind::Single => {
                let window = hot_bits::load_be_u64(key, node.single_offset());
                pext64_scalar(window, node.single_mask()) as u32
            }
            MaskKind::Multi(slots) => {
                let offsets = node.multi_offsets(slots);
                let mut dense: u64 = 0;
                for w in 0..slots / 8 {
                    let mut gathered = [0u8; 8];
                    for s in 0..8 {
                        gathered[s] = key[offsets[w * 8 + s] as usize];
                    }
                    let word = u64::from_be_bytes(gathered);
                    let mask = node.multi_mask_word(slots, w);
                    dense = (dense << mask.count_ones()) | pext64_scalar(word, mask);
                }
                dense as u32
            }
        }
    }

    #[test]
    fn tag_roundtrip_and_properties() {
        for tag in NodeTag::ALL {
            assert_eq!(NodeTag::from_u8(tag as u8), tag);
            assert!(matches!(tag.key_width(), 1 | 2 | 4));
        }
        assert_eq!(NodeTag::Single8.key_width(), 1);
        assert_eq!(NodeTag::Multi32x32.key_width(), 4);
        assert_eq!(NodeTag::Multi16x16.mask_kind(), MaskKind::Multi(16));
    }

    #[test]
    fn choose_prefers_smallest_layout() {
        // 3 bits in one byte -> single mask, 8-bit keys.
        assert_eq!(NodeTag::choose(&[0, 3, 7]), NodeTag::Single8);
        // 3 bits spanning bytes 0..7 (56 bits apart) -> still single window.
        assert_eq!(NodeTag::choose(&[0, 30, 62]), NodeTag::Single8);
        // Window of 9 bytes -> multi-mask with 2 distinct bytes.
        assert_eq!(NodeTag::choose(&[0, 64]), NodeTag::Multi8x8);
        // 12 bits within one window -> single-mask 16-bit keys.
        let twelve: Vec<u16> = (0..12).collect();
        assert_eq!(NodeTag::choose(&twelve), NodeTag::Single16);
        // 20 bits within one window -> single-mask 32-bit keys.
        let twenty: Vec<u16> = (0..20).collect();
        assert_eq!(NodeTag::choose(&twenty), NodeTag::Single32);
        // 12 distinct far-apart bytes -> multi-16 with 16-bit keys.
        let spread12: Vec<u16> = (0..12).map(|i| i * 80).collect();
        assert_eq!(NodeTag::choose(&spread12), NodeTag::Multi16x16);
        // 12 distinct bytes but 17+ bits -> multi-16 with 32-bit keys.
        let mut dense17: Vec<u16> = (0..12).map(|i| i * 80).collect();
        dense17.extend((1..6).map(|i| i + 960));
        dense17.sort_unstable();
        assert_eq!(NodeTag::choose(&dense17), NodeTag::Multi16x32);
        // 20 distinct bytes -> multi-32.
        let spread20: Vec<u16> = (0..20).map(|i| i * 100).collect();
        assert_eq!(NodeTag::choose(&spread20), NodeTag::Multi32x32);
    }

    #[test]
    fn geometry_is_sane_for_all_tags_and_counts() {
        fn check<V: Slot>() {
            for tag in NodeTag::ALL {
                for count in 2..=MAX_FANOUT {
                    let geo = geometry::<V>(tag, count);
                    assert!(geo.pkeys_offset >= HEADER_BYTES);
                    assert!(geo.values_offset >= geo.pkeys_offset + count * tag.key_width());
                    assert_eq!(geo.values_offset % V::BYTES, 0);
                    assert!(geo.alloc_size >= geo.values_offset + count * V::BYTES);
                    assert!(geo.alloc_size >= geo.pkeys_offset + tag.simd_padding());
                    assert_eq!(geo.alloc_size % V::GRAIN, 0);
                }
            }
        }
        check::<HeapSlot>();
        check::<CompactSlot>();
    }

    #[test]
    fn node_sizes_are_compact() {
        // A 32-entry Single8 node: 8 header + 16 mask + 32 pkeys + 256
        // values = 312 -> 320 aligned. That is 10 bytes/key, in line with
        // the paper's 11.4–14.4 bytes/key overall.
        let geo = geometry::<HeapSlot>(NodeTag::Single8, 32);
        assert_eq!(geo.alloc_size, 320);
    }

    #[test]
    fn leaf_refs_roundtrip() {
        for tid in [0u64, 1, hot_keys::MAX_TID] {
            let r = NodeRef::leaf(tid);
            assert!(r.is_leaf());
            assert!(!r.is_node());
            assert!(!r.is_null());
            assert_eq!(r.tid(), tid);
        }
        assert!(NodeRef::NULL.is_null());
        assert!(!NodeRef::NULL.is_node());
        assert!(!NodeRef::NULL.is_leaf());
    }

    #[test]
    fn alloc_fill_decode_roundtrip_single() {
        let store = heap();
        let positions = [3u16, 4, 6, 8, 9];
        let sparse = [0b00000u32, 0b00010, 0b01000, 0b01001, 0b10000];
        let values: Vec<u64> = (0..5).map(|i| NodeRef::leaf(i).0).collect();
        let node = filled(&store, &positions, &sparse, &values, 1);

        assert_eq!(node.count(), 5);
        assert_eq!(node.height(), 1);
        assert_eq!(node.positions(), positions);
        assert_eq!(node.min_position(), 3);
        for (i, &s) in sparse.iter().enumerate() {
            assert_eq!(node.sparse_key(i), s);
            assert_eq!(HeapSlot::get(node, i).0, values[i]);
        }
        assert!(store.mem.bytes() > 0);
        assert_eq!(store.mem.nodes(), 1);
        release(&store, node);
        assert_eq!(store.mem.bytes(), 0);
        assert_eq!(store.mem.nodes(), 0);
    }

    #[test]
    fn alloc_fill_decode_roundtrip_multi() {
        let store = heap();
        // Positions spread over 10 distinct bytes -> Multi16x16.
        let positions: Vec<u16> = (0..10).map(|i| i * 81).collect();
        assert_eq!(NodeTag::choose(&positions), NodeTag::Multi16x16);
        let n = 11;
        let sparse: Vec<u32> = (0..n as u32).collect();
        let values: Vec<u64> = (0..n as u64).map(|i| NodeRef::leaf(i).0).collect();
        let node = filled(&store, &positions, &sparse, &values, 2);
        assert_eq!(node.positions(), positions);
        assert_eq!(node.min_position(), 0);
        for (i, &sk) in sparse.iter().enumerate() {
            assert_eq!(node.sparse_key(i), sk);
        }
        release(&store, node);
    }

    #[test]
    fn extract_dense_single_mask() {
        let store = heap();
        // Positions 3,4,6,8,9 as in Figure 5 of the paper.
        let positions = [3u16, 4, 6, 8, 9];
        let node = filled(&store, &positions, &[0, 1], &[NodeRef::leaf(0).0, NodeRef::leaf(1).0], 1);

        // Key bits (MSB-first): 0110101101 -> positions {3:0,4:1,6:1,8:0,9:1}
        // Dense partial key (positions ascending -> bits MSB..LSB): 01101.
        let mut key = hot_keys::PaddedKey::new();
        key.set(&[0b0110_1011, 0b0100_0000]);
        assert_eq!(extract_dense(node, key.padded()), 0b01101);
        release(&store, node);
    }

    #[test]
    fn extract_dense_multi_mask_matches_bitwise_reference(){
        let store = heap();
        // Positions spread across distant bytes, mixed bits per byte.
        let positions: Vec<u16> = vec![1, 6, 130, 133, 260, 400, 401, 402, 950, 1001];
        assert!(matches!(NodeTag::choose(&positions).mask_kind(), MaskKind::Multi(_)));
        let node = filled(&store, &positions, &[0, 1], &[NodeRef::leaf(0).0, NodeRef::leaf(1).0], 1);

        let mut raw = [0u8; 200];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(151).wrapping_add(17);
        }
        let mut key = hot_keys::PaddedKey::new();
        key.set(&raw);

        // Bit-by-bit reference extraction: positions ascending, MSB first.
        let mut expected = 0u32;
        for &p in &positions {
            expected = (expected << 1) | hot_bits::bit_at(key.bytes(), p as usize) as u32;
        }
        assert_eq!(extract_dense(node, key.padded()), expected);
        release(&store, node);
    }

    /// A fresh block of `store` for a node of layout `tag` with `count`
    /// entries at height 1: its header set up, every other byte of the
    /// block — SIMD over-read padding included — garbage.
    fn garbage_node<St: NodeStore>(
        store: &St,
        tag: NodeTag,
        count: usize,
        rng: &mut impl rand::Rng,
    ) -> (St::Ref, RawNode) {
        let Ok((r, raw)) = alloc(store, tag, count, 1) else {
            panic!("the test store is full")
        };
        let size = geometry::<St::Slot>(tag, count).alloc_size;
        // SAFETY: the block is `size` bytes, owned by the test.
        let body = unsafe { std::slice::from_raw_parts_mut(raw.base.add(HEADER_BYTES), size - HEADER_BYTES) };
        body.iter_mut().for_each(|byte| *byte = rng.gen());
        (r, raw)
    }

    /// Build a node of layout `tag` with `count` entries in a block of
    /// `store` out of raw random material — mask section and partial keys
    /// written directly, every other byte garbage — then check the fused
    /// step under kernel `k` against the unfused portable reference for a
    /// batch of random keys.
    fn step_matches_reference<K: Kernel, St: NodeStore>(
        k: K,
        store: &St,
        tag: NodeTag,
        count: usize,
        rng: &mut impl rand::Rng,
    ) {
        let (r, raw) = garbage_node(store, tag, count, rng);

        // Discriminative bits: at most what the partial-key width holds.
        let bits = rng.gen_range(1..=(8 * tag.key_width()).min(MAX_POSITIONS));
        match tag.mask_kind() {
            MaskKind::Single => {
                let mut mask = 0u64;
                while (mask.count_ones() as usize) < bits {
                    mask |= 1 << rng.gen_range(0..64u32);
                }
                raw.set_single(rng.gen(), mask);
            }
            MaskKind::Multi(slots) => {
                let mut offsets = [0u8; 32];
                let mut mask_bytes = [0u8; 32];
                for offset in offsets.iter_mut() {
                    *offset = rng.gen();
                }
                for _ in 0..bits {
                    mask_bytes[rng.gen_range(0..slots)] |= 1 << rng.gen_range(0..8u32);
                }
                raw.set_multi(&offsets[..slots], &mask_bytes[..slots]);
            }
        }
        // Sparse keys: the AND of two draws leaves enough subsets of a
        // random dense key for the answer to vary; entry 0 is the
        // always-matching 0 of a real node three times out of four.
        let pkeys = raw.pkeys_base();
        for i in 0..count {
            let sparse = if i == 0 && rng.gen_range(0..4u32) != 0 {
                0
            } else {
                rng.gen::<u32>() & rng.gen::<u32>()
            };
            // SAFETY: `count` entries of the tag's width fit the geometry.
            unsafe {
                match tag.key_width() {
                    1 => *pkeys.add(i) = sparse as u8,
                    2 => *(pkeys as *mut u16).add(i) = sparse as u16,
                    _ => *(pkeys as *mut u32).add(i) = sparse,
                }
            }
        }

        let mut key = PaddedKey::new();
        for _ in 0..16 {
            let mut bytes = [0u8; hot_keys::MAX_KEY_LEN];
            let len = rng.gen_range(0..=bytes.len());
            for byte in bytes[..len].iter_mut() {
                *byte = rng.gen();
            }
            key.set(&bytes[..len]);
            let idx = raw.search(extract_dense(raw, key.padded()));
            assert!(idx < count);
            assert_eq!(
                raw.find_candidate::<K, St::Slot>(k, key.padded()),
                (idx, St::Slot::get(raw, idx)),
                "{tag:?} count {count} slot bytes {}",
                St::Slot::BYTES
            );
        }
        // SAFETY: never published.
        unsafe { free(store, r) };
    }

    #[test]
    fn fused_step_matches_reference_composition() {
        use rand::SeedableRng;
        let (heap, arena) = (heap(), ArenaStore::new(1 << 20, 1 << 20));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_57E9);
        for tag in NodeTag::ALL {
            for count in 2..=MAX_FANOUT {
                for _ in 0..4 {
                    step_matches_reference(hot_bits::Portable, &heap, tag, count, &mut rng);
                    step_matches_reference(hot_bits::Portable, &arena, tag, count, &mut rng);
                    #[cfg(target_arch = "x86_64")]
                    if let Some(k) = hot_bits::Avx2::detect() {
                        step_matches_reference(k, &heap, tag, count, &mut rng);
                        step_matches_reference(k, &arena, tag, count, &mut rng);
                    }
                }
            }
        }
    }

    /// A canonical node of layout `tag` with `count` entries — what the
    /// builder makes of `count` keys that differ only in a few bits of a few
    /// bytes — or `None` when no such node exists (fewer entries than the
    /// layout's partial-key width needs positions).
    fn canonical_builder(tag: NodeTag, count: usize, rng: &mut impl rand::Rng) -> Option<Builder> {
        use rand::seq::SliceRandom;
        /// The sorted keys of a random Patricia trie over `count` leaves
        /// whose BiNodes take the sorted `pool` positions in preorder: every
        /// BiNode has a position of its own.
        fn trie_keys(count: usize, pool: &[usize], next: &mut usize, prefix: [u8; 64], rng: &mut impl rand::Rng, keys: &mut Vec<[u8; 64]>) {
            if count == 1 {
                keys.push(prefix);
                return;
            }
            let p = pool[*next];
            *next += 1;
            let zeros = rng.gen_range(1..count);
            trie_keys(zeros, pool, next, prefix, rng, keys);
            let mut one = prefix;
            one[p / 8] |= 0x80 >> (p % 8);
            trie_keys(count - zeros, pool, next, one, rng, keys);
        }

        // Positions: what the width holds, at least log2(count) for the
        // keys to be distinct, at most count - 1.
        let (min_bits, max_bits) = match tag.key_width() {
            1 => (1, 8),
            2 => (9, 16),
            _ => (17, MAX_POSITIONS),
        };
        let (lo, hi) = (min_bits.max(count.next_power_of_two().trailing_zeros() as usize), max_bits.min(count - 1));
        if lo > hi {
            return None;
        }
        for attempt in 0..1_000 {
            // Every other attempt, a trie with a position per BiNode (random
            // keys rarely give that many distinct positions).
            let distinct = attempt % 2 == 1 && hi == count - 1;
            let m = if distinct { count - 1 } else { rng.gen_range(lo..=hi) };
            // The key bytes the positions lie in: one 8-byte window for a
            // single mask, as many bytes as the slots allow for a multi mask.
            let bytes: Vec<usize> = match tag.mask_kind() {
                MaskKind::Single => {
                    let start = rng.gen_range(0..56);
                    (start..start + 8).collect()
                }
                MaskKind::Multi(slots) => {
                    let fewest = if slots == 8 { 2 } else { slots / 2 + 1 }.max(m.div_ceil(8));
                    if fewest > m.min(slots) {
                        continue;
                    }
                    let mut all: Vec<usize> = (0..64).collect();
                    all.shuffle(rng);
                    all.truncate(rng.gen_range(fewest..=m.min(slots)));
                    all
                }
            };
            // One bit of every byte, then more bits of those bytes up to `m`.
            let mut pool: Vec<usize> = bytes.iter().map(|&b| b * 8 + rng.gen_range(0..8usize)).collect();
            let mut rest: Vec<usize> =
                bytes.iter().flat_map(|&b| b * 8..b * 8 + 8).filter(|p| !pool.contains(p)).collect();
            rest.shuffle(rng);
            pool.extend(rest.into_iter().take(m.saturating_sub(pool.len())));
            pool.sort_unstable();
            let keys: Vec<[u8; 64]> = if distinct {
                let mut keys = Vec::new();
                trie_keys(count, &pool, &mut 0, [0; 64], rng, &mut keys);
                keys
            } else {
                let mut keys = std::collections::BTreeSet::new();
                for _ in 0..100 * count {
                    let mut key = [0u8; 64];
                    for &p in &pool {
                        if rng.gen::<bool>() {
                            key[p / 8] |= 0x80 >> (p % 8);
                        }
                    }
                    keys.insert(key);
                    if keys.len() == count {
                        break;
                    }
                }
                if keys.len() < count {
                    continue;
                }
                keys.into_iter().collect()
            };
            let bounds: Vec<u16> = keys
                .windows(2)
                .map(|w| hot_bits::first_mismatch_bit(&w[0], &w[1]).expect("distinct keys") as u16)
                .collect();
            // Value words any slot width holds.
            let values: Vec<u64> = (0..count as u64).map(|i| 0x1000 + i).collect();
            let builder = Builder::from_fragment(&bounds, &values, |_| 0);
            if NodeTag::choose(&builder.positions) == tag {
                return Some(builder);
            }
        }
        None
    }

    /// What `encode` defines of a node: its layout, the header behind the
    /// lock word, the mask section (a single mask's offset byte and mask
    /// word, not the padding between them), the partial keys and the value
    /// section.
    fn encoded_bytes<V: Slot>(raw: RawNode) -> (NodeTag, Vec<u8>) {
        let (n, geo) = (raw.count(), geometry::<V>(raw.tag, raw.count()));
        let section = |from: usize, to: usize| {
            // SAFETY: both ends lie inside the node's block.
            unsafe { std::slice::from_raw_parts(raw.base.add(from), to - from) }.to_vec()
        };
        let mut bytes = match raw.tag.mask_kind() {
            MaskKind::Single => [section(4, HEADER_BYTES + 1), section(HEADER_BYTES + 8, geo.pkeys_offset)].concat(),
            MaskKind::Multi(_) => section(4, geo.pkeys_offset),
        };
        bytes.extend(section(geo.pkeys_offset, geo.pkeys_offset + n * raw.tag.key_width()));
        bytes.extend(section(geo.values_offset, geo.values_offset + n * V::BYTES));
        (raw.tag, bytes)
    }

    /// Every fused insert into a canonical node of layout `tag` with `count`
    /// entries in a block of `store` — every `(pos, through, key_bit)` an
    /// insert can bring where the layout stays — against the builder path:
    /// decode, `Builder::insert_entry`, `encode`. Returns how many inserts
    /// took the fused path.
    fn fused_insert_matches_builder_path<St: NodeStore>(
        store: &St,
        tag: NodeTag,
        count: usize,
        rng: &mut impl rand::Rng,
    ) -> usize {
        let Some(canonical) = canonical_builder(tag, count, rng) else {
            return 0;
        };
        let (src, raw) = garbage_node(store, tag, count, rng);
        raw.fill::<St::Slot>(&canonical.positions, &canonical.sparse, &canonical.values);
        // The positions where the layout can stay: the single mask's window,
        // or the bits of the bytes a multi mask already covers.
        let candidates: Vec<usize> = match tag.mask_kind() {
            MaskKind::Single => (raw.single_offset() * 8..raw.single_offset() * 8 + 64).collect(),
            MaskKind::Multi(_) => {
                let mut bytes: Vec<usize> = canonical.positions.iter().map(|&p| p as usize / 8).collect();
                bytes.dedup();
                bytes.iter().flat_map(|&b| b * 8..b * 8 + 8).collect()
            }
        };
        let leaf = St::Ref::from_word(0x0FFF);
        let mut reference = Builder::empty();
        let mut fused_count = 0;
        for pos in candidates {
            for through in 0..count {
                let (lo, hi) = raw.affected_range(pos, through);
                let (rank, m, contains) = raw.rank_total_contains(pos);
                // A BiNode at `pos` inside the affected subtree: no key
                // differs from `through`'s first there.
                if contains && (lo..=hi).any(|i| raw.sparse_key(i) >> (m - 1 - rank) & 1 == 1) {
                    continue;
                }
                for key_bit in 0..2 {
                    let Ok(fused) = raw.insert_entry_cow(store, pos, lo, hi, key_bit, leaf) else {
                        panic!("the test store is full")
                    };
                    let Some(fused) = fused else { continue };
                    reference.decode_into::<St::Slot>(raw);
                    reference.insert_entry(pos as u16, through, key_bit, leaf.word());
                    let Ok(built) = encode(store, &reference) else {
                        panic!("the test store is full")
                    };
                    assert_eq!(
                        encoded_bytes::<St::Slot>(store.raw(fused)),
                        encoded_bytes::<St::Slot>(store.raw(built)),
                        "{tag:?} count {count} pos {pos} through {through} key_bit {key_bit} slot bytes {}",
                        St::Slot::BYTES
                    );
                    // SAFETY: neither node was published.
                    unsafe {
                        free(store, fused);
                        free(store, built);
                    }
                    fused_count += 1;
                }
            }
        }
        // SAFETY: never published.
        unsafe { free(store, src) };
        fused_count
    }

    #[test]
    fn fused_insert_is_byte_identical_to_the_builder_path() {
        use rand::SeedableRng;
        let (heap, arena) = (heap(), ArenaStore::new(1 << 20, 1 << 20));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF05E_D125);
        for tag in NodeTag::ALL {
            let (mut on_heap, mut in_arena) = (0, 0);
            for count in 2..MAX_FANOUT {
                on_heap += fused_insert_matches_builder_path(&heap, tag, count, &mut rng);
                in_arena += fused_insert_matches_builder_path(&arena, tag, count, &mut rng);
            }
            assert!(on_heap > 0 && in_arena > 0, "{tag:?}: {on_heap} heap, {in_arena} arena fused inserts");
        }
        assert_eq!(heap.mem.nodes(), 0);
    }

    #[test]
    fn rank_and_total_matches_positions_reference() {
        // rank_and_total computes the "how many positions < pos" rank
        // straight off the mask encoding; cross-check against the decoded
        // position list for layouts of every mask kind.
        let store = heap();
        let position_sets: Vec<Vec<u16>> = vec![
            vec![0],                                  // single, one bit
            vec![3, 4, 6, 8, 9],                      // single, Figure 5
            (0..31).collect(),                        // single, full window
            vec![56, 57, 120, 121],                   // single (span 8..15=8 bytes? no: bytes 7 & 15 -> multi)
            vec![0, 100],                             // multi-8
            vec![7, 64, 129, 200, 300, 411, 512, 637],// multi-8, 8 bytes
            (0..10).map(|i| i * 81).collect(),        // multi-16
            (0..20).map(|i| i * 100).collect(),       // multi-32
        ];
        for positions in position_sets {
            // A rightmost-chain trie is a valid linearization for any
            // position set: entry i branches right at the i-th position.
            let m = positions.len();
            let sparse: Vec<u32> = (0..=m as u32)
                .map(|i| {
                    // entry i: bits at the i highest extracted positions set
                    if i == 0 {
                        0
                    } else {
                        let ones = ((1u64 << i) - 1) as u32;
                        ones << (m as u32 - i)
                    }
                })
                .collect();
            let values: Vec<u64> = (0..=m as u64).map(|i| NodeRef::leaf(i).0).collect();
            let tag = NodeTag::choose(&positions);
            let node = filled(&store, &positions, &sparse, &values, 1);

            let max_pos = *positions.last().unwrap() as usize;
            for probe in 0..=(max_pos + 10) {
                let (rank, total) = node.rank_and_total(probe);
                let expect_rank = positions.iter().filter(|&&p| (p as usize) < probe).count();
                assert_eq!(
                    (rank, total),
                    (expect_rank, positions.len()),
                    "positions {positions:?} probe {probe} tag {tag:?}"
                );
            }
            release(&store, node);
        }
        assert_eq!(store.mem.bytes(), 0);
    }

    #[test]
    fn read_entries_round_trips_all_widths() {
        let store = heap();
        for (positions, n) in [
            ((0u16..5).collect::<Vec<_>>(), 6usize), // u8 pkeys
            ((0u16..12).collect::<Vec<_>>(), 13),    // u16 pkeys
            ((0u16..20).collect::<Vec<_>>(), 21),    // u32 pkeys
        ] {
            let m = positions.len();
            // Rightmost-chain sparse keys (valid linearization).
            let sparse: Vec<u32> = (0..n as u32)
                .map(|i| if i == 0 { 0 } else { (((1u64 << i) - 1) as u32) << (m as u32 - i) })
                .collect();
            let values: Vec<u64> = (0..n as u64).map(|i| NodeRef::leaf(i * 7).0).collect();
            let node = filled(&store, &positions, &sparse, &values, 1);
            let (mut s, mut v) = (Vec::new(), Vec::new());
            node.read_entries::<HeapSlot>(&mut s, &mut v);
            assert_eq!(s, sparse);
            assert_eq!(v, values);
            release(&store, node);
        }
    }

    #[test]
    fn recycled_allocations_start_clean() {
        // The free-list allocator hands back used blocks; headers must be
        // cleared and contents fully overwritten by fill.
        let store = heap();
        for round in 0..10 {
            let positions = [3u16, 9, 14];
            let sparse = [0b000u32, 0b001, 0b010, 0b100];
            let values: Vec<u64> = (0..4).map(|i| NodeRef::leaf(i + round).0).collect();
            let node = filled(&store, &positions, &sparse, &values, 2);
            assert_eq!(node.count(), 4);
            assert_eq!(node.height(), 2);
            assert_eq!(node.positions(), positions);
            for i in 0..4 {
                assert_eq!(node.sparse_key(i), sparse[i]);
                assert_eq!(HeapSlot::get(node, i).0, values[i]);
            }
            assert_eq!(node.lock_word().load(Ordering::Relaxed), 0, "lock starts clear");
            release(&store, node);
        }
        assert_eq!(store.mem.bytes(), 0);
    }

    #[test]
    fn search_on_filled_node() {
        let store = heap();
        let positions = [0u16, 1];
        // Entries: sparse 00, 01, 10 (keys 00,01,1x in trie order).
        let node = filled(
            &store,
            &positions,
            &[0b00, 0b01, 0b10],
            &[NodeRef::leaf(0).0, NodeRef::leaf(1).0, NodeRef::leaf(2).0],
            1,
        );
        assert_eq!(node.search(0b00), 0);
        assert_eq!(node.search(0b01), 1);
        assert_eq!(node.search(0b10), 2);
        assert_eq!(node.search(0b11), 2); // sparse keys: 10 ⊆ 11 wins
        release(&store, node);
    }
}
