//! Physical node representation (Section 4 of the paper).
//!
//! epoch-exempt: node primitives borrow a `RawNode` the caller already
//! holds legitimately (epoch pin, node lock, private pre-publish build, or
//! quiescence) — liveness is established a layer above, in `sync.rs`.
//!
//! A HOT compound node linearizes a k-constrained binary Patricia trie into
//! one exact-size heap allocation holding four sections:
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
//! * **values** — `n` 64-bit words: child pointers or tagged leaf TIDs.
//!
//! The 9 valid (mask representation × partial-key width) combinations are
//! the paper's 9 node layouts ([`NodeTag`]). The node type is encoded in the
//! low 5 bits of each (32-byte-aligned) node pointer so the type dispatch
//! overlaps the prefetch of the node body (Section 4.5).

pub mod builder;
pub(crate) mod heap;

// Lock words and value slots are ROWEX-protocol state: their atomics come
// from the shim so the loom models can instrument them. The `MemCounter`
// of `heap` intentionally stays on std atomics — allocation counters are
// not part of the protocol and would only blow up the model's state space.
use crate::sync_shim::{AtomicU32, AtomicU64, Ordering};

use hot_bits::search::{PADDED_BYTES_U16, PADDED_BYTES_U32, PADDED_BYTES_U8};
use crate::arena::CRef;
use crate::store::NodeStore;
use builder::Builder;
use hot_bits::{Isa, Kernel};
use hot_keys::{PaddedKey, KEY_PAD_LEN};

pub use heap::MemCounter;

/// Maximum compound-node fanout `k` (Section 4.1: "set the maximum fanout k
/// to 32, which is large enough to benefit from CPU caches and small enough
/// to support fast updates").
pub const MAX_FANOUT: usize = 32;

/// Maximum number of discriminative bit positions per node (`k - 1` BiNodes
/// always suffice to separate `k` keys).
pub const MAX_POSITIONS: usize = MAX_FANOUT - 1;

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
pub enum MaskKind {
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
    pub fn key_width(self) -> usize {
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
    pub fn mask_kind(self) -> MaskKind {
        match self {
            NodeTag::Single8 | NodeTag::Single16 | NodeTag::Single32 => MaskKind::Single,
            NodeTag::Multi8x8 | NodeTag::Multi8x16 | NodeTag::Multi8x32 => MaskKind::Multi(8),
            NodeTag::Multi16x16 | NodeTag::Multi16x32 => MaskKind::Multi(16),
            NodeTag::Multi32x32 => MaskKind::Multi(32),
        }
    }

    /// Choose the smallest layout able to represent `positions` (sorted
    /// ascending key-bit positions).
    pub fn choose(positions: &[u16]) -> NodeTag {
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
    pub pkeys_offset: usize,
    pub values_offset: usize,
    pub alloc_size: usize,
}

pub(crate) fn geometry(tag: NodeTag, count: usize) -> NodeGeometry {
    debug_assert!((2..=MAX_FANOUT).contains(&count));
    let pkeys_offset = HEADER_BYTES + tag.mask_section_bytes();
    let pkeys_end = pkeys_offset + count * tag.key_width();
    let values_offset = (pkeys_end + 7) & !7;
    let logical_end = values_offset + count * 8;
    // The SIMD search reads full vectors from the partial-key base; make
    // sure those reads stay inside the allocation (the values section
    // usually covers it already).
    let simd_end = pkeys_offset + tag.simd_padding();
    let alloc_size = (logical_end.max(simd_end) + (NODE_ALIGN - 1)) & !(NODE_ALIGN - 1);
    NodeGeometry {
        pkeys_offset,
        values_offset,
        alloc_size,
    }
}

/// Geometry of the arena-backed *compact* layout (DESIGN.md §16): identical
/// header, mask and partial-key sections — so every mask/partial-key
/// accessor on [`RawNode`] works unchanged — but value slots are 32-bit
/// arena references, and the allocation is 8-byte-granular (the tag lives
/// in the offset word, so the 32-byte pointer-tag alignment is not needed).
pub(crate) fn geometry_compact(tag: NodeTag, count: usize) -> NodeGeometry {
    debug_assert!((2..=MAX_FANOUT).contains(&count));
    let pkeys_offset = HEADER_BYTES + tag.mask_section_bytes();
    let pkeys_end = pkeys_offset + count * tag.key_width();
    let values_offset = (pkeys_end + 3) & !3;
    let logical_end = values_offset + count * 4;
    // Same SIMD-overread reservation as the heap layout.
    let simd_end = pkeys_offset + tag.simd_padding();
    let alloc_size = (logical_end.max(simd_end) + 7) & !7;
    NodeGeometry {
        pkeys_offset,
        values_offset,
        alloc_size,
    }
}

/// Free a node for benchmarking purposes only.
///
/// # Safety
/// `r` must be an unpublished node reference created by `Builder::encode`.
#[doc(hidden)]
pub unsafe fn free_for_bench(r: NodeRef, mem: &MemCounter) {
    // SAFETY: caller guarantees `r` is unpublished, so no other reference
    // exists (the contract of `RawNode::free`).
    unsafe { r.as_raw().free(mem) };
}

/// A tagged 64-bit tree word: null, leaf TID (bit 63 set) or node pointer
/// with the [`NodeTag`] in the low 5 bits (Section 4.2: "we distinguish
/// between a pointer and a tuple identifier using the most-significant bit";
/// Section 4.5: "we encode the node type within the least-significant bits
/// of each node pointer").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef(pub u64);

impl NodeRef {
    /// The null reference (empty tree).
    pub const NULL: NodeRef = NodeRef(0);

    /// Tag a tuple identifier as a leaf word.
    #[inline]
    pub fn leaf(tid: u64) -> NodeRef {
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
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Is this a leaf TID?
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    /// Is this a compound-node pointer?
    #[inline]
    pub fn is_node(self) -> bool {
        !self.is_leaf() && !self.is_null()
    }

    /// The tuple identifier of a leaf word.
    #[inline]
    pub fn tid(self) -> u64 {
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
    pub base: *mut u8,
    pub tag: NodeTag,
}

impl RawNode {
    /// Allocate a node with a clean header for the given entry count and
    /// height. Mask, partial-key and value sections must be fully written by
    /// `fill` before the node is published.
    pub fn alloc(tag: NodeTag, count: usize, height: u8, mem: &MemCounter) -> RawNode {
        let base = mem.alloc(geometry(tag, count).alloc_size);
        let node = RawNode { base, tag };
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            *node.count_ptr() = count as u8;
            *node.height_ptr() = height;
        }
        node
    }

    /// Free this node.
    ///
    /// # Safety
    /// Caller must guarantee no other references exist (or, in the
    /// concurrent index, that the epoch guarantees it).
    pub unsafe fn free(self, mem: &MemCounter) {
        // SAFETY: `base` came from `mem.alloc` of this size (same tag and
        // count), and the caller guarantees no other reference to this node
        // remains.
        unsafe { mem.free(self.base, self.alloc_size()) };
    }

    /// Size of this node's allocation in bytes.
    pub fn alloc_size(self) -> usize {
        geometry(self.tag, self.count()).alloc_size
    }

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
    #[allow(dead_code)] // used by the concurrent index
    #[inline]
    pub fn lock_word(self) -> &'static AtomicU32 {
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
    pub fn count(self) -> usize {
        // SAFETY: header is always initialized.
        unsafe { *self.count_ptr() as usize }
    }

    /// Compound-subtree height (1 = all entries are leaves).
    #[inline]
    pub fn height(self) -> u8 {
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
    pub fn pkeys_base(self) -> *mut u8 {
        // SAFETY: offset computed from the node's own geometry.
        unsafe { self.base.add(geometry(self.tag, self.count()).pkeys_offset) }
    }

    #[inline]
    pub fn values_ptr(self) -> *const AtomicU64 {
        // SAFETY: offset computed from the node's own geometry; the values
        // section is 8-byte aligned.
        unsafe {
            self.base.add(geometry(self.tag, self.count()).values_offset) as *const AtomicU64
        }
    }

    /// Load the value word of entry `i`.
    ///
    /// Ordering: **Acquire** — pairs with the **Release** in [`store_value`].
    /// A reader that observes a COW replacement's pointer therefore observes
    /// the replacement node's fully written body.
    #[inline]
    pub fn value(self, i: usize) -> NodeRef {
        debug_assert!(i < self.count());
        // SAFETY: i < count; values are initialized at build time.
        unsafe { HeapSlot::load(self.values_ptr() as *const u8, i) }
    }

    /// Store the value word of entry `i` (the "single pointer swap" that
    /// publishes copy-on-write replacements).
    ///
    /// Ordering: **Release** — all plain stores that filled the new node
    /// happen-before this store; pairs with the **Acquire** in [`value`].
    #[inline]
    pub fn store_value(self, i: usize, v: NodeRef) {
        debug_assert!(i < self.count());
        // SAFETY: i < count.
        // pairs-with: value-slot
        unsafe { (*self.values_ptr().add(i)).store(v.0, Ordering::Release) }
    }

    // ---- compact (arena) value slots --------------------------------------------
    //
    // A compact node shares header/mask/partial-key sections with the heap
    // layout byte for byte; only the value section differs (32-bit arena
    // references at a 4-byte-aligned offset). `RawNode` views over arena
    // memory therefore reuse every accessor above and switch only the
    // value-slot functions below.

    /// Initialize the header of a freshly arena-allocated compact node.
    /// The caller owns the block exclusively until publication.
    pub(crate) fn init_header(self, count: usize, height: u8) {
        // SAFETY: the arena handed out an exclusively owned, 8-aligned block
        // covering at least the 8-byte header.
        unsafe {
            *(self.base as *mut u64) = 0;
            *self.count_ptr() = count as u8;
            *self.height_ptr() = height;
        }
    }

    #[inline]
    pub(crate) fn cvalues_ptr(self) -> *const AtomicU32 {
        // SAFETY: offset computed from the node's own compact geometry; the
        // compact value section is 4-byte aligned (8-aligned base).
        unsafe {
            self.base.add(geometry_compact(self.tag, self.count()).values_offset)
                as *const AtomicU32
        }
    }

    /// Load the compact value word of entry `i` (32-bit arena reference).
    ///
    /// Ordering: **Acquire** — pairs with the **Release** in
    /// [`store_cvalue`](Self::store_cvalue); a reader that observes a COW
    /// replacement's offset observes the replacement node's fully written
    /// arena bytes.
    #[inline]
    pub fn cvalue(self, i: usize) -> CRef {
        debug_assert!(i < self.count());
        // SAFETY: i < count; compact values are initialized at build time.
        unsafe { CompactSlot::load(self.cvalues_ptr() as *const u8, i) }
    }

    /// Store the compact value word of entry `i` — the single offset swap
    /// publishing a compact COW replacement.
    ///
    /// Ordering: **Release** — all plain stores that filled the new arena
    /// node happen-before this store; pairs with the **Acquire** in
    /// [`cvalue`](Self::cvalue).
    #[inline]
    pub fn store_cvalue(self, i: usize, v: CRef) {
        debug_assert!(i < self.count());
        // SAFETY: i < count.
        // pairs-with: cvalue-slot
        unsafe { (*self.cvalues_ptr().add(i)).store(v.0, Ordering::Release) }
    }

    /// Bulk-read a compact node's sparse keys and value words (widened to
    /// the builder's u64 word space) — the compact analogue of
    /// [`read_entries`](Self::read_entries).
    pub fn read_entries_compact(self, sparse: &mut Vec<u32>, values: &mut Vec<u64>) {
        let n = self.count();
        sparse.clear();
        values.clear();
        let base = self.pkeys_base();
        // SAFETY: the partial-key section holds `count` entries of the
        // tag's width; compact values are initialized.
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
            let vals = self.cvalues_ptr();
            values.extend((0..n).map(|i| (*vals.add(i)).load(Ordering::Relaxed) as u64));
        }
    }

    /// The sparse partial key of entry `i`, widened to u32.
    #[inline]
    pub fn sparse_key(self, i: usize) -> u32 {
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
    pub fn find_candidate<K: Kernel, V: Slot>(self, k: K, key: &[u8; KEY_PAD_LEN]) -> (usize, V::Word) {
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
    pub fn search(self, dense: u32) -> usize {
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
    pub fn min_position(self) -> u16 {
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
    pub fn positions(self) -> Vec<u16> {
        let mut out = Vec::new();
        self.positions_into(&mut out);
        out
    }

    /// Bulk-read all sparse keys (widened) and value words into the given
    /// buffers — one width dispatch instead of one per entry.
    pub fn read_entries(self, sparse: &mut Vec<u32>, values: &mut Vec<u64>) {
        let n = self.count();
        sparse.clear();
        values.clear();
        let base = self.pkeys_base();
        // SAFETY: the partial-key section holds `count` entries of the
        // tag's width; values are initialized.
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
            let vals = self.values_ptr();
            values.extend((0..n).map(|i| (*vals.add(i)).load(Ordering::Relaxed)));
        }
    }

    /// Number of discriminative positions strictly below `pos`, and the
    /// total position count — computed directly from the mask encoding
    /// (no allocation; used by the hot insert/scan paths).
    pub fn rank_and_total(self, pos: usize) -> (usize, usize) {
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
    pub fn rank_total_contains(self, pos: usize) -> (usize, usize, bool) {
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

    /// Fused copy-on-write insert fast path (the common normal-insert case).
    ///
    /// Builds the new node directly from this node's physical layout when
    /// the layout is structurally stable: the node is not full, the
    /// partial-key width does not change, and the new position either
    /// already exists, fits the single-mask window, or lands in an existing
    /// multi-mask byte slot. Returns `None` when any of that fails — the
    /// caller falls back to the general builder path.
    ///
    /// `lo..=hi` is the affected entry range, `key_bit` the new key's bit at
    /// `pos`, `leaf` the new entry's value word.
    pub fn insert_entry_cow(
        self,
        pos: usize,
        lo: usize,
        hi: usize,
        key_bit: u8,
        leaf: u64,
        mem: &MemCounter,
    ) -> Option<NodeRef> {
        let n = self.count();
        if n >= MAX_FANOUT {
            return None; // overflow: the builder/split path handles it
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
            return None;
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
                        return None; // window must grow: builder path
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
                        None => return None, // new byte slot: builder path
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

        let node = RawNode::alloc(self.tag, n + 1, self.height(), mem);
        // Copy the mask section (between header and pkeys) verbatim, then
        // apply the one-bit patch.
        let geo = geometry(self.tag, n + 1);
        // SAFETY: both nodes share the tag; the mask section lies between
        // the 8-byte header and the partial keys and has identical extent.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base.add(HEADER_BYTES),
                node.base.add(HEADER_BYTES),
                geo.pkeys_offset - HEADER_BYTES,
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
        // SAFETY: source holds n entries, destination n+1, both of `width`.
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
            let vsrc = self.values_ptr() as *const u64;
            let vdst = node.values_ptr() as *mut u64;
            std::ptr::copy_nonoverlapping(vsrc, vdst, at);
            *vdst.add(at) = leaf;
            std::ptr::copy_nonoverlapping(vsrc.add(at), vdst.add(at + 1), n - at);
        }
        Some(NodeRef::node(node.base, self.tag))
    }

    /// The contiguous run of entries in the subtree that a (possibly new)
    /// discriminative bit at `pos` would split, on the path through entry
    /// `through` (see `builder` module docs for the correctness argument).
    pub fn affected_range(self, pos: usize, through: usize) -> (usize, usize) {
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
    pub fn positions_into(self, out: &mut Vec<u16>) {
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

    /// Write the full node contents from decoded parts (build time only).
    pub(crate) fn fill(
        self,
        positions: &[u16],
        sparse: &[u32],
        values: &[u64],
    ) {
        debug_assert_eq!(sparse.len(), values.len());
        debug_assert_eq!(self.count(), values.len());
        self.fill_masks_pkeys(positions, sparse);
        // SAFETY: exclusively owned during build; the values section holds
        // `count` u64 slots per the heap geometry.
        unsafe {
            std::ptr::copy_nonoverlapping(
                values.as_ptr(),
                self.values_ptr() as *mut u64,
                values.len(),
            );
        }
    }

    /// Compact-layout twin of [`fill`](Self::fill): identical mask and
    /// partial-key sections, 32-bit value slots at the compact offset. The
    /// value words must already be valid `CRef` bit patterns (≤ 32 bits).
    pub(crate) fn fill_compact(
        self,
        positions: &[u16],
        sparse: &[u32],
        values: &[u64],
    ) {
        debug_assert_eq!(sparse.len(), values.len());
        debug_assert_eq!(self.count(), values.len());
        self.fill_masks_pkeys(positions, sparse);
        // SAFETY: exclusively owned during build; the compact values section
        // holds `count` u32 slots per the compact geometry.
        unsafe {
            let dst = self.cvalues_ptr() as *mut u32;
            for (i, &v) in values.iter().enumerate() {
                debug_assert!(v <= u32::MAX as u64, "compact value word overflows 32 bits");
                *dst.add(i) = v as u32;
            }
        }
    }

    /// Shared build-time writer for the mask and partial-key sections (the
    /// parts that are byte-identical between the heap and compact layouts).
    fn fill_masks_pkeys(self, positions: &[u16], sparse: &[u32]) {
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
        // (this is the hot part of every copy-on-write insert).
        let n = sparse.len();
        let base = self.pkeys_base();
        // SAFETY: exclusively owned during build; section sizes follow from
        // the node's geometry (identical for both layouts).
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
/// partial-key sections are identical, so one [`step`] serves both; the
/// other methods route to the layout's own accessors on [`RawNode`].
pub(crate) trait Slot {
    /// A loaded value word.
    type Word: TreeRef;
    /// Slot size, which is also the value section's alignment.
    const BYTES: usize;

    /// Load value word `i` of the value section starting at `values`.
    ///
    /// # Safety
    /// `values` must be the value section of a live node with more than
    /// `i` initialized slots of this flavour.
    unsafe fn load(values: *const u8, i: usize) -> Self::Word;

    /// Start of `node`'s value section (located once per scan-frame visit).
    fn values(node: RawNode) -> *const u8;

    /// Value word of entry `i` (Acquire, see [`RawNode::value`]).
    fn get(node: RawNode, i: usize) -> Self::Word;

    /// Publish `w` in entry `i` — the single Release store of a
    /// copy-on-write replacement (see [`RawNode::store_value`]).
    fn set(node: RawNode, i: usize, w: Self::Word);

    /// Decode `node` into `builder`, value words widened.
    fn decode(node: RawNode, builder: &mut Builder);
}

/// Heap nodes: tagged 64-bit tree words.
pub(crate) struct HeapSlot;

impl Slot for HeapSlot {
    type Word = NodeRef;
    const BYTES: usize = 8;

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
    fn values(node: RawNode) -> *const u8 {
        node.values_ptr() as *const u8
    }

    #[inline(always)]
    fn get(node: RawNode, i: usize) -> NodeRef {
        node.value(i)
    }

    #[inline(always)]
    fn set(node: RawNode, i: usize, w: NodeRef) {
        node.store_value(i, w)
    }

    #[inline]
    fn decode(node: RawNode, builder: &mut Builder) {
        builder.decode_into(node)
    }
}

/// Compact (arena) nodes: 32-bit offset words.
pub(crate) struct CompactSlot;

impl Slot for CompactSlot {
    type Word = CRef;
    const BYTES: usize = 4;

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
    fn values(node: RawNode) -> *const u8 {
        node.cvalues_ptr() as *const u8
    }

    #[inline(always)]
    fn get(node: RawNode, i: usize) -> CRef {
        node.cvalue(i)
    }

    #[inline(always)]
    fn set(node: RawNode, i: usize, w: CRef) {
        node.store_cvalue(i, w)
    }

    #[inline]
    fn decode(node: RawNode, builder: &mut Builder) {
        node.positions_into(&mut builder.positions);
        node.read_entries_compact(&mut builder.sparse, &mut builder.values);
        builder.height = node.height();
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

    /// The dense partial key of `key` for `node`'s bit positions, extracted
    /// portably from the mask accessors: with [`RawNode::search`] and
    /// `value`/`cvalue`, the unfused reference [`step`] is tested against.
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
        for tag in NodeTag::ALL {
            for count in 2..=MAX_FANOUT {
                let geo = geometry(tag, count);
                assert!(geo.pkeys_offset >= HEADER_BYTES);
                assert!(geo.values_offset >= geo.pkeys_offset + count * tag.key_width());
                assert_eq!(geo.values_offset % 8, 0);
                assert!(geo.alloc_size >= geo.values_offset + count * 8);
                assert!(geo.alloc_size >= geo.pkeys_offset + tag.simd_padding());
                assert_eq!(geo.alloc_size % NODE_ALIGN, 0);
            }
        }
    }

    #[test]
    fn node_sizes_are_compact() {
        // A 32-entry Single8 node: 8 header + 16 mask + 32 pkeys + 256
        // values = 312 -> 320 aligned. That is 10 bytes/key, in line with
        // the paper's 11.4–14.4 bytes/key overall.
        let geo = geometry(NodeTag::Single8, 32);
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
        let mem = MemCounter::default();
        let positions = [3u16, 4, 6, 8, 9];
        let sparse = [0b00000u32, 0b00010, 0b01000, 0b01001, 0b10000];
        let values: Vec<u64> = (0..5).map(|i| NodeRef::leaf(i).0).collect();
        let node = RawNode::alloc(NodeTag::choose(&positions), 5, 1, &mem);
        node.fill(&positions, &sparse, &values);

        assert_eq!(node.count(), 5);
        assert_eq!(node.height(), 1);
        assert_eq!(node.positions(), positions);
        assert_eq!(node.min_position(), 3);
        for (i, &s) in sparse.iter().enumerate() {
            assert_eq!(node.sparse_key(i), s);
            assert_eq!(node.value(i).0, values[i]);
        }
        assert!(mem.bytes() > 0);
        assert_eq!(mem.nodes(), 1);
        // SAFETY: test-local node, no other reference exists.
        unsafe { node.free(&mem) };
        assert_eq!(mem.bytes(), 0);
        assert_eq!(mem.nodes(), 0);
    }

    #[test]
    fn alloc_fill_decode_roundtrip_multi() {
        let mem = MemCounter::default();
        // Positions spread over 10 distinct bytes -> Multi16x16.
        let positions: Vec<u16> = (0..10).map(|i| i * 81).collect();
        let tag = NodeTag::choose(&positions);
        assert_eq!(tag, NodeTag::Multi16x16);
        let n = 11;
        let sparse: Vec<u32> = (0..n as u32).collect();
        let values: Vec<u64> = (0..n as u64).map(|i| NodeRef::leaf(i).0).collect();
        let node = RawNode::alloc(tag, n, 2, &mem);
        node.fill(&positions, &sparse, &values);
        assert_eq!(node.positions(), positions);
        assert_eq!(node.min_position(), 0);
        for (i, &sk) in sparse.iter().enumerate() {
            assert_eq!(node.sparse_key(i), sk);
        }
        // SAFETY: test-local node, no other reference exists.
        unsafe { node.free(&mem) };
    }

    #[test]
    fn extract_dense_single_mask() {
        let mem = MemCounter::default();
        // Positions 3,4,6,8,9 as in Figure 5 of the paper.
        let positions = [3u16, 4, 6, 8, 9];
        let node = RawNode::alloc(NodeTag::choose(&positions), 2, 1, &mem);
        node.fill(&positions, &[0, 1], &[NodeRef::leaf(0).0, NodeRef::leaf(1).0]);

        // Key bits (MSB-first): 0110101101 -> positions {3:0,4:1,6:1,8:0,9:1}
        // Dense partial key (positions ascending -> bits MSB..LSB): 01101.
        let mut key = hot_keys::PaddedKey::new();
        key.set(&[0b0110_1011, 0b0100_0000]);
        assert_eq!(extract_dense(node, key.padded()), 0b01101);
        // SAFETY: test-local node, no other reference exists.
        unsafe { node.free(&mem) };
    }

    #[test]
    fn extract_dense_multi_mask_matches_bitwise_reference(){
        let mem = MemCounter::default();
        // Positions spread across distant bytes, mixed bits per byte.
        let positions: Vec<u16> = vec![1, 6, 130, 133, 260, 400, 401, 402, 950, 1001];
        let tag = NodeTag::choose(&positions);
        assert!(matches!(tag.mask_kind(), MaskKind::Multi(_)));
        let node = RawNode::alloc(tag, 2, 1, &mem);
        node.fill(&positions, &[0, 1], &[NodeRef::leaf(0).0, NodeRef::leaf(1).0]);

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
        // SAFETY: test-local node, no other reference exists.
        unsafe { node.free(&mem) };
    }

    /// Build a node of layout `tag` and slot flavour `V` with `count`
    /// entries out of raw random material — mask section, partial keys and
    /// value words written directly, every other byte of the allocation
    /// (SIMD over-read padding included) garbage — then check the fused
    /// step under kernel `k` against the unfused portable reference for a
    /// batch of random keys.
    fn step_matches_reference<K: Kernel, V: Slot>(
        k: K,
        tag: NodeTag,
        count: usize,
        rng: &mut impl rand::Rng,
        value_of: impl Fn(RawNode, usize) -> V::Word,
    ) where
        V::Word: PartialEq + std::fmt::Debug,
    {
        let geo = if V::BYTES == 8 { geometry(tag, count) } else { geometry_compact(tag, count) };
        let mut block = vec![0u64; geo.alloc_size / 8 + NODE_ALIGN / 8];
        for word in block.iter_mut() {
            *word = rng.gen();
        }
        let base = block.as_mut_ptr() as *mut u8;
        // SAFETY: the block holds NODE_ALIGN spare bytes for the round-up.
        let base = unsafe { base.add(base.align_offset(NODE_ALIGN)) };
        let raw = RawNode { base, tag };
        raw.init_header(count, 1);

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
                raw.find_candidate::<K, V>(k, key.padded()),
                (idx, value_of(raw, idx)),
                "{tag:?} count {count} slot bytes {}",
                V::BYTES
            );
        }
    }

    #[test]
    fn fused_step_matches_reference_composition() {
        use rand::SeedableRng;
        fn both_slots<K: Kernel>(k: K, tag: NodeTag, count: usize, rng: &mut rand::rngs::StdRng) {
            step_matches_reference::<K, HeapSlot>(k, tag, count, rng, |raw, i| raw.value(i));
            step_matches_reference::<K, CompactSlot>(k, tag, count, rng, |raw, i| raw.cvalue(i));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_57E9);
        for tag in NodeTag::ALL {
            for count in 2..=MAX_FANOUT {
                for _ in 0..4 {
                    both_slots(hot_bits::Portable, tag, count, &mut rng);
                    #[cfg(target_arch = "x86_64")]
                    if let Some(k) = hot_bits::Avx2::detect() {
                        both_slots(k, tag, count, &mut rng);
                    }
                }
            }
        }
    }

    #[test]
    fn rank_and_total_matches_positions_reference() {
        // rank_and_total computes the "how many positions < pos" rank
        // straight off the mask encoding; cross-check against the decoded
        // position list for layouts of every mask kind.
        let mem = MemCounter::default();
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
            let n = positions.len() + 1;
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
            let node = RawNode::alloc(tag, n, 1, &mem);
            node.fill(&positions, &sparse, &values);

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
            // SAFETY: test-local node, no other reference exists.
            unsafe { node.free(&mem) };
        }
        assert_eq!(mem.bytes(), 0);
    }

    #[test]
    fn read_entries_round_trips_all_widths() {
        let mem = MemCounter::default();
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
            let node = RawNode::alloc(NodeTag::choose(&positions), n, 1, &mem);
            node.fill(&positions, &sparse, &values);
            let (mut s, mut v) = (Vec::new(), Vec::new());
            node.read_entries(&mut s, &mut v);
            assert_eq!(s, sparse);
            assert_eq!(v, values);
            // SAFETY: test-local node, no other reference exists.
            unsafe { node.free(&mem) };
        }
    }

    #[test]
    fn recycled_allocations_start_clean() {
        // The free-list allocator hands back used blocks; headers must be
        // cleared and contents fully overwritten by fill.
        let mem = MemCounter::default();
        for round in 0..10 {
            let positions = [3u16, 9, 14];
            let sparse = [0b000u32, 0b001, 0b010, 0b100];
            let values: Vec<u64> = (0..4).map(|i| NodeRef::leaf(i + round).0).collect();
            let node = RawNode::alloc(NodeTag::choose(&positions), 4, 2, &mem);
            node.fill(&positions, &sparse, &values);
            assert_eq!(node.count(), 4);
            assert_eq!(node.height(), 2);
            assert_eq!(node.positions(), positions);
            for i in 0..4 {
                assert_eq!(node.sparse_key(i), sparse[i]);
                assert_eq!(node.value(i).0, values[i]);
            }
            assert_eq!(node.lock_word().load(Ordering::Relaxed), 0, "lock starts clear");
            // SAFETY: test-local node, no other reference exists.
            unsafe { node.free(&mem) };
        }
        assert_eq!(mem.bytes(), 0);
    }

    #[test]
    fn search_on_filled_node() {
        let mem = MemCounter::default();
        let positions = [0u16, 1];
        // Entries: sparse 00, 01, 10 (keys 00,01,1x in trie order).
        let node = RawNode::alloc(NodeTag::choose(&positions), 3, 1, &mem);
        node.fill(
            &positions,
            &[0b00, 0b01, 0b10],
            &[NodeRef::leaf(0).0, NodeRef::leaf(1).0, NodeRef::leaf(2).0],
        );
        assert_eq!(node.search(0b00), 0);
        assert_eq!(node.search(0b01), 1);
        assert_eq!(node.search(0b10), 2);
        assert_eq!(node.search(0b11), 2); // sparse keys: 10 ⊆ 11 wins
        // SAFETY: test-local node, no other reference exists.
        unsafe { node.free(&mem) };
    }
}
