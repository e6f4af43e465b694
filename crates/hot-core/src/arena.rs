//! Arena-backed compact trie layout (DESIGN.md §16).
//!
//! epoch-exempt: the compact descent primitives borrow arena blocks the
//! caller already protects (epoch pin in `ConcurrentCompact`, `&mut`
//! exclusivity in `CompactHot`, or private pre-publish builds) — liveness
//! is established a layer above, exactly as for the heap node primitives.
//!
//! The heap backend spends 8 bytes per child pointer and resolves every
//! full-key comparison through an external [`KeySource`](hot_keys::KeySource)
//! — an extra dependent cache miss per verify. This module replaces both:
//!
//! * **32-bit node references** ([`CRef`]): nodes and leaves live in slab
//!   arenas and are addressed by a 32-bit offset word that also carries the
//!   node-type tag, so child arrays shrink to `u32` and the type dispatch
//!   still overlaps the node-body prefetch.
//! * **Inline front-coded leaves** ([`LeafArena`]): leaf records store
//!   `[shared_len][suffix_len][delta][suffix][tid]` adjacent to their TIDs —
//!   the final descent hop and the key verification land in the same cache
//!   lines, and shared prefixes between neighbouring keys are stored once.
//!   The TID is LEB128 varint-coded, so small TIDs (arena offsets, row
//!   ids) cost 1–4 bytes instead of a fixed 8 — on short-key data sets
//!   that fixed word was the largest single per-record overhead.
//!
//! # Offset-word encoding
//!
//! ```text
//! bit 31      30........5  4....0
//! ┌─────┬────────────────┬──────┐
//! │leaf?│ node offset /8 │ tag  │   node reference (leaf? = 0)
//! ├─────┼────────────────┴──────┤
//! │  1  │ leaf byte offset      │   leaf reference
//! └─────┴───────────────────────┘
//! ```
//!
//! The all-zero word is NULL (node-arena unit 0 is reserved, so no node can
//! encode to 0). Node offsets are in 8-byte units: 26 offset bits address a
//! 512 MiB node arena; leaf offsets are plain byte offsets addressing 2 GiB
//! of front-coded records.
//!
//! # Front-coding format
//!
//! Records are append-only. Every [`RESTART_EVERY`]th record (and every
//! record whose shared prefix is naturally empty, and the first record after
//! a slab boundary) is a *restart*: `shared_len == 0`, the key stored whole.
//! Non-restart records store `delta` = byte distance back to their restart
//! record; reconstruction walks forward from the restart applying each
//! record's `[shared][suffix]` patch. Chains are ≤ 15 patches of ≤ 267
//! bytes, so `delta` fits `u16`. Records never straddle a slab boundary
//! (the writer pads and forces a restart), so a record's bytes are always
//! one contiguous slice.
//!
//! # Concurrency contract
//!
//! The arenas are single-writer (enforced by `&mut self` on
//! [`CompactHot`], by the scratch mutex on
//! [`ConcurrentCompact`](crate::ConcurrentCompact)). Readers are lock-free:
//! a record's bytes are fully written *before* the `CRef` naming it is
//! published with Release ordering (a child-slot or root store), and a
//! front-coding chain only ever walks records appended *before* its target,
//! so an Acquire load of any published `CRef` makes every byte the read
//! touches visible. Leaf bytes are never reused (upserts and removals only
//! mark records dead for accounting); only node blocks recycle, and their
//! frees are epoch-deferred by the concurrent wrapper.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Mutex;
// The arena atomics deliberately stay on std (not the sync_shim): the loom
// models cover the heap ROWEX protocol, and the shim has no AtomicPtr. The
// slab table and root word are TSan-checked instead; every site is
// manifested in lint/atomics.toml.
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};

use crate::bulk::BulkLoadError;
use crate::node::builder::Builder;
use crate::node::{geometry_compact, CompactSlot, NodeTag, RawNode, Slot, MAX_FANOUT};
use hot_bits::{Isa, Kernel};
use hot_keys::stats::MemoryStats;
use hot_keys::{DepthStats, PaddedKey, MAX_KEY_LEN, MAX_TID};

/// Slab size for both arenas: 1 MiB — large enough that boundary padding is
/// noise, small enough that capacity tracks live data closely.
const SLAB_BYTES: usize = 1 << 20;

/// Node-arena allocation granule (offsets are stored in these units).
const NODE_UNIT: usize = 8;

/// Node-arena slab size in 8-byte units.
const NODE_SLAB_UNITS: u32 = (SLAB_BYTES / NODE_UNIT) as u32;

/// Node offsets get 26 bits (bit 31 is the leaf flag, bits 0..=4 the tag):
/// the node arena tops out at `2^26 * 8` = 512 MiB.
const NODE_UNIT_LIMIT: u32 = 1 << 26;

/// Leaf offsets get 31 bits: the leaf arena tops out at 2 GiB.
const LEAF_BYTE_LIMIT: u64 = 1 << 31;

/// A leaf-arena front-coding restart is forced at least this often.
///
/// Sized for space over reconstruction speed: restarts store the full key,
/// so on a sorted (bulk) fill the amortized restart overhead halves with
/// each doubling, while the chain a reader may walk grows linearly (32
/// records is ~9 sequential cache lines worst case on 64-byte keys). The
/// worst-case chain span — `32 * (4 + 255 + 8)` bytes — stays far inside
/// the u16 delta field.
const RESTART_EVERY: u32 = 32;

/// Bit 31 of a [`CRef`]: set = leaf reference.
const CLEAF_BIT: u32 = 1 << 31;

/// Low 5 bits of a node [`CRef`]: the [`NodeTag`].
const CTAG_MASK: u32 = 0x1F;

/// Default node-arena capacity (the 26-bit offset ceiling).
pub(crate) const DEFAULT_NODE_CAP: usize = (NODE_UNIT_LIMIT as usize) * NODE_UNIT;

/// Default leaf-arena capacity (the 31-bit offset ceiling).
pub(crate) const DEFAULT_LEAF_CAP: usize = LEAF_BYTE_LIMIT as usize;

/// A 32-bit compact reference: NULL, a tagged node offset, or a leaf offset
/// (see the module docs for the encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CRef(pub(crate) u32);

impl CRef {
    /// The null reference (empty slot / empty trie).
    pub(crate) const NULL: CRef = CRef(0);

    /// Reference to the leaf record at byte offset `off`.
    #[inline]
    pub(crate) fn leaf(off: u32) -> CRef {
        debug_assert_eq!(off & CLEAF_BIT, 0, "leaf offset fits 31 bits");
        CRef(off | CLEAF_BIT)
    }

    /// Reference to the node at unit offset `units` with layout `tag`.
    #[inline]
    pub(crate) fn node(units: u32, tag: NodeTag) -> CRef {
        debug_assert!((1..NODE_UNIT_LIMIT).contains(&units), "unit offset in range");
        CRef((units << 5) | tag as u32)
    }

    #[inline]
    pub(crate) fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub(crate) fn is_leaf(self) -> bool {
        self.0 & CLEAF_BIT != 0
    }

    #[inline]
    pub(crate) fn is_node(self) -> bool {
        !self.is_null() && !self.is_leaf()
    }

    /// Leaf byte offset. Caller must know this is a leaf reference.
    #[inline]
    pub(crate) fn leaf_off(self) -> u32 {
        debug_assert!(self.is_leaf());
        self.0 & !CLEAF_BIT
    }

    /// Node layout tag. Caller must know this is a node reference.
    #[inline]
    pub(crate) fn tag(self) -> NodeTag {
        debug_assert!(self.is_node());
        NodeTag::from_u8((self.0 & CTAG_MASK) as u8)
    }

    /// Node unit offset. Caller must know this is a node reference.
    #[inline]
    pub(crate) fn units(self) -> u32 {
        debug_assert!(self.is_node());
        self.0 >> 5
    }
}

/// Which arena rejected an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// The compound-node arena (32-bit unit offsets, 512 MiB ceiling).
    Node,
    /// The front-coded leaf arena (31-bit byte offsets, 2 GiB ceiling).
    Leaf,
}

/// An arena ran out of address space or configured capacity. The trie is
/// left exactly as it was before the failing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// The arena that was exhausted.
    pub kind: ArenaKind,
    /// Bytes the failing allocation asked for.
    pub requested: usize,
    /// The arena's configured capacity in bytes.
    pub capacity: usize,
}

impl std::fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ArenaKind::Node => "node",
            ArenaKind::Leaf => "leaf",
        };
        write!(
            f,
            "{kind} arena full: {} more bytes requested of {} capacity",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for ArenaFull {}

/// Exact allocator-level accounting for one [`CompactHot`] /
/// [`ConcurrentCompact`](crate::ConcurrentCompact) instance (the
/// `bytes_per_key` satellite API: fig9 reports these numbers, not
/// `size_of` summations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes of slab memory reserved by the node arena.
    pub node_capacity_bytes: usize,
    /// Bytes of live (reachable) node allocations.
    pub node_live_bytes: usize,
    /// Number of live compound nodes.
    pub node_live_count: usize,
    /// High-water mark of `node_live_bytes`.
    pub node_hwm_bytes: usize,
    /// Bytes of slab memory reserved by the leaf arena.
    pub leaf_capacity_bytes: usize,
    /// Bytes appended to the leaf arena (live records + dead records + pad).
    pub leaf_tail_bytes: usize,
    /// Bytes of dead leaf records and slab-boundary padding.
    pub leaf_dead_bytes: usize,
    /// Number of live leaf records.
    pub leaf_records: usize,
}

impl ArenaStats {
    /// Total slab memory reserved by both arenas — the allocator-level
    /// footprint fig9 reports.
    pub fn capacity_bytes(&self) -> usize {
        self.node_capacity_bytes + self.leaf_capacity_bytes
    }

    /// Total live bytes across both arenas (node allocations plus leaf
    /// records still reachable).
    pub fn live_bytes(&self) -> usize {
        self.node_live_bytes + (self.leaf_tail_bytes - self.leaf_dead_bytes)
    }
}

/// Lock-free-readable table of lazily allocated slabs.
///
/// The table is sized for the arena's capacity up front (a few KiB of
/// pointers), so readers never chase a reallocated spine: they Acquire-load
/// the slab pointer and index into it.
struct SlabTable {
    slabs: Box<[AtomicPtr<u8>]>,
}

impl SlabTable {
    fn new(cap_bytes: usize) -> SlabTable {
        let n = cap_bytes.div_ceil(SLAB_BYTES);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicPtr::new(std::ptr::null_mut()));
        SlabTable {
            slabs: v.into_boxed_slice(),
        }
    }

    /// Allocate slab `idx` (zeroed, 64-byte aligned). Writer-side only.
    fn grow(&self, idx: usize) {
        let layout = Layout::from_size_align(SLAB_BYTES, 64).expect("valid slab layout");
        // SAFETY: non-zero size, valid alignment; failure aborts via the
        // null check below.
        let p = unsafe { alloc_zeroed(layout) };
        assert!(!p.is_null(), "slab allocation failed");
        // pairs-with: slab-table
        self.slabs[idx].store(p, Ordering::Release);
    }

    /// Base pointer of slab `idx`.
    ///
    /// Ordering: **Acquire** — pairs with the **Release** in
    /// [`grow`](Self::grow); a reader holding an offset into this slab
    /// observes the zeroed (and since-written) slab bytes.
    #[inline]
    fn get(&self, idx: usize) -> *mut u8 {
        // pairs-with: slab-table
        let p = self.slabs[idx].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "slab {idx} referenced before allocation");
        p
    }
}

impl Drop for SlabTable {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(SLAB_BYTES, 64).expect("valid slab layout");
        for slot in self.slabs.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: allocated by `grow` with this exact layout, and
                // dropping the table ends all borrows of arena memory.
                unsafe { dealloc(p, layout) };
            }
        }
    }
}

/// Writer-side bookkeeping of the node arena (under the writer mutex).
struct NodeArenaState {
    /// Bump cursor in 8-byte units. Starts at 1: unit 0 is reserved so a
    /// node reference can never encode to the NULL word.
    next_unit: u32,
    /// Slabs allocated so far.
    slab_count: usize,
    /// Per-size-class free lists (index = size in units): COW makes node
    /// churn the hottest allocator traffic, and exact-size recycling keeps
    /// the arena from fragmenting (all sizes are 8-byte-granular).
    free: Vec<Vec<u32>>,
    live_bytes: usize,
    live_nodes: usize,
    hwm_bytes: usize,
}

/// Slab arena for compound nodes, addressed by 26-bit unit offsets.
struct NodeArena {
    table: SlabTable,
    cap_bytes: usize,
    state: Mutex<NodeArenaState>,
}

impl NodeArena {
    fn new(cap_bytes: usize) -> NodeArena {
        let cap_bytes = cap_bytes.min(DEFAULT_NODE_CAP);
        NodeArena {
            table: SlabTable::new(cap_bytes),
            cap_bytes,
            state: Mutex::new(NodeArenaState {
                next_unit: 1,
                slab_count: 0,
                free: Vec::new(),
                live_bytes: 0,
                live_nodes: 0,
                hwm_bytes: 0,
            }),
        }
    }

    /// Allocate `bytes` (a multiple of 8) and return the unit offset.
    fn alloc(&self, bytes: usize) -> Result<u32, ArenaFull> {
        debug_assert_eq!(bytes % NODE_UNIT, 0);
        let units_len = (bytes / NODE_UNIT) as u32;
        let mut st = self.state.lock().expect("node arena poisoned");
        let off = if let Some(off) = st
            .free
            .get_mut(units_len as usize)
            .and_then(|list| list.pop())
        {
            off
        } else {
            let mut off = st.next_unit;
            // Allocations never straddle a slab boundary: pad to the next
            // slab when the tail fragment is too small (counted as waste —
            // it is capacity the census can never reach).
            let rem = NODE_SLAB_UNITS - off % NODE_SLAB_UNITS;
            if rem < units_len {
                off += rem;
            }
            let end = off as u64 + units_len as u64;
            if end > NODE_UNIT_LIMIT as u64 || end * NODE_UNIT as u64 > self.cap_bytes as u64 {
                return Err(ArenaFull {
                    kind: ArenaKind::Node,
                    requested: bytes,
                    capacity: self.cap_bytes,
                });
            }
            while (st.slab_count as u32) * NODE_SLAB_UNITS < end as u32 {
                self.table.grow(st.slab_count);
                st.slab_count += 1;
            }
            st.next_unit = end as u32;
            off
        };
        st.live_bytes += bytes;
        st.live_nodes += 1;
        st.hwm_bytes = st.hwm_bytes.max(st.live_bytes);
        Ok(off)
    }

    /// Recycle the block at `units_off` (`bytes` as allocated).
    ///
    /// The caller guarantees no reference to the block remains (or, in the
    /// concurrent wrapper, that the epoch does).
    fn free(&self, units_off: u32, bytes: usize) {
        let units_len = bytes / NODE_UNIT;
        let mut st = self.state.lock().expect("node arena poisoned");
        if st.free.len() <= units_len {
            st.free.resize_with(units_len + 1, Vec::new);
        }
        st.free[units_len].push(units_off);
        st.live_bytes -= bytes;
        st.live_nodes -= 1;
    }

    /// Pointer to the block at `units_off`. Lock-free.
    #[inline]
    fn ptr(&self, units_off: u32) -> *mut u8 {
        let slab = (units_off / NODE_SLAB_UNITS) as usize;
        let within = (units_off % NODE_SLAB_UNITS) as usize * NODE_UNIT;
        // SAFETY: every published offset lies inside a grown slab, and
        // blocks never straddle slab boundaries.
        unsafe { self.table.get(slab).add(within) }
    }
}

/// Writer-side bookkeeping of the leaf arena (under the writer mutex).
struct LeafWriter {
    /// Bump cursor in bytes.
    tail: u32,
    /// Slabs allocated so far.
    slab_count: usize,
    /// Records appended since (and including) the current restart.
    since_restart: u32,
    /// Byte offset of the current restart record.
    restart_off: u32,
    /// Length of the most recently appended key.
    last_len: usize,
    /// Bytes of the most recently appended key (front-coding reference).
    last_key: [u8; MAX_KEY_LEN],
    /// Live records (appended minus marked-dead).
    records: usize,
    /// Bytes of dead records plus slab-boundary padding.
    dead_bytes: usize,
}

/// Append-only slab arena of front-coded `[shared][suffix_len][delta]
/// [suffix][tid varint]` leaf records, addressed by 31-bit byte offsets.
struct LeafArena {
    table: SlabTable,
    cap_bytes: usize,
    state: Mutex<LeafWriter>,
}

/// Fixed per-record header: `shared: u8`, `suffix_len: u8`, `delta: u16`.
const LEAF_HEADER: usize = 4;

/// LEB128 length of `tid` (1..=10 bytes; one byte below 128).
#[inline]
fn varint_len(tid: u64) -> usize {
    (63 - (tid | 1).leading_zeros() as usize) / 7 + 1
}

/// Write `v` as LEB128 at `p`; returns bytes written.
///
/// # Safety
/// `p` must be valid for [`varint_len`]`(v)` bytes of writes.
#[inline]
unsafe fn write_varint(mut p: *mut u8, mut v: u64) -> usize {
    let mut n = 1;
    // SAFETY: the caller guarantees `p` is writable for `varint_len(v)`
    // bytes; the loop advances exactly that far (one byte per 7-bit group).
    unsafe {
        while v >= 0x80 {
            *p = v as u8 | 0x80;
            p = p.add(1);
            v >>= 7;
            n += 1;
        }
        *p = v as u8;
    }
    n
}

/// Decode the LEB128 value at `p`.
///
/// # Safety
/// `p` must point at a value written by [`write_varint`].
#[inline]
unsafe fn read_varint(mut p: *const u8) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        // SAFETY: the caller guarantees `p` points at a well-formed
        // LEB128 value, so a terminator byte (< 0x80) is reached before
        // the record ends; each step stays within that encoding.
        let b = unsafe { *p };
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
        // SAFETY: not the terminator yet, so at least one more encoded
        // byte follows within the record.
        p = unsafe { p.add(1) };
    }
}

/// Byte length of the LEB128 value at `p` (scan to the terminator byte).
///
/// # Safety
/// `p` must point at a value written by [`write_varint`].
#[inline]
unsafe fn varint_len_at(mut p: *const u8) -> usize {
    let mut n = 1;
    // SAFETY: the caller guarantees `p` points at a well-formed LEB128
    // value; the scan stops at its terminator byte (< 0x80), which is
    // within the record by construction.
    unsafe {
        while *p >= 0x80 {
            p = p.add(1);
            n += 1;
        }
    }
    n
}

impl LeafArena {
    fn new(cap_bytes: usize) -> LeafArena {
        let cap_bytes = cap_bytes.min(DEFAULT_LEAF_CAP);
        LeafArena {
            table: SlabTable::new(cap_bytes),
            cap_bytes,
            state: Mutex::new(LeafWriter {
                tail: 0,
                slab_count: 0,
                since_restart: 0,
                restart_off: 0,
                last_len: 0,
                last_key: [0u8; MAX_KEY_LEN],
                records: 0,
                dead_bytes: 0,
            }),
        }
    }

    /// Append a record for `key → tid`; returns its byte offset.
    ///
    /// Front-coding is against the *previously appended* key (append order
    /// is key order during bulk load, insertion order otherwise — coding
    /// quality varies, correctness does not). The record bytes are fully
    /// written before this returns, so publishing the offset with a Release
    /// store afterwards makes them visible to any Acquire reader.
    fn append(&self, key: &[u8], tid: u64) -> Result<u32, ArenaFull> {
        debug_assert!(key.len() <= MAX_KEY_LEN && tid <= MAX_TID);
        let mut st = self.state.lock().expect("leaf arena poisoned");
        let mut shared = key
            .iter()
            .zip(st.last_key[..st.last_len].iter())
            .take_while(|(a, b)| a == b)
            .count();
        if st.since_restart >= RESTART_EVERY {
            shared = 0;
        }
        let mut off = st.tail;
        let mut pad = 0u32;
        let tid_len = varint_len(tid);
        let mut rec_len = (LEAF_HEADER + (key.len() - shared) + tid_len) as u32;
        let rem = SLAB_BYTES as u32 - off % SLAB_BYTES as u32;
        if rem < rec_len || (shared != 0 && rem < (LEAF_HEADER + key.len() + tid_len) as u32) {
            // Pad to the slab boundary and restart there: records never
            // straddle slabs, and a restart record's chain walk never
            // crosses back either. (The second condition re-checks with the
            // restart-sized record, since forcing a restart grows it.)
            shared = 0;
            rec_len = (LEAF_HEADER + key.len() + tid_len) as u32;
            if rem < rec_len {
                pad = rem;
                off += rem;
            }
        }
        let end = off as u64 + rec_len as u64;
        if end > LEAF_BYTE_LIMIT || end > self.cap_bytes as u64 {
            return Err(ArenaFull {
                kind: ArenaKind::Leaf,
                requested: rec_len as usize,
                capacity: self.cap_bytes,
            });
        }
        while (st.slab_count as u64) * (SLAB_BYTES as u64) < end {
            self.table.grow(st.slab_count);
            st.slab_count += 1;
        }
        let restart = shared == 0;
        let delta: u16 = if restart {
            0
        } else {
            let d = off - st.restart_off;
            debug_assert!(d <= u16::MAX as u32, "restart chain span fits the u16 delta");
            d as u16
        };
        let suffix = &key[shared..];
        let p = self.rec_ptr(off);
        // SAFETY: `off..off + rec_len` lies inside the slab grown above and
        // is exclusively owned until the offset is published; all stores go
        // through byte pointers, so alignment is irrelevant.
        unsafe {
            *p = shared as u8;
            *p.add(1) = suffix.len() as u8;
            let delta_bytes = delta.to_le_bytes();
            *p.add(2) = delta_bytes[0];
            *p.add(3) = delta_bytes[1];
            std::ptr::copy_nonoverlapping(suffix.as_ptr(), p.add(LEAF_HEADER), suffix.len());
            let wrote = write_varint(p.add(LEAF_HEADER + suffix.len()), tid);
            debug_assert_eq!(wrote, tid_len, "sized and written varint agree");
        }
        if restart {
            st.restart_off = off;
            st.since_restart = 0;
        }
        st.since_restart += 1;
        st.tail = end as u32;
        st.dead_bytes += pad as usize;
        st.records += 1;
        st.last_key[..key.len()].copy_from_slice(key);
        st.last_len = key.len();
        Ok(off)
    }

    /// Account the record at `off` as dead (bytes are never reused — the
    /// record may still serve front-coding chains of its neighbours).
    fn mark_dead(&self, off: u32) {
        let p = self.rec_ptr(off);
        // SAFETY: `off` names a fully written record; the varint scan
        // stays inside it.
        let (suffix_len, tid_len) = unsafe {
            let sl = *p.add(1) as usize;
            (sl, varint_len_at(p.add(LEAF_HEADER + sl)))
        };
        let mut st = self.state.lock().expect("leaf arena poisoned");
        st.dead_bytes += LEAF_HEADER + suffix_len + tid_len;
        st.records -= 1;
    }

    /// Pointer to the record at byte offset `off`. Lock-free.
    #[inline]
    fn rec_ptr(&self, off: u32) -> *mut u8 {
        let slab = (off as usize) / SLAB_BYTES;
        let within = (off as usize) % SLAB_BYTES;
        // SAFETY: every published offset lies inside a grown slab and
        // records never straddle slab boundaries.
        unsafe { self.table.get(slab).add(within) }
    }

    /// Prefetch the record at `off` (header + suffix head + TID share the
    /// first lines).
    #[inline]
    fn prefetch(&self, off: u32) {
        hot_bits::prefetch_read(self.rec_ptr(off));
    }

    /// The TID of the record at `off`.
    #[inline]
    fn tid_at(&self, off: u32) -> u64 {
        let p = self.rec_ptr(off);
        // SAFETY: fully written record; the varint decode stays inside it.
        unsafe {
            let suffix_len = *p.add(1) as usize;
            read_varint(p.add(LEAF_HEADER + suffix_len))
        }
    }

    /// Reconstruct the full key of the record at `off` into `buf`; returns
    /// its length.
    ///
    /// Restart records copy their suffix straight out; front-coded records
    /// walk forward from their restart applying each record's
    /// `[shared][suffix]` patch. Every record the walk touches was appended
    /// (hence fully written) before `off` was.
    fn load_key_into(&self, off: u32, buf: &mut [u8; MAX_KEY_LEN]) -> usize {
        let p = self.rec_ptr(off);
        // SAFETY: fully written record header.
        let (shared, suffix_len) = unsafe { (*p as usize, *p.add(1) as usize) };
        if shared == 0 {
            // SAFETY: suffix bytes follow the 4-byte header.
            unsafe {
                std::ptr::copy_nonoverlapping(p.add(LEAF_HEADER), buf.as_mut_ptr(), suffix_len);
            }
            return suffix_len;
        }
        // SAFETY: non-restart records hold a valid little-endian delta.
        let delta = unsafe { u16::from_le_bytes([*p.add(2), *p.add(3)]) } as u32;
        let mut q = off - delta;
        loop {
            let qp = self.rec_ptr(q);
            // SAFETY: `q` walks full records between the restart and `off`,
            // all inside one slab, all written before `off` was published.
            let (sh, sl) = unsafe { (*qp as usize, *qp.add(1) as usize) };
            // SAFETY: `sh + sl <= MAX_KEY_LEN` for every stored key.
            unsafe {
                std::ptr::copy_nonoverlapping(qp.add(LEAF_HEADER), buf.as_mut_ptr().add(sh), sl);
            }
            if q == off {
                return sh + sl;
            }
            // SAFETY: the TID varint follows the suffix inside record `q`.
            let tid_len = unsafe { varint_len_at(qp.add(LEAF_HEADER + sl)) };
            q += (LEAF_HEADER + sl + tid_len) as u32;
        }
    }

    /// Whether the record at `off` stores exactly `key`. Staged: length
    /// check, suffix compare, then (only for front-coded records) the chain
    /// reconstruction of the shared prefix.
    fn equals_key(&self, off: u32, key: &[u8], buf: &mut [u8; MAX_KEY_LEN]) -> bool {
        let p = self.rec_ptr(off);
        // SAFETY: fully written record header.
        let (shared, suffix_len) = unsafe { (*p as usize, *p.add(1) as usize) };
        if shared + suffix_len != key.len() {
            return false;
        }
        // SAFETY: suffix bytes follow the header.
        let suffix = unsafe { std::slice::from_raw_parts(p.add(LEAF_HEADER), suffix_len) };
        if suffix != &key[shared..] {
            return false;
        }
        if shared == 0 {
            return true;
        }
        let len = self.load_key_into(off, buf);
        debug_assert_eq!(len, key.len());
        buf[..shared] == key[..shared]
    }
}

/// Cache lines prefetched per upcoming node (same as the heap descent).
const PREFETCH_LINES: usize = 4;

/// Cache lines prefetched of the next sibling subtree during scans.
const SIBLING_PREFETCH_LINES: usize = 1;

/// Reusable mutation state for the compact trie: descent stack, decode
/// builder, and the alloc/retire tracking that keeps failed operations
/// leak-free and successful ones publish-then-retire ordered.
pub(crate) struct CompactScratch {
    /// Reused padded-key buffer for mutating operations.
    pub(crate) key_buf: Option<Box<PaddedKey>>,
    /// Reused descent stack: (node, selected entry index).
    stack: Vec<(CRef, usize)>,
    /// Reused decode buffer for the copy-on-write paths.
    builder: Option<Builder>,
    /// Nodes allocated by the in-flight operation but not yet reachable:
    /// freed if the operation fails, forgotten once it publishes.
    fresh: Vec<CRef>,
    /// Leaf record appended by the in-flight operation, if any: marked dead
    /// if the operation fails.
    fresh_leaf: Option<u32>,
    /// Nodes the operation replaced (unreachable once it published): the
    /// caller drains these — immediately in [`CompactHot`], epoch-deferred
    /// in [`ConcurrentCompact`](crate::ConcurrentCompact).
    pub(crate) retired: Vec<CRef>,
}

impl CompactScratch {
    pub(crate) fn new() -> CompactScratch {
        CompactScratch {
            key_buf: Some(Box::new(PaddedKey::new())),
            stack: Vec::with_capacity(16),
            builder: None,
            fresh: Vec::new(),
            fresh_leaf: None,
            retired: Vec::new(),
        }
    }
}

/// The shared compact-trie state: both arenas plus the root word and length.
/// [`CompactHot`] owns one exclusively; the concurrent wrapper shares one
/// behind an `Arc` with a mutexed [`CompactScratch`].
pub(crate) struct CompactInner {
    root: AtomicU32,
    // Length is monotonic bookkeeping, never a synchronization point (the
    // root/cvalue Acquire is what publishes structure) — Relaxed, like the
    // heap MemCounter.
    len: AtomicUsize,
    nodes: NodeArena,
    leaves: LeafArena,
}

impl CompactInner {
    pub(crate) fn new(node_cap: usize, leaf_cap: usize) -> CompactInner {
        CompactInner {
            root: AtomicU32::new(0),
            len: AtomicUsize::new(0),
            nodes: NodeArena::new(node_cap),
            leaves: LeafArena::new(leaf_cap),
        }
    }

    /// Load the root reference.
    ///
    /// Ordering: **Acquire** — pairs with the **Release** in
    /// [`publish_root`](Self::publish_root); a reader that observes a new
    /// root observes its fully written arena bytes.
    #[inline]
    pub(crate) fn load_root(&self) -> CRef {
        // pairs-with: croot
        CRef(self.root.load(Ordering::Acquire))
    }

    /// Publish a new root (single-writer).
    ///
    /// Ordering: **Release** — all arena writes that built the new subtree
    /// happen-before this store; pairs with the **Acquire** in
    /// [`load_root`](Self::load_root).
    #[inline]
    fn publish_root(&self, r: CRef) {
        // pairs-with: croot
        self.root.store(r.0, Ordering::Release);
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    #[inline]
    fn set_len(&self, n: usize) {
        self.len.store(n, Ordering::Relaxed);
    }

    /// Typed view of the node at `r` (the compact analogue of the heap's
    /// tagged-pointer decode: tag from the offset word, body in the arena).
    #[inline]
    pub(crate) fn raw(&self, r: CRef) -> RawNode {
        RawNode {
            base: self.nodes.ptr(r.units()),
            tag: r.tag(),
        }
    }

    /// Compound height of the subtree behind a builder value word (the
    /// compact child-height resolver passed to the `*_with` builder
    /// primitives — value words here are `CRef` bit patterns, never heap
    /// pointers).
    #[inline]
    fn word_height(&self, w: u64) -> u8 {
        let r = CRef(w as u32);
        if r.is_node() {
            self.raw(r).height()
        } else {
            0
        }
    }

    /// Decode the compact node at `raw` into `builder` (widened value
    /// words).
    fn decode_compact_into(&self, raw: RawNode, builder: &mut Builder) {
        raw.positions_into(&mut builder.positions);
        raw.read_entries_compact(&mut builder.sparse, &mut builder.values);
        builder.height = raw.height();
    }

    /// Encode `builder` into a freshly arena-allocated compact node.
    fn encode_compact(&self, builder: &Builder) -> Result<CRef, ArenaFull> {
        let n = builder.values.len();
        assert!((2..=MAX_FANOUT).contains(&n), "entry count {n}");
        let tag = NodeTag::choose(&builder.positions);
        let geo = geometry_compact(tag, n);
        let units = self.nodes.alloc(geo.alloc_size)?;
        let raw = RawNode {
            base: self.nodes.ptr(units),
            tag,
        };
        raw.init_header(n, builder.height);
        raw.fill_compact(&builder.positions, &builder.sparse, &builder.values);
        Ok(CRef::node(units, tag))
    }

    /// [`encode_compact`](Self::encode_compact), recording the allocation
    /// in the scratch's fresh list so a later failure in the same operation
    /// frees it.
    fn encode_tracked(&self, builder: &Builder, s: &mut CompactScratch) -> Result<CRef, ArenaFull> {
        let r = self.encode_compact(builder)?;
        s.fresh.push(r);
        Ok(r)
    }

    /// Return the node block at `r` to the arena free list.
    ///
    /// Caller guarantees no reference to it remains (operation failure
    /// before publish, post-publish retirement, or epoch quiescence).
    pub(crate) fn free_node(&self, r: CRef) {
        let raw = self.raw(r);
        let bytes = geometry_compact(r.tag(), raw.count()).alloc_size;
        self.nodes.free(r.units(), bytes);
    }

    /// Walk from `root` to the terminal word `key` leads to, pushing each
    /// hop's `(node, taken entry)` onto `path` when one is given — the
    /// compact twin of [`crate::node::descend`], and like it the one ISA
    /// dispatch of a scalar lookup, a mutation seek or a scan seek.
    fn descend(&self, root: CRef, key: &PaddedKey, path: Option<&mut Vec<(CRef, usize)>>) -> CRef {
        match hot_bits::features().isa() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the token proves detection found every enabled feature.
            Isa::Avx2(k) => unsafe { self.descend_avx2(k, root, key, path) },
            Isa::Portable(k) => self.descend_on(k, root, key, path),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    fn descend_avx2(
        &self,
        k: hot_bits::Avx2,
        root: CRef,
        key: &PaddedKey,
        path: Option<&mut Vec<(CRef, usize)>>,
    ) -> CRef {
        self.descend_on(k, root, key, path)
    }

    #[inline(always)]
    fn descend_on<K: Kernel>(
        &self,
        k: K,
        root: CRef,
        key: &PaddedKey,
        mut path: Option<&mut Vec<(CRef, usize)>>,
    ) -> CRef {
        let mut cur = root;
        while cur.is_node() {
            let raw = self.raw(cur);
            // Tag dispatch from the offset word overlaps the body prefetch.
            hot_bits::prefetch_node(raw.base, PREFETCH_LINES);
            let (idx, next) = raw.find_candidate::<K, CompactSlot>(k, key.padded());
            if let Some(path) = path.as_deref_mut() {
                path.push((cur, idx));
            }
            cur = CRef(next);
        }
        cur
    }

    /// Point lookup (the compact Listing 2): the final verify reads the
    /// inline record behind the terminal offset word.
    pub(crate) fn get_padded(&self, key: &PaddedKey, buf: &mut [u8; MAX_KEY_LEN]) -> Option<u64> {
        let cur = self.descend(self.load_root(), key, None);
        if cur.is_null() {
            return None;
        }
        let off = cur.leaf_off();
        if self.leaves.equals_key(off, key.bytes(), buf) {
            Some(self.leaves.tid_at(off))
        } else {
            None
        }
    }

    /// Insert core. All arena allocations strictly precede any publish in
    /// every branch, so an [`ArenaFull`] leaves the published tree
    /// untouched (the wrapper then rolls the scratch's fresh list back).
    ///
    /// The heap trie's fused insert fast path is intentionally absent: it
    /// is asserted byte-identical to the general builder path over there,
    /// so always taking the builder path preserves structure-digest
    /// equality between backends.
    fn insert_inner(
        &self,
        s: &mut CompactScratch,
        key: &PaddedKey,
        tid: u64,
    ) -> Result<Option<u64>, ArenaFull> {
        let root = self.load_root();
        if root.is_null() {
            let off = self.leaves.append(key.bytes(), tid)?;
            s.fresh_leaf = Some(off);
            self.publish_root(CRef::leaf(off));
            self.set_len(1);
            return Ok(None);
        }

        // Descend to the candidate leaf, recording the path.
        s.stack.clear();
        let cur = self.descend(root, key, Some(&mut s.stack));
        let old_off = cur.leaf_off();
        let mut stored_buf = [0u8; MAX_KEY_LEN];
        let stored_len = self.leaves.load_key_into(old_off, &mut stored_buf);
        let mismatch = hot_bits::first_mismatch_bit(&stored_buf[..stored_len], key.bytes());
        let Some(pos) = mismatch else {
            // Upsert: append the new record, swap the leaf word in place,
            // retire the old record's bytes to the dead count.
            let old_tid = self.leaves.tid_at(old_off);
            let new_off = self.leaves.append(key.bytes(), tid)?;
            s.fresh_leaf = Some(new_off);
            match s.stack.last() {
                None => self.publish_root(CRef::leaf(new_off)),
                Some(&(node, idx)) => self.raw(node).store_cvalue(idx, CRef::leaf(new_off).0),
            }
            self.leaves.mark_dead(old_off);
            return Ok(Some(old_tid));
        };
        assert!(pos < u16::MAX as usize, "mismatch position fits u16");
        let key_bit = hot_bits::bit_at(key.bytes(), pos);

        let new_off = self.leaves.append(key.bytes(), tid)?;
        s.fresh_leaf = Some(new_off);
        let new_leaf = CRef::leaf(new_off);

        if s.stack.is_empty() {
            // The root was a single leaf: grow into the first 2-entry node.
            let (zero, one) = if key_bit == 1 {
                (CRef::leaf(old_off).0 as u64, new_leaf.0 as u64)
            } else {
                (new_leaf.0 as u64, CRef::leaf(old_off).0 as u64)
            };
            let b = Builder::pair(pos as u16, zero, one, 1);
            let new_root = self.encode_tracked(&b, s)?;
            self.publish_root(new_root);
            self.set_len(self.len() + 1);
            return Ok(None);
        }

        // Find the node the new BiNode belongs to (same rule as the heap
        // trie: deepest node whose root BiNode position is <= the mismatch,
        // then hand upward-growing single-child cases to the child).
        let mut level = s.stack.len() - 1;
        while level > 0 && self.raw(s.stack[level].0).min_position() as usize > pos {
            level -= 1;
        }
        let (_, mut idx) = s.stack[level];
        let mut raw = self.raw(s.stack[level].0);
        let (mut lo, mut hi) = raw.affected_range(pos, idx);

        if lo == hi && CRef(raw.cvalue(lo)).is_node() {
            level += 1;
            idx = s.stack[level].1;
            raw = self.raw(s.stack[level].0);
            (lo, hi) = raw.affected_range(pos, idx);
            debug_assert_eq!((lo, hi), (0, raw.count() - 1));
        }

        if lo == hi && CRef(raw.cvalue(lo)).is_leaf() && raw.height() > 1 {
            // Leaf-node pushdown: a single slot store publishes the new
            // height-1 node.
            let old_leaf = CRef(raw.cvalue(lo));
            let (zero, one) = if key_bit == 1 {
                (old_leaf.0 as u64, new_leaf.0 as u64)
            } else {
                (new_leaf.0 as u64, old_leaf.0 as u64)
            };
            let pushed = {
                let b = Builder::pair(pos as u16, zero, one, 1);
                self.encode_tracked(&b, s)?
            };
            raw.store_cvalue(lo, pushed.0);
            self.set_len(self.len() + 1);
            return Ok(None);
        }

        // General path: decode, insert, re-encode (or split on overflow).
        let mut builder = s.builder.take().unwrap_or_else(Builder::empty);
        self.decode_compact_into(raw, &mut builder);
        builder.insert_entry(pos as u16, idx, key_bit, new_leaf.0 as u64);
        if !builder.overflowed() {
            let enc = self.encode_tracked(&builder, s);
            s.builder = Some(builder);
            let new_node = enc?;
            let old_node = s.stack[level].0;
            self.replace_slot(s, level, new_node);
            s.retired.push(old_node);
        } else {
            self.overflow_compact(s, level, builder)?;
        }
        self.set_len(self.len() + 1);
        Ok(None)
    }

    /// Resolve an overflowed builder at `level`: split at the root BiNode,
    /// then parent pull-up (recursing upward) or intermediate node
    /// creation, growing the tree only at the root — the compact mirror of
    /// the heap trie's `handle_overflow`.
    fn overflow_compact(
        &self,
        s: &mut CompactScratch,
        mut level: usize,
        mut builder: Builder,
    ) -> Result<(), ArenaFull> {
        loop {
            debug_assert!(builder.overflowed());
            let (pos, left, right) = builder.split_with(|w| self.word_height(w));
            let left_ref = self.half_ref(&left, s)?;
            let right_ref = self.half_ref(&right, s)?;
            let old_node = s.stack[level].0;

            if level == 0 {
                // Only the root grows the tree height.
                let h = 1 + self.word_height(left_ref.0 as u64)
                    .max(self.word_height(right_ref.0 as u64));
                let b = Builder::pair(pos, left_ref.0 as u64, right_ref.0 as u64, h);
                let new_root = self.encode_tracked(&b, s)?;
                self.publish_root(new_root);
                s.retired.push(old_node);
                s.builder = Some(builder);
                return Ok(());
            }

            let (parent, parent_idx) = s.stack[level - 1];
            let parent_raw = self.raw(parent);
            debug_assert!(parent_raw.height() > builder.height);
            if builder.height + 1 == parent_raw.height() {
                // Parent pull-up: move the split root BiNode into the parent.
                let mut pb = Builder::empty();
                self.decode_compact_into(parent_raw, &mut pb);
                pb.replace_entry_with_pair_with(
                    parent_idx,
                    pos,
                    left_ref.0 as u64,
                    right_ref.0 as u64,
                    |w| self.word_height(w),
                );
                s.retired.push(old_node);
                if pb.overflowed() {
                    builder = pb;
                    level -= 1;
                    continue;
                }
                let new_parent = self.encode_tracked(&pb, s)?;
                self.replace_slot(s, level - 1, new_parent);
                s.retired.push(parent);
                s.builder = Some(builder);
                return Ok(());
            }

            // Intermediate node creation: room between this node and its
            // parent, so an extra level does not increase the tree height.
            let h = 1 + self.word_height(left_ref.0 as u64)
                .max(self.word_height(right_ref.0 as u64));
            let b = Builder::pair(pos, left_ref.0 as u64, right_ref.0 as u64, h);
            let inter = self.encode_tracked(&b, s)?;
            parent_raw.store_cvalue(parent_idx, inter.0);
            s.retired.push(old_node);
            s.builder = Some(builder);
            return Ok(());
        }
    }

    /// Encode a split half, collapsing singleton halves to their bare value.
    fn half_ref(&self, half: &Builder, s: &mut CompactScratch) -> Result<CRef, ArenaFull> {
        if half.len() == 1 {
            Ok(CRef(half.values[0] as u32))
        } else {
            self.encode_tracked(half, s)
        }
    }

    /// Point the slot holding the node at `level` (or the root) at `new`.
    fn replace_slot(&self, s: &mut CompactScratch, level: usize, new: CRef) {
        if level == 0 {
            self.publish_root(new);
        } else {
            let (parent, idx) = s.stack[level - 1];
            self.raw(parent).store_cvalue(idx, new.0);
        }
        s.stack[level].0 = new;
    }

    /// Remove core. Mirrors the heap trie's `remove_padded`; node encodes
    /// can hit [`ArenaFull`], in which case the tree is untouched. The
    /// removed key's leaf record is marked dead only on success.
    fn remove_inner(
        &self,
        s: &mut CompactScratch,
        key: &PaddedKey,
    ) -> Result<Option<u64>, ArenaFull> {
        let root = self.load_root();
        if root.is_null() {
            return Ok(None);
        }
        s.stack.clear();
        let cur = self.descend(root, key, Some(&mut s.stack));
        let off = cur.leaf_off();
        let mut stored_buf = [0u8; MAX_KEY_LEN];
        if !self.leaves.equals_key(off, key.bytes(), &mut stored_buf) {
            return Ok(None);
        }
        let tid = self.leaves.tid_at(off);

        let Some(&(node, idx)) = s.stack.last() else {
            // The root itself was the leaf.
            self.publish_root(CRef::NULL);
            self.set_len(0);
            self.leaves.mark_dead(off);
            return Ok(Some(tid));
        };
        let raw = self.raw(node);
        let level = s.stack.len() - 1;
        if raw.count() == 2 {
            // Underflow: the node collapses to its surviving entry.
            let survivor = CRef(raw.cvalue(1 - idx));
            self.replace_slot(s, level, survivor);
            s.retired.push(node);
        } else {
            let mut builder = s.builder.take().unwrap_or_else(Builder::empty);
            self.decode_compact_into(raw, &mut builder);
            builder.remove_entry(idx);
            // Underflow merge: a node shrunk to two entries dissolves into
            // its parent when there is room.
            if builder.len() == 2 && level > 0 {
                let (parent, parent_idx) = s.stack[level - 1];
                let parent_raw = self.raw(parent);
                if parent_raw.count() < MAX_FANOUT {
                    let mut pb = Builder::empty();
                    self.decode_compact_into(parent_raw, &mut pb);
                    pb.replace_entry_with_pair_with(
                        parent_idx,
                        builder.positions[0],
                        builder.values[0],
                        builder.values[1],
                        |w| self.word_height(w),
                    );
                    let enc = self.encode_tracked(&pb, s);
                    s.builder = Some(builder);
                    let new_parent = enc?;
                    self.replace_slot(s, level - 1, new_parent);
                    s.retired.push(node);
                    s.retired.push(parent);
                    self.set_len(self.len() - 1);
                    self.leaves.mark_dead(off);
                    return Ok(Some(tid));
                }
            }
            let enc = self.encode_tracked(&builder, s);
            s.builder = Some(builder);
            let new_node = enc?;
            self.replace_slot(s, level, new_node);
            s.retired.push(node);
        }
        self.set_len(self.len() - 1);
        self.leaves.mark_dead(off);
        Ok(Some(tid))
    }

    /// Bulk-load core: validate + collect winners, append their records in
    /// key order (maximal front-coding), then build nodes bottom-up with
    /// the heap loader's exact partitioning.
    ///
    /// # Panics
    /// Panics on [`ArenaFull`] mid-build: unlike the incremental paths
    /// there is no single-publish rollback for a half-built subtree (the
    /// root stays null; appended records become dead bytes).
    pub(crate) fn bulk_inner<K: AsRef<[u8]>>(&self, entries: &[(K, u64)]) -> Result<usize, BulkLoadError> {
        // Pass 1: mirror `bulk::prepare`'s validation and last-write-wins
        // dedup, but record winner *indices* — records are only appended
        // once the whole input is validated.
        let mut winners: Vec<usize> = Vec::with_capacity(entries.len());
        let mut bounds: Vec<u16> = Vec::with_capacity(entries.len().saturating_sub(1));
        let mut prev: Option<&[u8]> = None;
        for (index, (key, tid)) in entries.iter().enumerate() {
            let key = key.as_ref();
            assert!(key.len() <= MAX_KEY_LEN, "key longer than MAX_KEY_LEN");
            assert!(*tid <= MAX_TID, "tid exceeds MAX_TID");
            if let Some(p) = prev {
                match hot_bits::first_mismatch_bit(p, key) {
                    None => {
                        *winners.last_mut().expect("prev implies a winner") = index;
                        continue;
                    }
                    Some(pos) => {
                        if key_bit_padded(p, pos) != 0 {
                            return Err(BulkLoadError::Unsorted { index });
                        }
                        bounds.push(pos as u16);
                    }
                }
            }
            prev = Some(key);
            winners.push(index);
        }
        let n = winners.len();
        match n {
            0 => Ok(0),
            1 => {
                let (key, tid) = &entries[winners[0]];
                let off = self
                    .leaves
                    .append(key.as_ref(), *tid)
                    .unwrap_or_else(|e| panic!("bulk load: {e}"));
                self.publish_root(CRef::leaf(off));
                self.set_len(1);
                Ok(1)
            }
            _ => {
                // Pass 2: append winners in key order, then build.
                let mut leaf_words: Vec<u64> = Vec::with_capacity(n);
                for &i in &winners {
                    let (key, tid) = &entries[i];
                    let off = self
                        .leaves
                        .append(key.as_ref(), *tid)
                        .unwrap_or_else(|e| panic!("bulk load: {e}"));
                    leaf_words.push(CRef::leaf(off).0 as u64);
                }
                let shape = crate::bulk::analyze(&bounds);
                let root = self.build_part(
                    &leaf_words,
                    &bounds,
                    &shape,
                    crate::bulk::Part {
                        lo: 0,
                        hi: n - 1,
                        root: shape.root,
                    },
                );
                self.publish_root(root);
                self.set_len(n);
                Ok(n)
            }
        }
    }

    /// Build the compact subtrie for `part`, bottom-up (the compact mirror
    /// of `bulk::build_part`; same forced-split partitioning, so the node
    /// structure is identical to the heap loader's).
    fn build_part(
        &self,
        leaf_words: &[u64],
        bounds: &[u16],
        shape: &crate::bulk::Shape,
        part: crate::bulk::Part,
    ) -> CRef {
        if part.root == crate::bulk::ENTRY {
            return CRef(leaf_words[part.lo] as u32);
        }
        let mut parts = Vec::with_capacity(MAX_FANOUT);
        crate::bulk::partition_node(shape, part.root, part.lo, part.hi, &mut parts);
        let fences: Vec<u16> = parts[..parts.len() - 1]
            .iter()
            .map(|p| bounds[p.hi])
            .collect();
        let values: Vec<u64> = parts
            .iter()
            .map(|&p| self.build_part(leaf_words, bounds, shape, p).0 as u64)
            .collect();
        let b = Builder::from_fragment_with(&fences, &values, |w| self.word_height(w));
        self.encode_compact(&b)
            .unwrap_or_else(|e| panic!("bulk load: {e}"))
    }
}

/// Bit `pos` of `key` under the zero-padding convention (same helper as the
/// heap bulk loader's private `key_bit`).
#[inline]
fn key_bit_padded(key: &[u8], pos: usize) -> u8 {
    let byte = pos / 8;
    if byte >= key.len() {
        0
    } else {
        (key[byte] >> (7 - pos % 8)) & 1
    }
}

// ---- cursors ----------------------------------------------------------------

/// Ordered iterator over the compact trie's TIDs (the arena analogue of
/// [`Cursor`](crate::Cursor)).
pub struct CompactCursor<'a> {
    inner: &'a CompactInner,
    frames: Vec<(CRef, usize)>,
    pending: Option<u64>,
}

impl Iterator for CompactCursor<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(tid) = self.pending.take() {
            return Some(tid);
        }
        loop {
            let &(node, idx) = self.frames.last()?;
            let raw = self.inner.raw(node);
            if idx >= raw.count() {
                self.frames.pop();
                continue;
            }
            self.frames.last_mut().expect("non-empty").1 += 1;
            let value = CRef(raw.cvalue(idx));
            if value.is_leaf() {
                return Some(self.inner.leaves.tid_at(value.leaf_off()));
            }
            self.frames.push((value, 0));
        }
    }
}

impl CompactInner {
    /// Iterator over all TIDs in ascending key order.
    fn iter(&self) -> CompactCursor<'_> {
        let mut frames = Vec::new();
        let mut pending = None;
        let root = self.load_root();
        if root.is_node() {
            frames.push((root, 0));
        } else if root.is_leaf() {
            pending = Some(self.leaves.tid_at(root.leaf_off()));
        }
        CompactCursor {
            inner: self,
            frames,
            pending,
        }
    }

    /// Iterator over TIDs whose keys are `>= key` (mirrors the heap trie's
    /// `range_from` positioning rule exactly).
    fn range_from(&self, key: &[u8]) -> CompactCursor<'_> {
        let padded = PaddedKey::from_key(key);
        let mut frames: Vec<(CRef, usize)> = Vec::new();
        let mut pending = None;
        let root = self.load_root();

        if root.is_leaf() {
            let mut buf = [0u8; MAX_KEY_LEN];
            let len = self.leaves.load_key_into(root.leaf_off(), &mut buf);
            if &buf[..len] >= key {
                pending = Some(self.leaves.tid_at(root.leaf_off()));
            }
            return CompactCursor { inner: self, frames, pending };
        }
        if root.is_null() {
            return CompactCursor { inner: self, frames, pending };
        }

        let mut path: Vec<(CRef, usize)> = Vec::new();
        let cur = self.descend(root, &padded, Some(&mut path));
        let mut buf = [0u8; MAX_KEY_LEN];
        let len = self.leaves.load_key_into(cur.leaf_off(), &mut buf);
        match hot_bits::first_mismatch_bit(&buf[..len], padded.bytes()) {
            None => {
                for &(node, idx) in &path {
                    frames.push((node, idx + 1));
                }
                pending = Some(self.leaves.tid_at(cur.leaf_off()));
            }
            Some(pos) => {
                let mut level = path.len() - 1;
                while level > 0 && self.raw(path[level].0).min_position() as usize > pos {
                    level -= 1;
                }
                for &(node, idx) in &path[..level] {
                    frames.push((node, idx + 1));
                }
                let (target, idx) = path[level];
                let (lo, hi) = self.raw(target).affected_range(pos, idx);
                let start = if hot_bits::bit_at(padded.bytes(), pos) == 0 {
                    lo
                } else {
                    hi + 1
                };
                frames.push((target, start));
            }
        }
        CompactCursor { inner: self, frames, pending }
    }
}

/// Reusable compact range-scan state (the arena analogue of
/// [`ScanCursor`](crate::ScanCursor)): padded start key, descent path and
/// in-order frame stack, all recycled so steady-state scans are
/// allocation-free.
pub struct CompactScanCursor {
    key: Box<PaddedKey>,
    path: Vec<(CRef, usize)>,
    frames: Vec<(CRef, usize)>,
}

impl Default for CompactScanCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactScanCursor {
    /// A fresh cursor (buffers grow on first use).
    pub fn new() -> Self {
        CompactScanCursor {
            key: Box::new(PaddedKey::new()),
            path: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Run one scan, appending up to `limit` TIDs (keys `>= key`,
    /// ascending) to `out`. The drain prefetches child and sibling
    /// subtrees exactly like the heap scan.
    pub(crate) fn scan_root(
        &mut self,
        inner: &CompactInner,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
    ) {
        if limit == 0 {
            return;
        }
        let root = inner.load_root();
        if root.is_null() {
            return;
        }
        if root.is_leaf() {
            let mut buf = [0u8; MAX_KEY_LEN];
            let len = inner.leaves.load_key_into(root.leaf_off(), &mut buf);
            if &buf[..len] >= key {
                out.push(inner.leaves.tid_at(root.leaf_off()));
            }
            return;
        }
        self.key.set(key);
        self.path.clear();
        let cur = inner.descend(root, &self.key, Some(&mut self.path));
        let limit = limit.saturating_add(out.len());
        position_frames(inner, &self.key, &self.path, cur, &mut self.frames, out);
        drain_frames(inner, &mut self.frames, limit, out);
    }
}

/// Turn a completed compact seek descent into an in-order frame stack
/// positioned at the first entry `>= key` (mirrors `scan::position_frames`).
fn position_frames(
    inner: &CompactInner,
    key: &PaddedKey,
    path: &[(CRef, usize)],
    leaf: CRef,
    frames: &mut Vec<(CRef, usize)>,
    out: &mut Vec<u64>,
) {
    frames.clear();
    let mut buf = [0u8; MAX_KEY_LEN];
    let mismatch = if leaf.is_leaf() {
        let len = inner.leaves.load_key_into(leaf.leaf_off(), &mut buf);
        hot_bits::first_mismatch_bit(&buf[..len], key.bytes())
    } else {
        Some(0)
    };
    match mismatch {
        None => {
            for &(node, idx) in path {
                frames.push((node, idx + 1));
            }
            out.push(inner.leaves.tid_at(leaf.leaf_off()));
        }
        Some(pos) => {
            let mut level = path.len() - 1;
            while level > 0 && inner.raw(path[level].0).min_position() as usize > pos {
                level -= 1;
            }
            for &(node, idx) in &path[..level] {
                frames.push((node, idx + 1));
            }
            let (target, idx) = path[level];
            let (lo, hi) = inner.raw(target).affected_range(pos, idx);
            let start = if hot_bits::bit_at(key.bytes(), pos) == 0 {
                lo
            } else {
                hi + 1
            };
            frames.push((target, start));
        }
    }
}

/// Drain a compact in-order frame stack until `out` holds `limit` TIDs,
/// prefetching one subtree ahead (mirrors `scan::drain_frames`; sibling
/// leaf records prefetch through their offsets too).
fn drain_frames(
    inner: &CompactInner,
    frames: &mut Vec<(CRef, usize)>,
    limit: usize,
    out: &mut Vec<u64>,
) {
    while out.len() < limit {
        let Some(frame) = frames.last_mut() else {
            break;
        };
        // The value section is located once per frame visit, as in the
        // heap drain.
        let raw = inner.raw(frame.0);
        let (count, values) = (raw.count(), raw.cvalues_ptr() as *const u8);
        let mut child = CRef::NULL;
        while frame.1 < count && out.len() < limit && !child.is_node() {
            // SAFETY: slot `frame.1 < count` of a live compact node.
            let value = CRef(unsafe { CompactSlot::load(values, frame.1) });
            frame.1 += 1;
            if value.is_leaf() {
                out.push(inner.leaves.tid_at(value.leaf_off()));
            } else {
                child = value;
            }
        }
        if child.is_node() {
            hot_bits::prefetch_node(inner.raw(child).base, PREFETCH_LINES);
            if frame.1 < count {
                // SAFETY: slot `frame.1 < count` of a live compact node.
                let sib = CRef(unsafe { CompactSlot::load(values, frame.1) });
                if sib.is_node() {
                    hot_bits::prefetch_node(inner.raw(sib).base, SIBLING_PREFETCH_LINES);
                } else if sib.is_leaf() {
                    inner.leaves.prefetch(sib.leaf_off());
                }
            }
            frames.push((child, 0));
        } else if frame.1 >= count {
            frames.pop();
        }
    }
}

/// Fixed group size of the compact batched-lookup pipeline.
const BATCH_GROUP: usize = 8;

/// Software-pipelined batched point lookups over the compact trie: G
/// descents advance round-robin one level per round, each hop prefetching
/// its lane's next node — or, on the last hop, the lane's inline leaf
/// record, so the verify phase finds both key suffix and TID cache-warm.
pub struct CompactBatchCursor {
    keys: Vec<PaddedKey>,
    lanes: Vec<CRef>,
}

impl Default for CompactBatchCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactBatchCursor {
    /// A fresh cursor with the default group size.
    pub fn new() -> Self {
        CompactBatchCursor {
            keys: vec![PaddedKey::new(); BATCH_GROUP],
            lanes: vec![CRef::NULL; BATCH_GROUP],
        }
    }

    /// The pipeline group size.
    pub fn group(&self) -> usize {
        BATCH_GROUP
    }

    /// Answer one group of at most [`group`](Self::group) keys — the
    /// group's one ISA dispatch.
    pub(crate) fn run_group<Q: AsRef<[u8]>>(&mut self, inner: &CompactInner, keys: &[Q], out: &mut [Option<u64>]) {
        match hot_bits::features().isa() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the token proves detection found every enabled feature.
            Isa::Avx2(k) => unsafe { self.run_group_avx2(k, inner, keys, out) },
            Isa::Portable(k) => self.run_group_on(k, inner, keys, out),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
    fn run_group_avx2<Q: AsRef<[u8]>>(
        &mut self,
        k: hot_bits::Avx2,
        inner: &CompactInner,
        keys: &[Q],
        out: &mut [Option<u64>],
    ) {
        self.run_group_on(k, inner, keys, out)
    }

    #[inline(always)]
    fn run_group_on<K: Kernel, Q: AsRef<[u8]>>(
        &mut self,
        k: K,
        inner: &CompactInner,
        keys: &[Q],
        out: &mut [Option<u64>],
    ) {
        let g = keys.len();
        debug_assert!(g <= BATCH_GROUP && out.len() == g);
        let root = inner.load_root();
        for (i, key) in keys.iter().enumerate() {
            self.keys[i].set(key.as_ref());
            self.lanes[i] = root;
        }
        if root.is_node() {
            hot_bits::prefetch_node(inner.raw(root).base, PREFETCH_LINES);
        }
        loop {
            let mut active = false;
            for i in 0..g {
                let cur = self.lanes[i];
                if !cur.is_node() {
                    continue;
                }
                active = true;
                let raw = inner.raw(cur);
                let (_, next) = raw.find_candidate::<K, CompactSlot>(k, self.keys[i].padded());
                let next = CRef(next);
                if next.is_node() {
                    hot_bits::prefetch_node(inner.raw(next).base, PREFETCH_LINES);
                } else if next.is_leaf() {
                    inner.leaves.prefetch(next.leaf_off());
                }
                self.lanes[i] = next;
            }
            if !active {
                break;
            }
        }
        let mut buf = [0u8; MAX_KEY_LEN];
        for (i, slot) in out.iter_mut().enumerate().take(g) {
            let cur = self.lanes[i];
            *slot = if cur.is_leaf() {
                let off = cur.leaf_off();
                if inner.leaves.equals_key(off, self.keys[i].bytes(), &mut buf) {
                    Some(inner.leaves.tid_at(off))
                } else {
                    None
                }
            } else {
                None
            };
        }
    }
}

// ---- diagnostics ------------------------------------------------------------

impl CompactInner {
    /// Whole-trie invariant walk producing the same
    /// [`InvariantReport`](crate::InvariantReport) as the heap walker:
    /// fanout bounds, linearization well-formedness, SIMD-search
    /// self-consistency, strict height decrease, in-order key ordering,
    /// leaf count, and full re-lookup of every stored key through
    /// [`get_padded`](Self::get_padded).
    pub(crate) fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        let root = self.load_root();
        let expected_len = self.len();
        let mut report = crate::InvariantReport {
            nodes: 0,
            leaves: 0,
            height: 0,
            height_slack: 0,
            entries: 0,
            layout_census: [0; 9],
            leaf_depths: [0; crate::invariants::MAX_DEPTH_SLOTS],
        };
        if root.is_null() {
            if expected_len != 0 {
                return Err(format!("empty root but len is {expected_len}"));
            }
            return Ok(report);
        }
        let mut prev_key: Vec<u8> = Vec::new();
        let mut have_prev = false;
        let mut leaf_offs: Vec<u32> = Vec::with_capacity(expected_len);
        report.height =
            self.walk_invariants(root, 0, &mut prev_key, &mut have_prev, &mut leaf_offs, &mut report)?;
        if report.leaves != expected_len {
            return Err(format!(
                "leaf count {} does not match len {expected_len}",
                report.leaves
            ));
        }
        let mut buf = [0u8; MAX_KEY_LEN];
        let mut verify = [0u8; MAX_KEY_LEN];
        let mut padded = PaddedKey::new();
        for off in leaf_offs {
            let len = self.leaves.load_key_into(off, &mut buf);
            padded.set(&buf[..len]);
            let tid = self.leaves.tid_at(off);
            match self.get_padded(&padded, &mut verify) {
                Some(found) if found == tid => {}
                other => {
                    return Err(format!(
                        "stored key for tid {tid} resolves to {other:?} through \
                         the compact lookup path"
                    ));
                }
            }
        }
        Ok(report)
    }

    /// Check the subtree under `r`; returns its height (leaves are 0).
    #[allow(clippy::too_many_arguments)]
    fn walk_invariants(
        &self,
        r: CRef,
        depth: usize,
        prev_key: &mut Vec<u8>,
        have_prev: &mut bool,
        leaf_offs: &mut Vec<u32>,
        report: &mut crate::InvariantReport,
    ) -> Result<usize, String> {
        if r.is_null() {
            return Err(format!("null child reference at depth {depth}"));
        }
        if r.is_leaf() {
            let off = r.leaf_off();
            let mut buf = [0u8; MAX_KEY_LEN];
            let len = self.leaves.load_key_into(off, &mut buf);
            let key = &buf[..len];
            if *have_prev && prev_key.as_slice() >= key {
                return Err(format!(
                    "partition ordering violated: leaf at offset {off}, depth \
                     {depth} is not strictly greater than its in-order \
                     predecessor ({prev_key:?} >= {key:?})"
                ));
            }
            prev_key.clear();
            prev_key.extend_from_slice(key);
            *have_prev = true;
            leaf_offs.push(off);
            report.leaves += 1;
            report.leaf_depths[depth.min(crate::invariants::MAX_DEPTH_SLOTS - 1)] += 1;
            return Ok(0);
        }
        let raw = self.raw(r);
        let n = raw.count();
        let h = raw.height() as usize;
        let ctx =
            |what: &str| format!("compact node at depth {depth} (tag {:?}, n={n}, h={h}): {what}", raw.tag);
        if !(2..=MAX_FANOUT).contains(&n) {
            return Err(ctx("entry count outside 2..=32"));
        }
        if h < 1 {
            return Err(ctx("compound node with height 0"));
        }
        // Compact nodes never take the ROWEX lock; the header word must
        // still read zero (a quiesced plain read, not a protocol atomic).
        // SAFETY: the header is initialized and 4-byte aligned.
        let lock = unsafe { std::ptr::read(raw.base as *const u32) };
        if lock != 0 {
            return Err(ctx("compact node lock word is not zero"));
        }
        let mut builder = Builder::empty();
        self.decode_compact_into(raw, &mut builder);
        builder
            .try_check_invariants()
            .map_err(|e| ctx(&format!("linearization invalid: {e}")))?;
        for i in 0..n {
            let found = raw.search(raw.sparse_key(i));
            if found != i {
                return Err(ctx(&format!(
                    "search(sparse_key({i})) returned {found}, not {i}"
                )));
            }
        }
        report.nodes += 1;
        report.entries += n;
        report.layout_census[raw.tag as usize] += 1;
        let mut max_child = 0usize;
        for i in 0..n {
            let ch = self.walk_invariants(
                CRef(raw.cvalue(i)),
                depth + 1,
                prev_key,
                have_prev,
                leaf_offs,
                report,
            )?;
            if ch >= h {
                return Err(ctx(&format!(
                    "entry {i}: child height {ch} >= node height {h}"
                )));
            }
            max_child = max_child.max(ch);
        }
        if h > 1 + max_child {
            report.height_slack += 1;
        }
        Ok(h)
    }

    /// Count of live nodes per physical layout.
    pub(crate) fn layout_census(&self) -> [usize; 9] {
        let mut census = [0usize; 9];
        fn walk(inner: &CompactInner, r: CRef, census: &mut [usize; 9]) {
            if r.is_node() {
                let raw = inner.raw(r);
                census[raw.tag as usize] += 1;
                for i in 0..raw.count() {
                    walk(inner, CRef(raw.cvalue(i)), census);
                }
            }
        }
        walk(self, self.load_root(), &mut census);
        census
    }

    /// Leaf-depth histogram.
    pub(crate) fn depth_stats(&self) -> DepthStats {
        let mut stats = DepthStats::new();
        fn walk(inner: &CompactInner, r: CRef, depth: usize, stats: &mut DepthStats) {
            if r.is_leaf() {
                stats.record(depth);
            } else if r.is_node() {
                let raw = inner.raw(r);
                for i in 0..raw.count() {
                    walk(inner, CRef(raw.cvalue(i)), depth + 1, stats);
                }
            }
        }
        walk(self, self.load_root(), 0, &mut stats);
        stats
    }

    /// Structural fingerprint with the exact mixing of the heap
    /// [`structure_digest`](crate::HotTrie::structure_digest), so equal
    /// digests across backends mean structurally identical trees (tags,
    /// heights, positions, sparse keys, leaf TID order).
    pub(crate) fn structure_digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17)
        }
        fn walk(inner: &CompactInner, r: CRef, mut h: u64) -> u64 {
            if r.is_leaf() {
                return mix(h, inner.leaves.tid_at(r.leaf_off()) ^ 0xAAAA_AAAA);
            }
            if r.is_null() {
                return mix(h, 0x5555);
            }
            let raw = inner.raw(r);
            h = mix(h, raw.tag as u64);
            h = mix(h, raw.height() as u64);
            for p in raw.positions() {
                h = mix(h, p as u64);
            }
            for i in 0..raw.count() {
                h = mix(h, raw.sparse_key(i) as u64);
                h = walk(inner, CRef(raw.cvalue(i)), h);
            }
            h
        }
        walk(self, self.load_root(), 0xcbf2_9ce4_8422_2325)
    }

    /// Allocator-level accounting for both arenas.
    pub(crate) fn arena_stats(&self) -> ArenaStats {
        let nodes = self.nodes.state.lock().expect("node arena poisoned");
        let leaves = self.leaves.state.lock().expect("leaf arena poisoned");
        ArenaStats {
            node_capacity_bytes: nodes.slab_count * SLAB_BYTES,
            node_live_bytes: nodes.live_bytes,
            node_live_count: nodes.live_nodes,
            node_hwm_bytes: nodes.hwm_bytes,
            leaf_capacity_bytes: leaves.slab_count * SLAB_BYTES,
            leaf_tail_bytes: leaves.tail as usize,
            leaf_dead_bytes: leaves.dead_bytes,
            leaf_records: leaves.records,
        }
    }

    /// Index memory footprint in [`MemoryStats`] terms: live node bytes,
    /// live leaf-record bytes as `aux_bytes` (the compact backend stores
    /// its keys inline), and the arenas' reserved slab memory as
    /// `capacity_bytes`.
    pub(crate) fn memory_stats(&self) -> MemoryStats {
        let stats = self.arena_stats();
        MemoryStats {
            node_bytes: stats.node_live_bytes,
            node_count: stats.node_live_count,
            aux_bytes: stats.leaf_tail_bytes - stats.leaf_dead_bytes,
            key_count: self.len(),
            capacity_bytes: stats.capacity_bytes(),
        }
    }
}

// ---- mutation choreography --------------------------------------------------

/// Run one insert with the fresh/retired protocol: on success the replaced
/// nodes are left in `s.retired` for the caller to reclaim (immediately for
/// the single-threaded wrapper, epoch-deferred for the concurrent one); on
/// [`ArenaFull`] every unpublished allocation is rolled back and the tree
/// is untouched.
pub(crate) fn insert_op(
    inner: &CompactInner,
    s: &mut CompactScratch,
    key: &PaddedKey,
    tid: u64,
) -> Result<Option<u64>, ArenaFull> {
    s.fresh.clear();
    s.retired.clear();
    s.fresh_leaf = None;
    match inner.insert_inner(s, key, tid) {
        Ok(prev) => {
            s.fresh.clear();
            s.fresh_leaf = None;
            Ok(prev)
        }
        Err(e) => {
            for r in s.fresh.drain(..) {
                inner.free_node(r);
            }
            if let Some(off) = s.fresh_leaf.take() {
                inner.leaves.mark_dead(off);
            }
            s.retired.clear();
            Err(e)
        }
    }
}

/// Run one remove with the same protocol as [`insert_op`].
pub(crate) fn remove_op(
    inner: &CompactInner,
    s: &mut CompactScratch,
    key: &PaddedKey,
) -> Result<Option<u64>, ArenaFull> {
    s.fresh.clear();
    s.retired.clear();
    s.fresh_leaf = None;
    match inner.remove_inner(s, key) {
        Ok(prev) => {
            s.fresh.clear();
            s.fresh_leaf = None;
            Ok(prev)
        }
        Err(e) => {
            for r in s.fresh.drain(..) {
                inner.free_node(r);
            }
            if let Some(off) = s.fresh_leaf.take() {
                inner.leaves.mark_dead(off);
            }
            s.retired.clear();
            Err(e)
        }
    }
}

// ---- public single-threaded facade ------------------------------------------

/// Arena-backed HOT trie: nodes and front-coded leaf records live in slab
/// arenas addressed by 32-bit [`CRef`] offset words, so child arrays are
/// half the size of the heap backend's and the final descent hop lands on
/// the key bytes it must verify.
///
/// The API mirrors [`HotTrie`](crate::HotTrie); results are byte-identical
/// (asserted by the differential suite via [`structure_digest`]
/// (Self::structure_digest) equality). The heap backend remains the
/// oracle — this backend trades its external `KeySource` for inline
/// records and 32-bit references to cut bytes/key.
pub struct CompactHot {
    inner: CompactInner,
    scratch: CompactScratch,
}

impl Default for CompactHot {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactHot {
    /// An empty compact trie with the default arena ceilings (the full
    /// 32-bit addressable range; slabs are committed on demand).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_NODE_CAP, DEFAULT_LEAF_CAP)
    }

    /// An empty compact trie whose arenas refuse to grow past the given
    /// byte ceilings (rounded up to whole slabs). Mutations that would
    /// exceed a ceiling fail with a typed [`ArenaFull`]; useful for tests
    /// and for bounding index memory in embedding systems.
    pub fn with_capacity(node_cap_bytes: usize, leaf_cap_bytes: usize) -> Self {
        CompactHot {
            inner: CompactInner::new(node_cap_bytes, leaf_cap_bytes),
            scratch: CompactScratch::new(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Overall tree height in compound nodes (0 for empty or single-leaf
    /// trees).
    pub fn height(&self) -> usize {
        let root = self.inner.load_root();
        if root.is_node() {
            self.inner.raw(root).height() as usize
        } else {
            0
        }
    }

    /// Look up `key`; returns its TID if present. One descent over
    /// offset-word children plus an inline front-coded verify.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let padded = PaddedKey::from_key(key);
        let mut buf = [0u8; MAX_KEY_LEN];
        self.inner.get_padded(&padded, &mut buf)
    }

    /// Like [`get`](Self::get) with a caller-provided padded-key buffer.
    pub fn get_with(&self, key: &[u8], buf: &mut PaddedKey) -> Option<u64> {
        buf.set(key);
        let mut kb = [0u8; MAX_KEY_LEN];
        self.inner.get_padded(buf, &mut kb)
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Batched point lookups through a fresh pipeline cursor (see
    /// [`get_batch_with`](Self::get_batch_with) to amortize the cursor).
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn get_batch<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut [Option<u64>]) {
        let mut cursor = CompactBatchCursor::new();
        self.get_batch_with(&mut cursor, keys, out);
    }

    /// Batched point lookups with a caller-owned [`CompactBatchCursor`]:
    /// lookups advance in software-pipelined groups so independent descent
    /// hops overlap their cache misses.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn get_batch_with<K: AsRef<[u8]>>(
        &self,
        cursor: &mut CompactBatchCursor,
        keys: &[K],
        out: &mut [Option<u64>],
    ) {
        assert_eq!(keys.len(), out.len(), "output slice length mismatch");
        let g = cursor.group();
        for (kc, oc) in keys.chunks(g).zip(out.chunks_mut(g)) {
            cursor.run_group(&self.inner, kc, oc);
        }
    }

    /// Insert `key -> tid`; returns the previous TID on upsert.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`], the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes, or an arena ceiling is
    /// hit (use [`try_insert`](Self::try_insert) to handle that case).
    pub fn insert(&mut self, key: &[u8], tid: u64) -> Option<u64> {
        self.try_insert(key, tid)
            .unwrap_or_else(|e| panic!("compact insert: {e}"))
    }

    /// Insert `key -> tid`, reporting arena exhaustion as a typed error
    /// instead of panicking. On [`ArenaFull`] the tree is unchanged.
    ///
    /// # Panics
    /// Panics if `tid` exceeds [`MAX_TID`] or the key exceeds
    /// [`MAX_KEY_LEN`](hot_keys::MAX_KEY_LEN) bytes.
    pub fn try_insert(&mut self, key: &[u8], tid: u64) -> Result<Option<u64>, ArenaFull> {
        assert!(tid <= MAX_TID, "tid exceeds MAX_TID");
        let mut key_buf = self.scratch.key_buf.take().unwrap_or_default();
        key_buf.set(key);
        let result = insert_op(&self.inner, &mut self.scratch, &key_buf, tid);
        self.scratch.key_buf = Some(key_buf);
        if result.is_ok() {
            for r in self.scratch.retired.drain(..) {
                self.inner.free_node(r);
            }
        }
        result
    }

    /// Remove `key`; returns its TID if it was present.
    ///
    /// # Panics
    /// Panics if an arena ceiling is hit while re-encoding a merged node
    /// (use [`try_remove`](Self::try_remove) to handle that case).
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        self.try_remove(key)
            .unwrap_or_else(|e| panic!("compact remove: {e}"))
    }

    /// Remove `key`, reporting arena exhaustion as a typed error. On
    /// [`ArenaFull`] the tree is unchanged.
    pub fn try_remove(&mut self, key: &[u8]) -> Result<Option<u64>, ArenaFull> {
        let mut key_buf = self.scratch.key_buf.take().unwrap_or_default();
        key_buf.set(key);
        let result = remove_op(&self.inner, &mut self.scratch, &key_buf);
        self.scratch.key_buf = Some(key_buf);
        if result.is_ok() {
            for r in self.scratch.retired.drain(..) {
                self.inner.free_node(r);
            }
        }
        result
    }

    /// Bulk-load sorted `(key, tid)` pairs into an empty trie: records are
    /// appended in key order (maximal front-coding), then nodes are built
    /// bottom-up with the heap loader's exact partitioning. Returns the
    /// number of keys loaded (duplicates collapse last-write-wins).
    ///
    /// # Panics
    /// Panics if an arena ceiling is hit mid-build (no rollback for a
    /// half-built subtree).
    pub fn bulk_load<K: AsRef<[u8]>>(
        &mut self,
        entries: &[(K, u64)],
    ) -> Result<usize, BulkLoadError> {
        if !self.inner.load_root().is_null() {
            return Err(BulkLoadError::NotEmpty);
        }
        self.inner.bulk_inner(entries)
    }

    /// Iterator over all TIDs in ascending key order.
    pub fn iter(&self) -> CompactCursor<'_> {
        self.inner.iter()
    }

    /// Iterator over TIDs whose keys are `>= key`, ascending.
    pub fn range_from(&self, key: &[u8]) -> CompactCursor<'_> {
        self.inner.range_from(key)
    }

    /// Collect up to `limit` TIDs with keys `>= key`, in ascending key
    /// order.
    pub fn scan(&self, key: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(limit.min(1024));
        self.scan_into(key, limit, &mut out);
        out
    }

    /// Like [`scan`](Self::scan) into a caller buffer (cleared first).
    pub fn scan_into(&self, key: &[u8], limit: usize, out: &mut Vec<u64>) {
        let mut cursor = CompactScanCursor::new();
        self.scan_with(&mut cursor, key, limit, out);
    }

    /// Like [`scan`](Self::scan) with a caller-owned reusable cursor
    /// (`out` is cleared first): steady-state scans allocate nothing.
    pub fn scan_with(
        &self,
        cursor: &mut CompactScanCursor,
        key: &[u8],
        limit: usize,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        cursor.scan_root(&self.inner, key, limit, out);
    }

    /// Index memory footprint (live bytes plus reserved arena capacity).
    pub fn memory_stats(&self) -> MemoryStats {
        self.inner.memory_stats()
    }

    /// Allocator-level accounting for both arenas (capacity, live bytes,
    /// high-water mark, dead front-coded bytes).
    pub fn arena_stats(&self) -> ArenaStats {
        self.inner.arena_stats()
    }

    /// Leaf-depth histogram.
    pub fn depth_stats(&self) -> DepthStats {
        self.inner.depth_stats()
    }

    /// Count of live nodes per physical layout.
    pub fn layout_census(&self) -> [usize; 9] {
        self.inner.layout_census()
    }

    /// Structural fingerprint; equal to the heap backend's
    /// [`structure_digest`](crate::HotTrie::structure_digest) for the same
    /// key set.
    pub fn structure_digest(&self) -> u64 {
        self.inner.structure_digest()
    }

    /// Whole-trie invariant walk; see
    /// [`HotTrie::try_check_invariants`](crate::HotTrie::try_check_invariants).
    pub fn try_check_invariants(&self) -> Result<crate::InvariantReport, String> {
        self.inner.try_check_invariants()
    }

    /// Like [`try_check_invariants`](Self::try_check_invariants) but
    /// panics on violation.
    pub fn check_invariants(&self) -> crate::InvariantReport {
        match self.inner.try_check_invariants() {
            Ok(report) => report,
            Err(e) => panic!("compact invariant violation: {e}"),
        }
    }
}

impl<'a> IntoIterator for &'a CompactHot {
    type Item = u64;
    type IntoIter = CompactCursor<'a>;

    fn into_iter(self) -> CompactCursor<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cref_encoding_round_trip() {
        assert!(CRef::NULL.is_null());
        assert!(!CRef::NULL.is_leaf());
        assert!(!CRef::NULL.is_node());
        for off in [0u32, 1, 4005, (LEAF_BYTE_LIMIT - 1) as u32] {
            let r = CRef::leaf(off);
            assert!(r.is_leaf() && !r.is_node() && !r.is_null());
            assert_eq!(r.leaf_off(), off);
        }
        for units in [1u32, 2, 255, NODE_UNIT_LIMIT - 1] {
            for tag in 0..9u8 {
                let tag = NodeTag::from_u8(tag);
                let r = CRef::node(units, tag);
                assert!(r.is_node() && !r.is_leaf() && !r.is_null());
                assert_eq!(r.units(), units);
                assert_eq!(r.tag(), tag);
            }
        }
    }

    #[test]
    fn varint_tid_round_trip_at_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX as u64,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX,
        ];
        let mut buf = [0u8; 16];
        for &v in &cases {
            let want = varint_len(v);
            assert!((1..=10).contains(&want), "len {want} for {v}");
            // SAFETY: `buf` is 16 bytes, comfortably above the 10-byte max.
            let wrote = unsafe { write_varint(buf.as_mut_ptr(), v) };
            assert_eq!(wrote, want, "write_varint vs varint_len for {v}");
            // SAFETY: `buf` holds the value just written.
            assert_eq!(unsafe { read_varint(buf.as_ptr()) }, v);
            // SAFETY: `buf` holds the value just written.
            assert_eq!(unsafe { varint_len_at(buf.as_ptr()) }, want);
        }
        // Length must be monotonically non-decreasing in the value.
        for w in cases.windows(2) {
            assert!(varint_len(w[0]) <= varint_len(w[1]));
        }
    }

    #[test]
    fn large_tids_survive_front_coded_records() {
        let arena = LeafArena::new(DEFAULT_LEAF_CAP);
        // Chain of front-coded siblings with TIDs spanning every varint width.
        let tids = [0u64, 127, 128, 16_384, u32::MAX as u64, 1 << 56, MAX_TID];
        let offs: Vec<u32> = tids
            .iter()
            .enumerate()
            .map(|(i, &tid)| {
                let mut k = b"shared/prefix/for/front/coding/".to_vec();
                k.extend_from_slice(format!("{i:04}").as_bytes());
                arena.append(&k, tid).expect("append")
            })
            .collect();
        let mut buf = [0u8; MAX_KEY_LEN];
        for (i, (&tid, &off)) in tids.iter().zip(&offs).enumerate() {
            assert_eq!(arena.tid_at(off), tid, "tid {i}");
            let len = arena.load_key_into(off, &mut buf);
            let mut want = b"shared/prefix/for/front/coding/".to_vec();
            want.extend_from_slice(format!("{i:04}").as_bytes());
            assert_eq!(&buf[..len], want.as_slice(), "key walk across varint record {i}");
        }
        // mark_dead must account the true varint-sized record length:
        // the MAX_TID record carries a 10-byte varint, not a fixed 8.
        let before = arena.state.lock().expect("leaf arena").dead_bytes;
        arena.mark_dead(offs[tids.len() - 1]);
        let grew = arena.state.lock().expect("leaf arena").dead_bytes - before;
        assert!(grew >= LEAF_HEADER + varint_len(MAX_TID), "grew {grew}");
    }

    #[test]
    fn front_coding_round_trip() {
        let arena = LeafArena::new(DEFAULT_LEAF_CAP);
        let keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| {
                let mut k = b"http://example.com/path/".to_vec();
                k.extend_from_slice(format!("{i:08}").as_bytes());
                k
            })
            .collect();
        let offs: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| arena.append(k, i as u64).expect("append"))
            .collect();
        let mut buf = [0u8; MAX_KEY_LEN];
        let mut scratch = [0u8; MAX_KEY_LEN];
        for (i, (k, &off)) in keys.iter().zip(&offs).enumerate() {
            let len = arena.load_key_into(off, &mut buf);
            assert_eq!(&buf[..len], k.as_slice(), "key {i} reconstruction");
            assert_eq!(arena.tid_at(off), i as u64);
            assert!(arena.equals_key(off, k, &mut scratch));
            assert!(!arena.equals_key(off, b"http://example.com/zzz", &mut scratch));
            let mut short = k.clone();
            short.pop();
            assert!(!arena.equals_key(off, &short, &mut scratch));
        }
    }

    #[test]
    fn front_coding_empty_and_boundary_keys() {
        let arena = LeafArena::new(DEFAULT_LEAF_CAP);
        // Empty key, then a key that is a pure extension, then a sibling
        // sharing every byte but the last.
        let cases: [&[u8]; 4] = [b"", b"a", b"ab", b"ac"];
        let offs: Vec<u32> = cases
            .iter()
            .enumerate()
            .map(|(i, k)| arena.append(k, 100 + i as u64).expect("append"))
            .collect();
        let mut buf = [0u8; MAX_KEY_LEN];
        for (i, (k, &off)) in cases.iter().zip(&offs).enumerate() {
            let len = arena.load_key_into(off, &mut buf);
            assert_eq!(&buf[..len], *k);
            assert_eq!(arena.tid_at(off), 100 + i as u64);
        }
    }

    #[test]
    fn compact_basic_ops() {
        let mut trie = CompactHot::new();
        assert!(trie.is_empty());
        assert_eq!(trie.get(b"missing"), None);
        for i in 0..2000u64 {
            let key = format!("key-{i:06}");
            assert_eq!(trie.insert(key.as_bytes(), i), None);
        }
        assert_eq!(trie.len(), 2000);
        for i in 0..2000u64 {
            let key = format!("key-{i:06}");
            assert_eq!(trie.get(key.as_bytes()), Some(i), "{key}");
        }
        // Upserts return the previous TID and keep len stable.
        assert_eq!(trie.insert(b"key-000007", 9999), Some(7));
        assert_eq!(trie.get(b"key-000007"), Some(9999));
        assert_eq!(trie.len(), 2000);
        trie.check_invariants();
        let collected: Vec<u64> = trie.iter().collect();
        assert_eq!(collected.len(), 2000);
        assert!(collected.windows(2).all(|w| {
            let a = if w[0] == 9999 { 7 } else { w[0] };
            let b = if w[1] == 9999 { 7 } else { w[1] };
            a < b
        }));
        // Removals.
        for i in (0..2000u64).step_by(3) {
            let key = format!("key-{i:06}");
            let expect = if i == 7 { 9999 } else { i };
            assert_eq!(trie.remove(key.as_bytes()), Some(expect), "{key}");
        }
        assert_eq!(trie.len(), 2000 - 2000_usize.div_ceil(3));
        for i in 0..2000u64 {
            let key = format!("key-{i:06}");
            let got = trie.get(key.as_bytes());
            if i % 3 == 0 {
                assert_eq!(got, None);
            } else if i == 7 {
                assert_eq!(got, Some(9999));
            } else {
                assert_eq!(got, Some(i));
            }
        }
        trie.check_invariants();
    }

    #[test]
    fn node_arena_exhaustion_is_typed_and_rolls_back() {
        // A one-slab node ceiling fills quickly; the failing insert must
        // leave the tree readable and structurally unchanged.
        let mut trie = CompactHot::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP);
        let mut inserted = 0u64;
        let err = loop {
            let key = format!("key-{inserted:08}");
            match trie.try_insert(key.as_bytes(), inserted) {
                Ok(None) => inserted += 1,
                Ok(Some(_)) => panic!("unexpected upsert"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind, ArenaKind::Node);
        assert!(inserted > 0);
        // The failing insert rolled back completely: len unchanged, every
        // key still readable, invariants intact. (Rolled-back blocks land
        // on the free list, so a *later* insert may legitimately succeed.)
        assert_eq!(trie.len(), inserted as usize);
        for i in 0..inserted {
            let key = format!("key-{i:08}");
            assert_eq!(trie.get(key.as_bytes()), Some(i));
        }
        trie.check_invariants();
        // Removal frees node blocks, making room again.
        let victim = format!("key-{:08}", 0);
        assert_eq!(trie.remove(victim.as_bytes()), Some(0));
        assert!(trie.try_insert(victim.as_bytes(), 0).is_ok());
    }

    #[test]
    fn leaf_arena_exhaustion_is_typed() {
        let mut trie = CompactHot::with_capacity(DEFAULT_NODE_CAP, SLAB_BYTES);
        let mut inserted = 0u64;
        let err = loop {
            // Long, shared-prefix-free keys to burn leaf bytes fast.
            let key = format!("{:032x}-{}", inserted.wrapping_mul(0x9E37_79B9_7F4A_7C15), "x".repeat(180));
            match trie.try_insert(key.as_bytes(), inserted) {
                Ok(_) => inserted += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind, ArenaKind::Leaf);
        assert_eq!(trie.len(), inserted as usize);
        trie.check_invariants();
    }

    #[test]
    fn compact_bulk_matches_incremental() {
        let keys: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| format!("bulk/{:06}", i * 7 % 3000).into_bytes())
            .collect();
        let mut sorted: Vec<(Vec<u8>, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64))
            .collect();
        sorted.sort();
        let mut bulk = CompactHot::new();
        let n = bulk.bulk_load(&sorted).expect("bulk load");
        assert_eq!(n, 3000);
        let mut incr = CompactHot::new();
        for (k, v) in &sorted {
            incr.insert(k, *v);
        }
        assert_eq!(bulk.structure_digest(), incr.structure_digest());
        bulk.check_invariants();
        for (k, v) in &sorted {
            assert_eq!(bulk.get(k), Some(*v));
        }
        assert!(bulk.bulk_load(&sorted).is_err(), "NotEmpty expected");
    }

    #[test]
    fn compact_scan_and_range() {
        let mut trie = CompactHot::new();
        for i in 0..512u64 {
            trie.insert(format!("scan:{i:04}").as_bytes(), i);
        }
        let hits = trie.scan(b"scan:0100", 10);
        assert_eq!(hits, (100..110).collect::<Vec<u64>>());
        let from: Vec<u64> = trie.range_from(b"scan:0500").collect();
        assert_eq!(from, (500..512).collect::<Vec<u64>>());
        // Between-keys start position.
        let between = trie.scan(b"scan:00995", 3);
        assert_eq!(between, vec![100, 101, 102]);
        let mut batch_out = vec![None; 512];
        let batch_keys: Vec<String> = (0..512).map(|i| format!("scan:{i:04}")).collect();
        trie.get_batch(&batch_keys, &mut batch_out);
        for (i, r) in batch_out.iter().enumerate() {
            assert_eq!(*r, Some(i as u64));
        }
    }
}
