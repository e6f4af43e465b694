//! Arena-backed compact trie layout (DESIGN.md §16).
//!
//! epoch-exempt: the store resolves arena blocks the caller already
//! protects (epoch pin in `ConcurrentCompact`, `&mut` exclusivity in
//! `CompactHot`, or private pre-publish builds) — liveness is established a
//! layer above, exactly as for the heap node primitives.
//!
//! The heap backend spends 8 bytes per child pointer and resolves every
//! full-key comparison through an external [`KeySource`](hot_keys::KeySource)
//! — an extra dependent cache miss per verify. This module is the other
//! [`NodeStore`]: what is genuinely different about it — the reference
//! word, the two arenas, the record codec — and nothing of the trie
//! algorithms or the node codec, which run over either store (`node`,
//! `trie.rs`, `bulk.rs`, `scan.rs`, `mlp.rs`): for nodes, the store hands
//! out and takes back 8-byte-granular blocks. It replaces both costs:
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
//! Any number of writers: [`CompactHot`] has one by `&mut self`,
//! [`ConcurrentCompact`](crate::sync::ConcurrentCompact) as many as ROWEX's
//! per-node locks let through. Block allocation and record append are each
//! serialized by the arena's own mutex (front coding needs one total append
//! order anyway); what a block or record *holds* is written outside it, by
//! the one operation that owns the block until it publishes. Which blocks an
//! operation took is that operation's state
//! ([`Writer`](crate::trie::Writer)), so a failed operation gives back its
//! own blocks and nobody else's.
//!
//! Readers are lock-free: a record's bytes are fully written *before* the
//! `CRef` naming it is published with Release ordering (a child-slot or root
//! store), and a front-coding chain only ever walks records appended
//! *before* its target — under the append mutex, whichever thread appended
//! them — so an Acquire load of any published `CRef` makes every byte the
//! read touches visible. Leaf bytes are never reused (upserts and removals
//! only mark records dead for accounting); only node blocks recycle, and
//! their frees are epoch-deferred by the concurrent front-end.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Mutex;
// The slab table deliberately stays on std atomics (not the sync_shim): the
// loom models cover the ROWEX protocol words — lock words, value slots, the
// root — which are the shim's in either back-end, and the shim has no
// AtomicPtr. The table is TSan-checked instead; every site is manifested in
// lint/atomics.toml.
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::node::{CompactSlot, NodeTag, RawNode, TreeRef};
use crate::store::NodeStore;
use crate::trie::Trie;
use hot_keys::MemoryStats;
use hot_keys::{MAX_KEY_LEN, MAX_TID};

/// Slab size for both arenas: 1 MiB — large enough that boundary padding is
/// noise, small enough that capacity tracks live data closely.
const SLAB_BYTES: usize = 1 << 20;

/// Node-arena allocation granule (offsets are stored in these units).
pub(crate) const NODE_UNIT: usize = 8;

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
#[repr(transparent)]
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
        debug_assert!(
            (1..NODE_UNIT_LIMIT).contains(&units),
            "unit offset in range"
        );
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

impl TreeRef for CRef {
    const NULL: CRef = CRef::NULL;
    #[inline(always)]
    fn from_word(w: u64) -> CRef {
        debug_assert!(w <= u32::MAX as u64, "compact value word overflows 32 bits");
        CRef(w as u32)
    }
    #[inline(always)]
    fn word(self) -> u64 {
        self.0 as u64
    }
    #[inline(always)]
    fn is_null(self) -> bool {
        CRef::is_null(self)
    }
    #[inline(always)]
    fn is_leaf(self) -> bool {
        CRef::is_leaf(self)
    }
    #[inline(always)]
    fn is_node(self) -> bool {
        CRef::is_node(self)
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
/// [`ConcurrentCompact`](crate::sync::ConcurrentCompact) instance (the
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
    pub(crate) fn capacity_bytes(&self) -> usize {
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

/// Allocator bookkeeping of the node arena (under the arena's own mutex).
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

impl NodeArenaState {
    /// Put the block at `units_off` on its size class's free list.
    fn release(&mut self, units_off: u32, bytes: usize) {
        let units_len = bytes / NODE_UNIT;
        if self.free.len() <= units_len {
            self.free.resize_with(units_len + 1, Vec::new);
        }
        self.free[units_len].push(units_off);
        self.live_bytes -= bytes;
        self.live_nodes -= 1;
    }
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
        self.state
            .lock()
            .expect("node arena poisoned")
            .release(units_off, bytes);
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

/// Append state of the leaf arena (under the arena's own mutex: front
/// coding needs one total append order, whoever appends).
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
            debug_assert!(
                d <= u16::MAX as u32,
                "restart chain span fits the u16 delta"
            );
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

/// The arena back-end: both slab arenas. The tries over it are
/// [`CompactHot`] (exclusive) and
/// [`ConcurrentCompact`](crate::sync::ConcurrentCompact) (shared, ROWEX
/// writers); the root word belongs to them, not to the store.
pub struct ArenaStore {
    nodes: NodeArena,
    leaves: LeafArena,
}

impl ArenaStore {
    pub(crate) fn new(node_cap: usize, leaf_cap: usize) -> ArenaStore {
        ArenaStore {
            nodes: NodeArena::new(node_cap),
            leaves: LeafArena::new(leaf_cap),
        }
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
}

impl NodeStore for ArenaStore {
    type Ref = CRef;
    type Slot = CompactSlot;
    type Full = ArenaFull;
    type KeyBuf = [u8; MAX_KEY_LEN];

    #[inline(always)]
    fn key_buf() -> Self::KeyBuf {
        [0u8; MAX_KEY_LEN]
    }

    /// The compact analogue of the heap's tagged-pointer decode: tag from
    /// the offset word, body in the arena.
    #[inline(always)]
    fn raw(&self, r: CRef) -> RawNode {
        RawNode {
            base: self.nodes.ptr(r.units()),
            tag: r.tag(),
        }
    }

    #[inline(always)]
    fn leaf_tid(&self, leaf: CRef) -> u64 {
        self.leaves.tid_at(leaf.leaf_off())
    }

    #[inline]
    fn leaf_key<'a>(&'a self, leaf: CRef, buf: &'a mut Self::KeyBuf) -> &'a [u8] {
        let len = self.leaves.load_key_into(leaf.leaf_off(), buf);
        &buf[..len]
    }

    /// Header, suffix head and TID share the record's first lines.
    #[inline(always)]
    fn prefetch_leaf(&self, leaf: CRef) {
        hot_bits::prefetch_read(self.leaves.rec_ptr(leaf.leaf_off()));
    }

    /// The final hop and the verify land on the same lines: the staged
    /// record compare instead of a full key reconstruction.
    #[inline]
    fn verify(&self, leaf: CRef, key: &[u8]) -> Option<u64> {
        let off = leaf.leaf_off();
        self.leaves
            .equals_key(off, key, &mut Self::key_buf())
            .then(|| self.leaves.tid_at(off))
    }

    fn new_leaf(&self, key: &[u8], tid: u64) -> Result<CRef, ArenaFull> {
        self.leaves.append(key, tid).map(CRef::leaf)
    }

    fn alloc_node(&self, tag: NodeTag, bytes: usize) -> Result<CRef, ArenaFull> {
        self.nodes.alloc(bytes).map(|units| CRef::node(units, tag))
    }

    /// # Safety
    /// As [`NodeStore::free_node`].
    unsafe fn free_node(&self, node: CRef, bytes: usize) {
        self.nodes.free(node.units(), bytes);
    }

    /// Bytes are never reused — the record may still serve front-coding
    /// chains of its neighbours; it only leaves the live accounting.
    fn drop_leaf(&self, leaf: CRef) {
        self.leaves.mark_dead(leaf.leaf_off());
    }

    /// # Safety
    /// As [`NodeStore::drop_tree`] (nothing to do: the slabs go with the
    /// store).
    unsafe fn drop_tree(&self, _root: CRef) {}

    /// Live node bytes, live leaf-record bytes as `aux_bytes` (this store
    /// holds the keys inline), and the arenas' reserved slab memory as
    /// `capacity_bytes`.
    fn memory_stats(&self, key_count: usize) -> MemoryStats {
        let stats = self.arena_stats();
        MemoryStats {
            node_bytes: stats.node_live_bytes,
            node_count: stats.node_live_count,
            aux_bytes: stats.leaf_tail_bytes - stats.leaf_dead_bytes,
            key_count,
            capacity_bytes: stats.capacity_bytes(),
        }
    }
}

/// Arena-backed HOT trie: nodes and front-coded leaf records live in slab
/// arenas addressed by 32-bit offset words, so child arrays are half the
/// size of the heap backend's and the final descent hop lands on the key
/// bytes it must verify.
///
/// The same [`Trie`] as [`HotTrie`](crate::HotTrie), over the other store:
/// same API, structurally identical trees (asserted by the differential
/// suite via [`structure_digest`](Trie::structure_digest) equality). It
/// trades the external `KeySource` for inline records and 32-bit
/// references to cut bytes/key; mutations that would exceed an arena
/// ceiling fail with a typed [`ArenaFull`] through `try_insert` /
/// `try_remove`.
pub type CompactHot = Trie<ArenaStore>;

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
            assert_eq!(
                &buf[..len],
                want.as_slice(),
                "key walk across varint record {i}"
            );
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

        // The insert that meets the ceiling is one the fused path serves:
        // 0xC0 differs from 0x80 first at bit 1, a position the root node
        // already has, and the root has room at a stable key width.
        let mut trie = CompactHot::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP);
        for key in [0x00u8, 0x40, 0x80] {
            assert_eq!(trie.try_insert(&[key], key.into()), Ok(None));
        }
        let store = trie.store();
        let root = store.raw(trie.load_root());
        assert_eq!((root.count(), root.positions()), (3, vec![0, 1]));
        drain_nodes(store);
        let (digest, before) = (trie.structure_digest(), trie.arena_stats());
        let err = trie
            .try_insert(&[0xC0], 0xC0)
            .expect_err("no node block is left");
        assert_eq!(err.kind, ArenaKind::Node);
        assert_eq!(trie.structure_digest(), digest);
        let after = trie.arena_stats();
        assert_eq!(
            (after.node_live_bytes, after.node_live_count),
            (before.node_live_bytes, before.node_live_count)
        );
        assert_eq!((trie.get(&[0x80]), trie.get(&[0xC0])), (Some(0x80), None));
        trie.check_invariants();
    }

    /// Take every node block the arena still has — its free lists, then
    /// the rest of its slabs — and return them as `(units, bytes)`.
    fn drain_nodes(store: &ArenaStore) -> Vec<(u32, usize)> {
        let free: Vec<usize> = store
            .nodes
            .state
            .lock()
            .unwrap()
            .free
            .iter()
            .map(Vec::len)
            .collect();
        let mut held = Vec::new();
        for (units, &blocks) in free.iter().enumerate() {
            for _ in 0..blocks {
                held.push((
                    store.nodes.alloc(units * NODE_UNIT).expect("a free block"),
                    units * NODE_UNIT,
                ));
            }
        }
        while let Ok(off) = store.nodes.alloc(NODE_UNIT) {
            held.push((off, NODE_UNIT));
        }
        held
    }

    /// The entry counts of the nodes on `key`'s descent path, root first.
    fn path_counts(store: &ArenaStore, root: CRef, key: &[u8]) -> Vec<usize> {
        let mut path = Vec::new();
        crate::node::descend(store, root, &hot_keys::PaddedKey::from_key(key), &mut path);
        path.iter()
            .map(|&(node, _)| store.raw(CRef::from_word(node)).count())
            .collect()
    }

    /// A remove whose copy-on-write finds no node block fails typed and
    /// leaves the tree as it was; given back one block of the size it
    /// asked for, the same remove succeeds. Both arms that allocate are
    /// met — `Shrink` (the victim's node keeps three or more entries) and
    /// `Merge` (its node of three dissolves into a parent with room) — in
    /// both access modes.
    #[test]
    fn node_arena_exhaustion_fails_a_remove_and_rolls_back() {
        use crate::sync::{quiesce, ConcurrentCompact};

        /// `Shrink`: four one-byte keys in the root, the victim among them.
        /// `Merge`: 33 keys overflow the root into two nodes under a new
        /// root; removing from the victim's node leaves it three entries.
        macro_rules! setup {
            ($trie:expr, Shrink) => {{
                for key in [0x00u8, 0x40, 0x80, 0xC0] {
                    assert_eq!($trie.try_insert(&[key], key.into()), Ok(None));
                }
                (vec![0x40u8], vec![4])
            }};
            ($trie:expr, Merge) => {{
                for i in 0..33u8 {
                    assert_eq!($trie.try_insert(&[i * 7], i.into()), Ok(None));
                }
                for i in 1..17u8 {
                    assert_eq!($trie.try_remove(&[i * 7]), Ok(Some(i.into())));
                }
                (vec![0x00u8], vec![2, 3])
            }};
        }

        macro_rules! fails_then_succeeds {
            ($trie:expr, $arm:ident) => {{
                let trie = $trie;
                let (victim, counts) = setup!(trie, $arm);
                let tid = trie.get(&victim).expect("the victim is stored");
                assert_eq!(
                    path_counts(trie.store(), trie.load_root(), &victim),
                    counts,
                    stringify!($arm)
                );
                // Deferred frees of the setup land on the free lists now,
                // not behind the drain.
                assert!(quiesce());
                let held = drain_nodes(trie.store());
                let (digest, len, live) = (
                    trie.structure_digest(),
                    trie.len(),
                    trie.arena_stats().node_live_bytes,
                );
                let err = trie.try_remove(&victim).expect_err("no node block is left");
                assert_eq!(err.kind, ArenaKind::Node);
                assert_eq!(
                    (
                        trie.structure_digest(),
                        trie.len(),
                        trie.get(&victim),
                        trie.arena_stats().node_live_bytes
                    ),
                    (digest, len, Some(tid), live),
                    stringify!($arm)
                );
                trie.check_invariants();
                // Give every block back, hold one of the size the remove
                // asked for, drain the rest again, then give back that one.
                let nodes = &trie.store().nodes;
                for (off, bytes) in held {
                    nodes.free(off, bytes);
                }
                let one = nodes
                    .alloc(err.requested)
                    .expect("a block of the requested size");
                drain_nodes(trie.store());
                nodes.free(one, err.requested);
                assert_eq!(trie.try_remove(&victim), Ok(Some(tid)), stringify!($arm));
                assert_eq!((trie.len(), trie.get(&victim)), (len - 1, None));
                trie.check_invariants();
            }};
        }

        fails_then_succeeds!(
            &mut CompactHot::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP),
            Shrink
        );
        fails_then_succeeds!(
            &mut CompactHot::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP),
            Merge
        );
        fails_then_succeeds!(
            &ConcurrentCompact::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP),
            Shrink
        );
        fails_then_succeeds!(
            &ConcurrentCompact::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP),
            Merge
        );
    }

    /// The same ceiling met by two writers at once, a third writing beside
    /// them: each failure is typed and gives back exactly its own blocks.
    #[test]
    fn concurrent_node_arena_exhaustion_is_typed_and_rolls_back_its_own_blocks() {
        use crate::sync::{quiesce, ConcurrentCompact};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        /// Key `i` of writer `t`. No two keys a writer appends in a row,
        /// and no two keys of different writers, share a first byte: every
        /// record is then stored whole whatever the append order, and the
        /// arena's live bytes are a function of the key set alone.
        fn key_of(t: u64, i: u64) -> Vec<u8> {
            format!("{}{i:08}", char::from(b'a' + (2 * t + i % 2) as u8)).into_bytes()
        }
        /// One writer's arrival at the phase boundary, counted when
        /// dropped: on every exit path, a failed assert included, so no
        /// writer waits there forever.
        struct Arrival<'a>(&'a AtomicUsize);
        impl Drop for Arrival<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Release);
            }
        }

        // The ceiling in inserts when nothing is reclaimed: the three
        // writers' keys in turn, under a pin that keeps every retired
        // block in limbo. However the writers below are scheduled, the
        // garbage of their first phase cannot outgrow that.
        let ceiling = {
            let sizing = ConcurrentCompact::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP);
            let pin = crossbeam_epoch::pin();
            let mut n = 0u64;
            while sizing.try_insert(&key_of(n % 3, n / 3), n / 3).is_ok() {
                n += 1;
            }
            drop(pin);
            n
        };
        // First phase: writers 0 and 1 insert `head` keys each and writer
        // 2 all of its `third`, together half the ceiling, so nobody can
        // meet it. Second phase: writers 0 and 1 fill the arena.
        let (head, third) = (ceiling / 5, ceiling / 10);

        let index = ConcurrentCompact::with_capacity(SLAB_BYTES, DEFAULT_LEAF_CAP);
        // Writer 2's first two keys make the root a node before anyone
        // races: a writer that loses the CAS on a leaf root appends its
        // key again right behind the dead record, front-coded against it.
        for i in 0..2 {
            assert_eq!(index.try_insert(&key_of(2, i), i), Ok(None));
        }
        let arrived = AtomicUsize::new(0);
        let start = Barrier::new(3);
        let inserted: Vec<u64> = std::thread::scope(|scope| {
            let filling: Vec<_> = (0..2u64)
                .map(|t| {
                    let (index, arrived, start) = (&index, &arrived, &start);
                    scope.spawn(move || {
                        let mut arrival = Some(Arrival(arrived));
                        start.wait();
                        let mut i = 0u64;
                        loop {
                            if i == head {
                                drop(arrival.take());
                                while arrived.load(Ordering::Acquire) < 3 {
                                    std::thread::yield_now();
                                }
                            }
                            match index.try_insert(&key_of(t, i), i) {
                                Ok(None) => i += 1,
                                Ok(Some(_)) => panic!("unexpected upsert"),
                                Err(e) => {
                                    assert_eq!(e.kind, ArenaKind::Node);
                                    return i;
                                }
                            }
                        }
                    })
                })
                .collect();
            let arrival = Arrival(&arrived);
            start.wait();
            for i in 2..third {
                assert_eq!(
                    index.try_insert(&key_of(2, i), i),
                    Ok(None),
                    "the third writer is far from the ceiling"
                );
            }
            drop(arrival);
            let mut inserted: Vec<u64> = filling
                .into_iter()
                .map(|w| w.join().expect("writer panicked"))
                .collect();
            inserted.push(third);
            inserted
        });
        // A filling writer stops at its first failed insert: one that got
        // past `head` met the ceiling in the second phase, beside the other.
        assert!(
            inserted[0] >= head && inserted[1] >= head,
            "both writers met the ceiling in the second phase: {inserted:?}"
        );

        // Every failure rolled back completely: the index holds exactly the
        // successful inserts, readable and well-formed…
        assert!(quiesce());
        assert_eq!(index.len() as u64, inserted.iter().sum::<u64>());
        index.check_invariants();
        // …and the arena holds exactly what those inserts need — the blocks
        // of the failed ones are back, nobody else's are: a single thread
        // replaying the successful inserts ends with the same live bytes.
        let mut replay = CompactHot::new();
        for (t, &n) in inserted.iter().enumerate() {
            for i in 0..n {
                assert_eq!(replay.insert(&key_of(t as u64, i), i), None);
                if i % 1_000 == 0 {
                    assert_eq!(index.get(&key_of(t as u64, i)), Some(i));
                }
            }
        }
        assert_eq!(index.structure_digest(), replay.structure_digest());
        let (live, want) = (index.arena_stats(), replay.arena_stats());
        assert_eq!(
            (live.node_live_count, live.leaf_records),
            (want.node_live_count, want.leaf_records)
        );
        assert_eq!(live.live_bytes(), want.live_bytes());
    }

    #[test]
    fn leaf_arena_exhaustion_is_typed() {
        let mut trie = CompactHot::with_capacity(DEFAULT_NODE_CAP, SLAB_BYTES);
        let mut inserted = 0u64;
        let err = loop {
            // Long, shared-prefix-free keys to burn leaf bytes fast.
            let key = format!(
                "{:032x}-{}",
                inserted.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                "x".repeat(180)
            );
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
