//! TID → key resolution.
//!
//! Patricia-style tries skip non-discriminative bits, so a lookup that
//! reaches a leaf must compare the search key against the leaf's *full* key
//! (Listing 2, line 7 of the paper). In a main-memory DBMS that key lives in
//! the base tuple addressed by the TID; [`KeySource`] abstracts that
//! resolution so that all index structures in this workspace share one
//! convention:
//!
//! * [`EmbeddedKeySource`] — the TID *is* the key (up to 63-bit integers,
//!   encoded big-endian), mirroring the paper's embedding of keys ≤ 8 bytes;
//! * [`ArenaKeySource`] — TIDs index a caller-owned append-only tuple arena,
//!   mirroring string keys resolved from the record store.

use crate::encode::encode_u64;
use crate::{MAX_KEY_LEN, MAX_TID};

/// Scratch buffer length for [`KeySource::load_key`] (large enough for any
/// embedded fixed-width encoding).
pub const KEY_SCRATCH_LEN: usize = 16;

/// Resolve the key bytes for a tuple identifier.
///
/// Implementations must be cheap and, for the concurrent index, callable from
/// many threads simultaneously (`Sync`). A TID handed to `load_key` is always
/// one previously inserted into the index, with the leaf tag bit cleared.
pub trait KeySource: Sync {
    /// Return the full key for `tid`. Implementations either reference
    /// storage they own or encode into `scratch` and return a slice of it.
    fn load_key<'a>(&'a self, tid: u64, scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8];

    /// Compare the key stored under `tid` with `key`.
    ///
    /// Comparison-based structures (the B+-tree baseline) call this on every
    /// node visited — the paper's STX-B+-tree setup, where slots hold TIDs
    /// and long keys are resolved through the tuple store. Sources with
    /// embedded keys override this with a direct integer comparison.
    #[inline]
    fn cmp_tid_key(&self, tid: u64, key: &[u8]) -> std::cmp::Ordering {
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        self.load_key(tid, &mut scratch).cmp(key)
    }

    /// Hint that `load_key(tid, ..)` is about to be called, so the tuple
    /// memory can be prefetched while other work proceeds.
    ///
    /// The batched descent engine (`hot_core`'s `get_batch`) issues this
    /// for every leaf it reaches, then verifies all keys of the group
    /// afterwards — overlapping what would otherwise be one serial cache
    /// miss per key.
    /// Sources that materialize keys from the TID itself (no memory
    /// dereference) keep the default no-op.
    #[inline]
    fn prefetch_key(&self, tid: u64) {
        let _ = tid;
    }
}

/// Key source for keys embedded directly in the TID: the key is the 8-byte
/// big-endian encoding of the (≤ 63-bit) TID value.
///
/// With this source the index stores *no* per-key heap data at all — exactly
/// how the paper reaches 11–14 bytes/key for the integer data set.
#[derive(Debug, Default, Clone, Copy)]
pub struct EmbeddedKeySource;

impl KeySource for EmbeddedKeySource {
    #[inline]
    fn load_key<'a>(&'a self, tid: u64, scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8] {
        debug_assert!(tid <= MAX_TID);
        scratch[..8].copy_from_slice(&encode_u64(tid));
        &scratch[..8]
    }

    #[inline]
    fn cmp_tid_key(&self, tid: u64, key: &[u8]) -> std::cmp::Ordering {
        if key.len() == 8 {
            // Big-endian encoding preserves order: compare natively.
            let probe = u64::from_be_bytes(key.try_into().expect("len checked"));
            tid.cmp(&probe)
        } else {
            encode_u64(tid).as_slice().cmp(key)
        }
    }
}

/// An append-only arena of variable-length keys; the TID is the key's byte
/// offset in the arena.
///
/// This stands in for the DBMS tuple store: `push` appends a length-prefixed
/// key record and returns the TID the index should store; `load_key` is a
/// single bounds-checked slice into the arena — one pointer dereference,
/// exactly like resolving an in-memory tuple (keys up to 64 bytes typically
/// cost one cache miss).
#[derive(Debug, Default)]
pub struct ArenaKeySource {
    /// Length-prefixed records: `[len: u8][key bytes…]` back to back.
    data: Vec<u8>,
    count: usize,
}

impl ArenaKeySource {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an arena with preallocated capacity for `keys` keys of
    /// `avg_len` average length.
    ///
    /// The 2 MiB-aligned interior of the buffer is advised onto huge pages:
    /// a lookup misses into it once per key, at a random record, so at
    /// 4 KiB pages a large arena costs a page walk per lookup on top of the
    /// miss (DESIGN.md §3.7). The advice is a hint; refused, the buffer
    /// stays on 4 KiB pages.
    pub fn with_capacity(keys: usize, avg_len: usize) -> Self {
        let data = Vec::with_capacity(keys * (avg_len + 1));
        let _ = hot_bits::advise_huge_pages(data.as_ptr(), data.capacity());
        ArenaKeySource { data, count: 0 }
    }

    /// Append a key and return its TID (the record's byte offset).
    ///
    /// # Panics
    /// Panics if the key exceeds [`MAX_KEY_LEN`] or the arena would exceed
    /// the TID space.
    pub fn push(&mut self, key: &[u8]) -> u64 {
        assert!(key.len() <= MAX_KEY_LEN);
        let tid = self.data.len() as u64;
        assert!(tid <= MAX_TID);
        self.data.push(key.len() as u8);
        self.data.extend_from_slice(key);
        self.count += 1;
        tid
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The key stored under `tid`.
    #[inline]
    pub fn key(&self, tid: u64) -> &[u8] {
        let offset = tid as usize;
        let len = self.data[offset] as usize;
        &self.data[offset + 1..offset + 1 + len]
    }

    /// The key stored under `tid`, or `None` when `tid` does not name a
    /// record inside the arena — the validation gate for TIDs arriving
    /// from an untrusted source (the wire protocol's PUT frames): a
    /// bogus offset must be rejected, not dereferenced.
    ///
    /// An offset is only accepted when its length prefix fits entirely
    /// inside the arena; an offset pointing *into* a record's key bytes
    /// is indistinguishable from a record header by construction, so the
    /// caller must also compare the returned key against the claimed one
    /// (the server does) before trusting the TID.
    pub fn try_key(&self, tid: u64) -> Option<&[u8]> {
        let offset = usize::try_from(tid).ok()?;
        let len = *self.data.get(offset)? as usize;
        self.data.get(offset + 1..offset + 1 + len)
    }

    /// Total bytes of raw key data, excluding the length prefixes (the
    /// paper's "raw key" line in Figure 9).
    pub fn raw_key_bytes(&self) -> usize {
        self.data.len() - self.count
    }

    /// Allocator-level bytes held by the key store: the record `Vec`'s
    /// reserved capacity, length prefixes and growth slack included. This
    /// is the tuple-store side of a TID-only index's total footprint — the
    /// storage a heap-backed trie still needs at lookup time to resolve a
    /// TID back into its key.
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity()
    }
}

impl KeySource for ArenaKeySource {
    #[inline]
    fn load_key<'a>(&'a self, tid: u64, _scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8] {
        self.key(tid)
    }

    #[inline]
    fn prefetch_key(&self, tid: u64) {
        // Records start at arbitrary offsets, so a url record (≈ 56 bytes)
        // straddles two lines more often than not: fetch the line of the
        // length prefix and the one after it.
        hot_bits::prefetch_node(self.data.as_ptr().wrapping_add(tid as usize), 2);
    }
}

/// Adapter making `&S` a key source (lets index structures borrow a shared
/// arena instead of owning it).
impl<S: KeySource + ?Sized> KeySource for &S {
    #[inline]
    fn load_key<'a>(&'a self, tid: u64, scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8] {
        (**self).load_key(tid, scratch)
    }

    #[inline]
    fn cmp_tid_key(&self, tid: u64, key: &[u8]) -> std::cmp::Ordering {
        (**self).cmp_tid_key(tid, key)
    }

    #[inline]
    fn prefetch_key(&self, tid: u64) {
        (**self).prefetch_key(tid)
    }
}

impl<S: KeySource + Send + ?Sized> KeySource for std::sync::Arc<S> {
    #[inline]
    fn load_key<'a>(&'a self, tid: u64, scratch: &'a mut [u8; KEY_SCRATCH_LEN]) -> &'a [u8] {
        (**self).load_key(tid, scratch)
    }

    #[inline]
    fn cmp_tid_key(&self, tid: u64, key: &[u8]) -> std::cmp::Ordering {
        (**self).cmp_tid_key(tid, key)
    }

    #[inline]
    fn prefetch_key(&self, tid: u64) {
        (**self).prefetch_key(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_source_encodes_big_endian() {
        let src = EmbeddedKeySource;
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        assert_eq!(src.load_key(0x0102, &mut scratch), &encode_u64(0x0102));
        let mut scratch2 = [0u8; KEY_SCRATCH_LEN];
        assert_eq!(src.load_key(MAX_TID, &mut scratch2), &encode_u64(MAX_TID));
    }

    #[test]
    fn embedded_source_preserves_order() {
        let src = EmbeddedKeySource;
        let mut s1 = [0u8; KEY_SCRATCH_LEN];
        let mut s2 = [0u8; KEY_SCRATCH_LEN];
        let a = src.load_key(100, &mut s1).to_vec();
        let b = src.load_key(200, &mut s2).to_vec();
        assert!(a < b);
    }

    #[test]
    fn arena_roundtrip() {
        let mut arena = ArenaKeySource::new();
        let t1 = arena.push(b"alpha");
        let t2 = arena.push(b"beta");
        let t3 = arena.push(b"");
        // TIDs are record offsets: 0, 1+5, 1+5+1+4.
        assert_eq!((t1, t2, t3), (0, 6, 11));
        assert_eq!(arena.key(t1), b"alpha");
        assert_eq!(arena.key(t2), b"beta");
        assert_eq!(arena.key(t3), b"");
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.raw_key_bytes(), 9);
    }

    #[test]
    fn arena_as_key_source() {
        let mut arena = ArenaKeySource::new();
        let tid = arena.push(b"hello world");
        let mut scratch = [0u8; KEY_SCRATCH_LEN];
        assert_eq!(arena.load_key(tid, &mut scratch), b"hello world");
        // Through a shared reference too.
        let by_ref: &ArenaKeySource = &arena;
        let mut scratch2 = [0u8; KEY_SCRATCH_LEN];
        assert_eq!(by_ref.load_key(tid, &mut scratch2), b"hello world");
    }
}
