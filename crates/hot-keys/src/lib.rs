//! Shared key plumbing for every index structure in the HOT workspace.
//!
//! The paper's evaluation (Section 6.1) indexes binary-comparable keys and
//! resolves values through 64-bit **tuple identifiers** (TIDs): keys of up to
//! 8 bytes are embedded directly in the TID, longer keys live in an external
//! tuple store the index references. This crate provides:
//!
//! * [`encode`] — order-preserving, prefix-free key encodings (big-endian
//!   integers, NUL-terminated strings, the yago compound-key bit layout);
//! * [`PaddedKey`] — a fixed-size zero-padded key buffer that lets node-level
//!   code read 8-byte windows at any mask offset without bounds checks;
//! * [`KeySource`] — the trait through which tries resolve a TID back to its
//!   key bytes (needed because Patricia-style lookups must verify the
//!   candidate leaf against the full key), with embedded-integer and
//!   arena-backed implementations;
//! * [`sort`] — ordering items by their key bytes ahead of a sorted bulk
//!   load: a parallel sample sort that caches 8 key bytes per entry;
//! * [`DepthStats`] — the leaf-depth histogram used by the Figure 11
//!   experiment, shared across all tree structures.

#![deny(missing_docs)]

pub mod encode;
pub mod sort;
pub mod source;
pub mod stats;

pub use encode::{decode_u64, encode_u32, encode_u64, encode_yago, str_key, KeyError};
pub use sort::sort_by_key;
pub use source::{ArenaKeySource, EmbeddedKeySource, KeySource, KEY_SCRATCH_LEN};
pub use stats::DepthStats;

/// Maximum length, in bytes, of an encoded key.
///
/// Node masks address key bytes with 8-bit offsets, so keys are limited to
/// 256 bytes; the reference C++ implementation has the same bound. One byte
/// is reserved for the string terminator.
pub const MAX_KEY_LEN: usize = 255;

/// Length of the zero-padded key buffer: covers the largest addressable byte
/// offset (255) plus a full 8-byte window.
pub const KEY_PAD_LEN: usize = 264;

/// Largest legal tuple identifier (bit 63 is the leaf tag inside the tries).
pub const MAX_TID: u64 = (1 << 63) - 1;

/// A key copied into a fixed-size, zero-padded buffer.
///
/// All intra-node operations (mask extraction, bit addressing) operate on the
/// padded buffer so that no per-access bounds checks are needed; zero padding
/// is semantically correct because shorter keys sort before their extensions
/// and all stored keys are prefix-free.
#[derive(Clone)]
pub struct PaddedKey {
    buf: [u8; KEY_PAD_LEN],
    len: usize,
}

impl PaddedKey {
    /// An empty padded key.
    #[inline]
    pub fn new() -> Self {
        PaddedKey {
            buf: [0u8; KEY_PAD_LEN],
            len: 0,
        }
    }

    /// Copy `key` into the buffer, zeroing the remainder.
    ///
    /// # Panics
    /// Panics if `key` exceeds [`MAX_KEY_LEN`] bytes; callers validate key
    /// length at the public API boundary.
    #[inline]
    pub fn set(&mut self, key: &[u8]) {
        assert!(key.len() <= MAX_KEY_LEN, "key exceeds MAX_KEY_LEN");
        // Zero only the previously used prefix to keep this O(len).
        let dirty = self.len.max(key.len());
        self.buf[..dirty].fill(0);
        self.buf[..key.len()].copy_from_slice(key);
        self.len = key.len();
    }

    /// Construct directly from a key.
    #[inline]
    pub fn from_key(key: &[u8]) -> Self {
        let mut p = PaddedKey::new();
        p.set(key);
        p
    }

    /// The key bytes (unpadded).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The full zero-padded buffer.
    #[inline]
    pub fn padded(&self) -> &[u8; KEY_PAD_LEN] {
        &self.buf
    }

    /// Key length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for PaddedKey {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PaddedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PaddedKey({:02x?})", self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_key_roundtrip() {
        let mut p = PaddedKey::new();
        p.set(b"hello");
        assert_eq!(p.bytes(), b"hello");
        assert_eq!(p.len(), 5);
        assert_eq!(p.padded()[5], 0);
        assert_eq!(p.padded()[KEY_PAD_LEN - 1], 0);
    }

    #[test]
    fn padded_key_reset_clears_old_bytes() {
        let mut p = PaddedKey::new();
        p.set(b"a-rather-long-key");
        p.set(b"ab");
        assert_eq!(p.bytes(), b"ab");
        // Old tail must be zeroed: padding reads as 0.
        assert!(p.padded()[2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn padded_key_max_len_accepted() {
        let big = vec![0xFFu8; MAX_KEY_LEN];
        let p = PaddedKey::from_key(&big);
        assert_eq!(p.len(), MAX_KEY_LEN);
        // Window loads at the largest offset stay in bounds.
        assert!(p.padded().len() >= MAX_KEY_LEN + 8);
    }

    #[test]
    #[should_panic(expected = "MAX_KEY_LEN")]
    fn padded_key_rejects_oversized() {
        let big = vec![0u8; MAX_KEY_LEN + 1];
        PaddedKey::from_key(&big);
    }
}
