//! Bit-manipulation and SIMD primitives for the Height Optimized Trie.
//!
//! This crate isolates every piece of "bit wizardry" the HOT node layout
//! (Section 4 of the paper) relies on:
//!
//! * [`pext64`] / [`pdep64`] — the BMI2 parallel bit extract/deposit
//!   instructions used for dense-partial-key extraction and sparse-partial-key
//!   recoding, with portable scalar fallbacks that are bit-for-bit equivalent
//!   (verified by property tests);
//! * [`bitpos`] — MSB-first bit addressing over byte-string keys (position 0
//!   is the most significant bit of the first byte), mismatch detection, and
//!   the mapping between *key bit positions* and *extracted partial-key bit
//!   indices*;
//! * [`search`] — the data-parallel "find the highest-index sparse partial
//!   key that is a subset of the dense search key" primitive for 8-, 16- and
//!   32-bit partial keys (AVX2 with scalar fallback);
//! * [`isa`] — the [`Kernel`] a descent loop is instantiated over, chosen
//!   once per call from the detected [`Features`].
//!
//! # Bit-order convention
//!
//! Keys are byte strings compared lexicographically. Bit position `p` refers
//! to bit `7 - (p % 8)` of byte `p / 8`, so positions increase from the most
//! significant bit onward and the natural integer order of *dense* partial
//! keys equals the lexicographic order of the underlying keys restricted to
//! the discriminative positions. Concretely, for a node with `m`
//! discriminative positions `p_0 < p_1 < … < p_{m-1}`, the bit of position
//! `p_r` lives at partial-key bit index `m - 1 - r` (the earliest — most
//! significant — key position occupies the most significant partial-key bit).
//!
//! To make `PEXT` produce exactly this layout, 8-byte key windows are loaded
//! **big-endian** ([`load_be_u64`]): byte `o` of the key occupies bits 56–63
//! of the window word, so increasing key-bit position corresponds to
//! decreasing window-bit index, and `PEXT` (which packs from the mask's least
//! significant end) emits the *latest* position into bit 0 — precisely the
//! `m - 1 - r` mapping.

#![deny(missing_docs)]

pub mod bitpos;
pub mod features;
pub mod isa;
pub mod pext;
pub mod search;

pub use bitpos::{bit_at, first_mismatch_bit, load_be_u64};
pub use features::{features, Features};
#[cfg(target_arch = "x86_64")]
pub use isa::Avx2;
pub use isa::{Isa, Kernel, Portable};
pub use pext::{pdep64, pext64};
pub use search::{match_prefix_u16, match_prefix_u32, match_prefix_u8};

/// Prefetch the cache line containing `ptr` (and the following ones) into all
/// cache levels.
///
/// HOT prefetches the first four cache lines of a node before dispatching on
/// the node type (Section 4.5) so that the memory access overlaps the branch
/// resolution. On non-x86 targets this is a no-op.
#[inline(always)]
pub fn prefetch_node(ptr: *const u8, lines: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is architecturally a hint and cannot fault, and
    // wrapping_add avoids pointer-arithmetic UB for out-of-object lines.
    unsafe {
        for i in 0..lines {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                ptr.wrapping_add(i * 64) as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ptr, lines);
    }
}

/// Prefetch the single cache line containing `ptr` into all cache levels.
///
/// Used by the batched-lookup engine to overlap the *next* dependent load of
/// every in-flight descent (node headers, tuple key records) while other
/// group members execute; see `hot_core::batch`. On non-x86 targets this is
/// a no-op.
#[inline(always)]
pub fn prefetch_read(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is architecturally a hint and cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::{prefetch_node, prefetch_read};

    #[test]
    fn prefetch_is_a_pure_hint() {
        // Prefetching must never fault or mutate — including on dangling,
        // null, and unaligned addresses (descents prefetch speculatively).
        let data = [0xA5u8; 256];
        prefetch_read(data.as_ptr());
        prefetch_read(data.as_ptr().wrapping_add(3));
        prefetch_read(std::ptr::null());
        prefetch_read(usize::MAX as *const u8);
        prefetch_node(data.as_ptr(), 4);
        prefetch_node(std::ptr::null(), 4);
        assert!(data.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn prefetch_zero_lines_is_noop() {
        prefetch_node([1u8].as_ptr(), 0);
    }
}
