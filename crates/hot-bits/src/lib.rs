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
#![warn(unreachable_pub)]

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
/// Used by the batched descent engine to overlap the *next* dependent load
/// of every in-flight descent (node headers, tuple key records) while other
/// group members execute (DESIGN.md §9). On non-x86 targets
/// this is a no-op.
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

/// Size and alignment of an x86-64 transparent huge page.
pub const HUGE_PAGE_BYTES: usize = 2 << 20;

/// Ask the kernel to back the whole [`HUGE_PAGE_BYTES`]-aligned pages inside
/// `ptr .. ptr + len` with transparent huge pages (`madvise(MADV_HUGEPAGE)`),
/// so that one TLB entry covers 2 MiB of them instead of 4 KiB.
///
/// Advice only: the contents of the range never change, and pages already
/// touched stay as they are until the kernel collapses them. Returns what
/// the kernel reports, except `EINVAL`, its answer when it was built without
/// transparent huge pages. A no-op off Linux, under Miri, and when the range
/// holds no whole aligned page.
pub fn advise_huge_pages(ptr: *const u8, len: usize) -> std::io::Result<()> {
    let start = ptr.addr().next_multiple_of(HUGE_PAGE_BYTES);
    let end = ptr.addr().saturating_add(len) & !(HUGE_PAGE_BYTES - 1);
    if start >= end {
        return Ok(());
    }
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        const MADV_HUGEPAGE: i32 = 14;
        const EINVAL: i32 = 22;
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        let aligned = ptr.wrapping_add(start - ptr.addr());
        // SAFETY: `MADV_HUGEPAGE` only sets a flag on the mappings covering
        // the range; it neither moves, frees nor rewrites a byte of it.
        if unsafe { madvise(aligned as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE) } != 0 {
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() != Some(EINVAL) {
                return Err(err);
            }
        }
    }
    Ok(())
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

#[cfg(test)]
mod huge_page_tests {
    use super::{advise_huge_pages, HUGE_PAGE_BYTES};

    #[test]
    fn advice_leaves_the_contents_alone() {
        let mut buf = vec![0u8; 3 * HUGE_PAGE_BYTES];
        buf[HUGE_PAGE_BYTES + 7] = 7;
        advise_huge_pages(buf.as_ptr(), buf.len()).expect("advice on a live heap buffer");
        assert_eq!(buf[HUGE_PAGE_BYTES + 7], 7);
        assert_eq!(buf.iter().map(|&b| b as usize).sum::<usize>(), 7);
    }

    #[test]
    fn a_range_without_a_whole_page_is_not_advised() {
        // Not mapped at all: were it passed to the kernel, the answer
        // would be an error.
        let p = std::ptr::null::<u8>().wrapping_add(HUGE_PAGE_BYTES + 1);
        assert!(advise_huge_pages(p, HUGE_PAGE_BYTES).is_ok());
        assert!(advise_huge_pages(std::ptr::null(), 0).is_ok());
    }
}
