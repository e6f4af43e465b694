//! Property tests: hardware-accelerated primitives are bit-for-bit
//! equivalent to the portable scalar implementations, for arbitrary inputs.

use hot_bits::pext::{pdep64_scalar, pext64_scalar};
use hot_bits::search::{
    search_subset_u16_scalar, search_subset_u32_scalar, search_subset_u8_scalar,
};
use hot_bits::{pdep64, pext64, Kernel, Portable};
use proptest::prelude::*;

/// The accelerated kernel's search, or the portable one where the CPU has
/// none (the comparison is then trivially true).
///
/// # Safety
/// As [`Kernel::search_subset`].
unsafe fn kernel_search<const WIDTH: usize>(pkeys: *const u8, n: usize, dense: u32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(k) = hot_bits::Avx2::detect() {
        // SAFETY: forwarded contract.
        return unsafe { k.search_subset::<WIDTH>(pkeys, n, dense) };
    }
    // SAFETY: forwarded contract.
    unsafe { Portable.search_subset::<WIDTH>(pkeys, n, dense) }
}

/// The byte-at-a-time definition `first_mismatch_bit` must keep.
fn first_mismatch_bit_bytewise(a: &[u8], b: &[u8]) -> Option<usize> {
    let (longer, shorter) = if a.len() > b.len() { (a, b) } else { (b, a) };
    (0..longer.len()).find_map(|i| {
        let diff = longer[i] ^ shorter.get(i).copied().unwrap_or(0);
        (diff != 0).then(|| i * 8 + diff.leading_zeros() as usize)
    })
}

proptest! {
    #[test]
    fn pext_dispatch_equals_scalar(x in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pext64(x, mask), pext64_scalar(x, mask));
    }

    #[test]
    fn pdep_dispatch_equals_scalar(x in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pdep64(x, mask), pdep64_scalar(x, mask));
    }

    #[test]
    fn pext_then_pdep_recovers_masked_bits(x in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pdep64(pext64(x, mask), mask), x & mask);
    }

    #[test]
    fn pdep_then_pext_is_identity_on_low_bits(x in any::<u64>(), mask in any::<u64>()) {
        let width = mask.count_ones();
        let low = if width == 64 { x } else { x & ((1u64 << width) - 1) };
        prop_assert_eq!(pext64(pdep64(low, mask), mask), low);
    }

    #[test]
    fn simd_search_u8_equals_scalar(
        pkeys in prop::collection::vec(any::<u8>(), 1..=32),
        dense in any::<u8>(),
    ) {
        let n = pkeys.len();
        let mut padded = [0xCCu8; 32];
        padded[..n].copy_from_slice(&pkeys);
        // SAFETY: `padded` is a 32-entry array and `n <= 32`.
        let simd = unsafe { kernel_search::<1>(padded.as_ptr(), n, dense as u32) };
        prop_assert_eq!(simd, search_subset_u8_scalar(&pkeys, n, dense));
    }

    #[test]
    fn simd_search_u16_equals_scalar(
        pkeys in prop::collection::vec(any::<u16>(), 1..=32),
        dense in any::<u16>(),
    ) {
        let n = pkeys.len();
        let mut padded = [0xCCCCu16; 32];
        padded[..n].copy_from_slice(&pkeys);
        // SAFETY: `padded` is a 32-entry array and `n <= 32`.
        let simd = unsafe { kernel_search::<2>(padded.as_ptr() as *const u8, n, dense as u32) };
        prop_assert_eq!(simd, search_subset_u16_scalar(&pkeys, n, dense));
    }

    #[test]
    fn simd_search_u32_equals_scalar(
        pkeys in prop::collection::vec(any::<u32>(), 1..=32),
        dense in any::<u32>(),
    ) {
        let n = pkeys.len();
        let mut padded = [0xCCCC_CCCCu32; 32];
        padded[..n].copy_from_slice(&pkeys);
        // SAFETY: `padded` is a 32-entry array and `n <= 32`.
        let simd = unsafe { kernel_search::<4>(padded.as_ptr() as *const u8, n, dense) };
        prop_assert_eq!(simd, search_subset_u32_scalar(&pkeys, n, dense));
    }

    #[test]
    fn kernel_pext_equals_scalar(x in any::<u64>(), mask in any::<u64>()) {
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = hot_bits::Avx2::detect() {
            prop_assert_eq!(k.pext64(x, mask), pext64_scalar(x, mask));
        }
        prop_assert_eq!(Portable.pext64(x, mask), pext64_scalar(x, mask));
    }

    #[test]
    fn mismatch_bit_wordwise_equals_bytewise(
        prefix in prop::collection::vec(any::<u8>(), 0..=255),
        tail_a in prop::collection::vec(any::<u8>(), 0..=255),
        tail_b in prop::collection::vec(any::<u8>(), 0..=255),
        zeros in 0usize..=16,
        flip in any::<u8>(),
    ) {
        // A shared prefix makes late mismatches (the word loop, its byte
        // tail, the boundary between them) as likely as early ones.
        let build = |tail: &[u8]| {
            let mut k = prefix.clone();
            k.extend_from_slice(tail);
            k.truncate(255);
            k
        };
        let (a, b) = (build(&tail_a), build(&tail_b));
        prop_assert_eq!(hot_bits::first_mismatch_bit(&a, &b), first_mismatch_bit_bytewise(&a, &b));
        prop_assert_eq!(hot_bits::first_mismatch_bit(&b, &a), first_mismatch_bit_bytewise(&a, &b));

        // Equal up to a zero-extended tail, then one set bit in the tail.
        let mut extended = a.clone();
        extended.resize((a.len() + zeros).min(255), 0);
        prop_assert_eq!(hot_bits::first_mismatch_bit(&a, &extended), None);
        if extended.len() > a.len() {
            *extended.last_mut().expect("non-empty") = flip | 1;
            prop_assert_eq!(
                hot_bits::first_mismatch_bit(&a, &extended),
                first_mismatch_bit_bytewise(&a, &extended)
            );
        }
    }

    #[test]
    fn mismatch_bit_agrees_with_lexicographic_order(
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        match hot_bits::first_mismatch_bit(&a, &b) {
            None => {
                // Equal up to zero padding.
                let max = a.len().max(b.len());
                let pad = |v: &[u8]| {
                    let mut p = v.to_vec();
                    p.resize(max, 0);
                    p
                };
                prop_assert_eq!(pad(&a), pad(&b));
            }
            Some(pos) => {
                let (ba, bb) = (hot_bits::bit_at(&a, pos), hot_bits::bit_at(&b, pos));
                prop_assert_ne!(ba, bb);
                // All earlier positions agree.
                for p in (0..pos).rev().take(64) {
                    prop_assert_eq!(hot_bits::bit_at(&a, p), hot_bits::bit_at(&b, p));
                }
            }
        }
    }
}
