//! Data-parallel sparse-partial-key search (Section 4.3, Listing 2).
//!
//! Given a node's array of *sparse* partial keys and the *dense* partial key
//! extracted from the search key, the result candidate is the entry with the
//! **highest index** whose sparse partial key is a bit-subset of the dense
//! key (`sparse & dense == sparse`). Entries are stored in trie (key) order
//! and the leftmost entry's sparse partial key is always 0, so a match always
//! exists.
//!
//! The AVX2 implementations mirror the paper's `searchPartialKeys*`
//! primitives: one `VPAND` + `VPCMPEQ` + `VPMOVMSKB` sequence per 256-bit
//! chunk, followed by a bit-scan-reverse over the used-entry mask. The
//! descent reaches them through [`Kernel::search_subset`](crate::Kernel),
//! chosen once per call; the portable `*_scalar` functions are the other
//! kernel and the reference the tests compare against.
//!
//! # Safety contract for the raw-pointer entry points
//!
//! The SIMD paths read full 256-bit vectors. Callers must guarantee that at
//! least [`PADDED_BYTES_U8`] / [`PADDED_BYTES_U16`] / [`PADDED_BYTES_U32`]
//! bytes are readable from the partial-key base pointer, even when fewer
//! entries are used (HOT nodes reserve this padding inside the node
//! allocation; the bytes beyond the used entries may hold arbitrary data —
//! they are masked off before the bit scan).

/// Bytes that must be readable from the base pointer for 8-bit partial keys.
pub const PADDED_BYTES_U8: usize = 32;
/// Bytes that must be readable from the base pointer for 16-bit partial keys.
pub const PADDED_BYTES_U16: usize = 64;
/// Bytes that must be readable from the base pointer for 32-bit partial keys.
pub const PADDED_BYTES_U32: usize = 128;

/// Maximum number of entries (= maximum node fanout `k`).
pub const MAX_ENTRIES: usize = 32;

#[inline(always)]
fn used_mask(n: usize) -> u32 {
    debug_assert!((1..=MAX_ENTRIES).contains(&n));
    if n == MAX_ENTRIES {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Portable search over 8-bit sparse partial keys (see module docs).
#[inline]
pub fn search_subset_u8_scalar(pkeys: &[u8], n: usize, dense: u8) -> usize {
    debug_assert!(n <= pkeys.len());
    for i in (0..n).rev() {
        if pkeys[i] & dense == pkeys[i] {
            return i;
        }
    }
    0
}

/// Portable search over 16-bit sparse partial keys.
#[inline]
pub fn search_subset_u16_scalar(pkeys: &[u16], n: usize, dense: u16) -> usize {
    debug_assert!(n <= pkeys.len());
    for i in (0..n).rev() {
        if pkeys[i] & dense == pkeys[i] {
            return i;
        }
    }
    0
}

/// Portable search over 32-bit sparse partial keys.
#[inline]
pub fn search_subset_u32_scalar(pkeys: &[u32], n: usize, dense: u32) -> usize {
    debug_assert!(n <= pkeys.len());
    for i in (0..n).rev() {
        if pkeys[i] & dense == pkeys[i] {
            return i;
        }
    }
    0
}

/// Portable prefix match over 8-bit sparse partial keys: bit `i` of the
/// result is set iff `pkeys[i] & mask == prefix` (see module docs on the
/// range-scan seek).
#[inline]
pub fn match_prefix_u8_scalar(pkeys: &[u8], n: usize, mask: u8, prefix: u8) -> u32 {
    debug_assert!(n <= pkeys.len());
    let mut matches = 0u32;
    for (i, &k) in pkeys.iter().enumerate().take(n) {
        matches |= u32::from(k & mask == prefix) << i;
    }
    matches
}

/// Portable prefix match over 16-bit sparse partial keys.
#[inline]
pub fn match_prefix_u16_scalar(pkeys: &[u16], n: usize, mask: u16, prefix: u16) -> u32 {
    debug_assert!(n <= pkeys.len());
    let mut matches = 0u32;
    for (i, &k) in pkeys.iter().enumerate().take(n) {
        matches |= u32::from(k & mask == prefix) << i;
    }
    matches
}

/// Portable prefix match over 32-bit sparse partial keys.
#[inline]
pub fn match_prefix_u32_scalar(pkeys: &[u32], n: usize, mask: u32, prefix: u32) -> u32 {
    debug_assert!(n <= pkeys.len());
    let mut matches = 0u32;
    for (i, &k) in pkeys.iter().enumerate().take(n) {
        matches |= u32::from(k & mask == prefix) << i;
    }
    matches
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    /// # Safety
    /// AVX2 must be available and 32 bytes must be readable from `pkeys`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn search_u8(pkeys: *const u8, n: usize, dense: u8) -> usize {
        // SAFETY: caller guarantees 32 readable bytes; loadu has no
        // alignment requirement.
        let v = unsafe { _mm256_loadu_si256(pkeys as *const __m256i) };
        let d = _mm256_set1_epi8(dense as i8);
        let selected = _mm256_and_si256(v, d);
        let eq = _mm256_cmpeq_epi8(selected, v);
        let mm = _mm256_movemask_epi8(eq) as u32;
        // Bit 0 stands in for "no match": both answer entry 0.
        let matches = (mm & super::used_mask(n)) | 1;
        31 - matches.leading_zeros() as usize
    }

    /// # Safety
    /// AVX2 must be available and 64 bytes must be readable from `pkeys`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn search_u16(pkeys: *const u16, n: usize, dense: u16) -> usize {
        let d = _mm256_set1_epi16(dense as i16);
        // SAFETY: caller guarantees 64 readable bytes; loadu has no
        // alignment requirement.
        let lo = unsafe { _mm256_loadu_si256(pkeys as *const __m256i) };
        // SAFETY: as above — the second 32-byte half of the same buffer.
        let hi = unsafe { _mm256_loadu_si256((pkeys as *const __m256i).add(1)) };
        let eq_lo = _mm256_cmpeq_epi16(_mm256_and_si256(lo, d), lo);
        let eq_hi = _mm256_cmpeq_epi16(_mm256_and_si256(hi, d), hi);
        // movemask_epi8 yields two identical bits per 16-bit lane.
        let mm = (_mm256_movemask_epi8(eq_lo) as u32 as u64)
            | ((_mm256_movemask_epi8(eq_hi) as u32 as u64) << 32);
        let used = if n == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * n)) - 1
        };
        let matches = (mm & used) | 1;
        (63 - matches.leading_zeros() as usize) / 2
    }

    /// # Safety
    /// AVX2 must be available and 128 bytes must be readable from `pkeys`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn search_u32(pkeys: *const u32, n: usize, dense: u32) -> usize {
        let d = _mm256_set1_epi32(dense as i32);
        let mut matches = 0u32;
        for chunk in 0..4 {
            // SAFETY: caller guarantees 128 readable bytes: four 32-byte
            // chunks; loadu has no alignment requirement.
            let v = unsafe { _mm256_loadu_si256((pkeys as *const __m256i).add(chunk)) };
            let eq = _mm256_cmpeq_epi32(_mm256_and_si256(v, d), v);
            let mm = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
            matches |= mm << (chunk * 8);
        }
        matches = (matches & super::used_mask(n)) | 1;
        31 - matches.leading_zeros() as usize
    }

    /// # Safety
    /// AVX2 must be available and 32 bytes must be readable from `pkeys`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn match_prefix_u8(pkeys: *const u8, n: usize, mask: u8, prefix: u8) -> u32 {
        // SAFETY: caller guarantees 32 readable bytes; loadu has no
        // alignment requirement.
        let v = unsafe { _mm256_loadu_si256(pkeys as *const __m256i) };
        let m = _mm256_set1_epi8(mask as i8);
        let p = _mm256_set1_epi8(prefix as i8);
        let eq = _mm256_cmpeq_epi8(_mm256_and_si256(v, m), p);
        (_mm256_movemask_epi8(eq) as u32) & super::used_mask(n)
    }

    /// # Safety
    /// AVX2 must be available and 64 bytes must be readable from `pkeys`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn match_prefix_u16(
        pkeys: *const u16,
        n: usize,
        mask: u16,
        prefix: u16,
    ) -> u32 {
        let m = _mm256_set1_epi16(mask as i16);
        let p = _mm256_set1_epi16(prefix as i16);
        // SAFETY: caller guarantees 64 readable bytes; loadu has no
        // alignment requirement.
        let lo = unsafe { _mm256_loadu_si256(pkeys as *const __m256i) };
        // SAFETY: as above — the second 32-byte half of the same buffer.
        let hi = unsafe { _mm256_loadu_si256((pkeys as *const __m256i).add(1)) };
        let eq_lo = _mm256_cmpeq_epi16(_mm256_and_si256(lo, m), p);
        let eq_hi = _mm256_cmpeq_epi16(_mm256_and_si256(hi, m), p);
        // Pack the two 16-bit compare masks (0 / -1 lanes) down to bytes.
        // packs works per 128-bit half, interleaving the sources as
        // [lo₀₋₇, hi₀₋₇, lo₈₋₁₅, hi₈₋₁₅]; the 64-bit permute restores entry
        // order so one movemask yields bit i = entry i.
        let packed = _mm256_packs_epi16(eq_lo, eq_hi);
        let ordered = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
        (_mm256_movemask_epi8(ordered) as u32) & super::used_mask(n)
    }

    /// # Safety
    /// AVX2 must be available and 128 bytes must be readable from `pkeys`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn match_prefix_u32(
        pkeys: *const u32,
        n: usize,
        mask: u32,
        prefix: u32,
    ) -> u32 {
        let m = _mm256_set1_epi32(mask as i32);
        let p = _mm256_set1_epi32(prefix as i32);
        let mut matches = 0u32;
        for chunk in 0..4 {
            // SAFETY: caller guarantees 128 readable bytes: four 32-byte
            // chunks; loadu has no alignment requirement.
            let v = unsafe { _mm256_loadu_si256((pkeys as *const __m256i).add(chunk)) };
            let eq = _mm256_cmpeq_epi32(_mm256_and_si256(v, m), p);
            let mm = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
            matches |= mm << (chunk * 8);
        }
        matches & super::used_mask(n)
    }
}

/// Bitmask of the 8-bit sparse partial keys equal to `prefix` under `mask`
/// (bit `i` set iff `pkeys[i] & mask == prefix`).
///
/// The range-scan seek uses this to find the contiguous run of entries
/// sharing a path prefix with one vector compare instead of a scalar walk
/// in both directions (`RawNode::affected_range`).
///
/// # Safety
/// `n` must be in `1..=32` and [`PADDED_BYTES_U8`] bytes must be readable
/// from `pkeys`.
#[inline]
pub unsafe fn match_prefix_u8(pkeys: *const u8, n: usize, mask: u8, prefix: u8) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::features().avx2 {
            // SAFETY: AVX2 verified at runtime; the caller's readable-bytes
            // contract ([`PADDED_BYTES_U8`]) covers the vector loads.
            return unsafe { avx2::match_prefix_u8(pkeys, n, mask, prefix) };
        }
    }
    // SAFETY: caller guarantees at least `n` elements are readable.
    let pkeys = unsafe { core::slice::from_raw_parts(pkeys, n) };
    match_prefix_u8_scalar(pkeys, n, mask, prefix)
}

/// Bitmask of the 16-bit sparse partial keys equal to `prefix` under `mask`.
///
/// # Safety
/// `n` must be in `1..=32` and [`PADDED_BYTES_U16`] bytes must be readable
/// from `pkeys`. `pkeys` must be 2-byte aligned.
#[inline]
pub unsafe fn match_prefix_u16(pkeys: *const u16, n: usize, mask: u16, prefix: u16) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::features().avx2 {
            // SAFETY: AVX2 verified at runtime; the caller's readable-bytes
            // contract ([`PADDED_BYTES_U16`]) covers the vector loads.
            return unsafe { avx2::match_prefix_u16(pkeys, n, mask, prefix) };
        }
    }
    // SAFETY: caller guarantees at least `n` elements are readable.
    let pkeys = unsafe { core::slice::from_raw_parts(pkeys, n) };
    match_prefix_u16_scalar(pkeys, n, mask, prefix)
}

/// Bitmask of the 32-bit sparse partial keys equal to `prefix` under `mask`.
///
/// # Safety
/// `n` must be in `1..=32` and [`PADDED_BYTES_U32`] bytes must be readable
/// from `pkeys`. `pkeys` must be 4-byte aligned.
#[inline]
pub unsafe fn match_prefix_u32(pkeys: *const u32, n: usize, mask: u32, prefix: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::features().avx2 {
            // SAFETY: AVX2 verified at runtime; the caller's readable-bytes
            // contract ([`PADDED_BYTES_U32`]) covers the vector loads.
            return unsafe { avx2::match_prefix_u32(pkeys, n, mask, prefix) };
        }
    }
    // SAFETY: caller guarantees at least `n` elements are readable.
    let pkeys = unsafe { core::slice::from_raw_parts(pkeys, n) };
    match_prefix_u32_scalar(pkeys, n, mask, prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn padded_u8(pkeys: &[u8]) -> [u8; 32] {
        let mut buf = [0xAAu8; 32]; // garbage padding, must be masked off
        buf[..pkeys.len()].copy_from_slice(pkeys);
        buf
    }

    fn padded_u16(pkeys: &[u16]) -> [u16; 32] {
        let mut buf = [0xAAAAu16; 32];
        buf[..pkeys.len()].copy_from_slice(pkeys);
        buf
    }

    fn padded_u32(pkeys: &[u32]) -> [u32; 32] {
        let mut buf = [0xAAAA_AAAAu32; 32];
        buf[..pkeys.len()].copy_from_slice(pkeys);
        buf
    }

    /// Search under the portable kernel and, where the CPU has it, the
    /// AVX2 kernel; they must agree.
    fn search<const WIDTH: usize>(pkeys: *const u8, n: usize, dense: u32) -> usize {
        use crate::Kernel;
        // SAFETY: every caller passes a 32-entry array of `WIDTH`-byte
        // keys — the full SIMD padding — and `n <= 32`.
        let portable = unsafe { crate::Portable.search_subset::<WIDTH>(pkeys, n, dense) };
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = crate::Avx2::detect() {
            // SAFETY: as above.
            let simd = unsafe { k.search_subset::<WIDTH>(pkeys, n, dense) };
            assert_eq!(simd, portable, "width {WIDTH} n {n} dense {dense:#x}");
        }
        portable
    }

    #[test]
    fn first_entry_always_matches() {
        // Entry 0 has sparse key 0 in real nodes; an all-ones dense key must
        // pick the highest entry, an all-zeros dense key entry 0.
        let pkeys = padded_u8(&[0, 1, 2, 3]);
        assert_eq!(search::<1>(pkeys.as_ptr(), 4, 0xFF), 3);
        assert_eq!(search::<1>(pkeys.as_ptr(), 4, 0x00), 0);
    }

    #[test]
    fn subset_semantics_u8() {
        // sparse: 0b000, 0b001, 0b010, 0b110
        let pkeys = padded_u8(&[0b000, 0b001, 0b010, 0b110]);
        // dense 0b011 matches 0b000, 0b001, 0b010 -> highest is index 2
        assert_eq!(search::<1>(pkeys.as_ptr(), 4, 0b011), 2);
        // dense 0b111 matches all -> 3
        assert_eq!(search::<1>(pkeys.as_ptr(), 4, 0b111), 3);
        // dense 0b100 matches only 0b000 -> 0
        assert_eq!(search::<1>(pkeys.as_ptr(), 4, 0b100), 0);
    }

    #[test]
    fn padding_is_ignored() {
        // Garbage in the padding area (0xAA = matches dense 0xAA) must never
        // be selected because it is past `n`.
        let pkeys = padded_u8(&[0x00, 0x02]);
        assert_eq!(search::<1>(pkeys.as_ptr(), 2, 0xAA), 1);
    }

    #[test]
    fn no_match_answers_entry_zero() {
        // Real nodes always match at entry 0 (its sparse key is 0); a
        // malformed one must still answer in range, identically per kernel.
        let pkeys = padded_u8(&[0x01, 0x02]);
        assert_eq!(search::<1>(pkeys.as_ptr(), 2, 0x00), 0);
        let pkeys = padded_u16(&[0x0100, 0x0200]);
        assert_eq!(search::<2>(pkeys.as_ptr() as *const u8, 2, 0x00), 0);
        let pkeys = padded_u32(&[0x01_0000, 0x02_0000]);
        assert_eq!(search::<4>(pkeys.as_ptr() as *const u8, 2, 0x00), 0);
    }

    #[test]
    fn full_node_u8() {
        let mut raw = [0u8; 32];
        for (i, slot) in raw.iter_mut().enumerate() {
            *slot = i as u8; // sparse key i for entry i
        }
        assert_eq!(search::<1>(raw.as_ptr(), 32, 0xFF), 31);
        assert_eq!(search::<1>(raw.as_ptr(), 32, 0x1F), 31);
        assert_eq!(search::<1>(raw.as_ptr(), 32, 0x10), 16);
    }

    #[test]
    fn match_prefix_agrees_with_scalar() {
        // Pseudo-random sparse keys; every (mask, prefix) pair drawn from
        // actual entries so matches are non-trivial.
        let mut raw8 = [0u8; 32];
        let mut raw16 = [0u16; 32];
        let mut raw32 = [0u32; 32];
        let mut x = 0x9E37_79B9u32;
        for i in 0..32 {
            x = x.wrapping_mul(0x85EB_CA6B).rotate_left(13) ^ i as u32;
            raw8[i] = x as u8;
            raw16[i] = x as u16;
            raw32[i] = x;
        }
        for n in [1usize, 2, 5, 16, 31, 32] {
            for mask in [0u32, 0x1, 0x80, 0xF0, 0xFF, 0xFFFF, 0xFFFF_0000, u32::MAX] {
                for through in [0usize, n / 2, n - 1] {
                    let p8 = raw8[through] as u32 & mask;
                    let p16 = raw16[through] as u32 & mask;
                    let p32 = raw32[through] & mask;
                    // SAFETY: the arrays are 32 entries — the full SIMD
                    // padding; `n` never exceeds the live prefix.
                    unsafe {
                        assert_eq!(
                            match_prefix_u8(raw8.as_ptr(), n, mask as u8, p8 as u8),
                            match_prefix_u8_scalar(&raw8, n, mask as u8, p8 as u8),
                            "u8 n={n} mask={mask:x}"
                        );
                        assert_eq!(
                            match_prefix_u16(raw16.as_ptr(), n, mask as u16, p16 as u16),
                            match_prefix_u16_scalar(&raw16, n, mask as u16, p16 as u16),
                            "u16 n={n} mask={mask:x}"
                        );
                        assert_eq!(
                            match_prefix_u32(raw32.as_ptr(), n, mask, p32),
                            match_prefix_u32_scalar(&raw32, n, mask, p32),
                            "u32 n={n} mask={mask:x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn match_prefix_masks_padding_and_sets_member_bit() {
        // Entries beyond `n` hold 0xAA… which matches (mask=0, prefix=0);
        // they must be masked off. The member entry's own bit is always set.
        let pkeys = padded_u8(&[0b0000, 0b0001, 0b0100, 0b0101]);
        // SAFETY: padded to 32 entries as the contract requires.
        unsafe {
            // mask selects the high nibble; entries 0,1 share prefix 0b0000,
            // entries 2,3 share 0b0100.
            assert_eq!(match_prefix_u8(pkeys.as_ptr(), 4, 0xFC, 0b0000), 0b0011);
            assert_eq!(match_prefix_u8(pkeys.as_ptr(), 4, 0xFC, 0b0100), 0b1100);
            // mask = 0: every live entry matches prefix 0, none of the
            // padding leaks in.
            assert_eq!(match_prefix_u8(pkeys.as_ptr(), 4, 0, 0), 0b1111);
        }
    }

    #[test]
    fn u16_and_u32_match_scalar_on_examples() {
        let pkeys16 = padded_u16(&[0, 0x0001, 0x0100, 0x0101, 0x8000]);
        let pkeys32 = padded_u32(&[0, 0x1, 0x0001_0000, 0x0001_0001, 0x8000_0000]);
        for dense in [0u32, 1, 0x0101, 0x8000, 0xFFFF, 0x0001_0001, 0xFFFF_FFFF] {
            assert_eq!(
                search::<2>(pkeys16.as_ptr() as *const u8, 5, dense),
                search_subset_u16_scalar(&pkeys16, 5, dense as u16),
            );
            assert_eq!(
                search::<4>(pkeys32.as_ptr() as *const u8, 5, dense),
                search_subset_u32_scalar(&pkeys32, 5, dense),
            );
        }
    }
}
