//! MSB-first bit addressing over byte-string keys.
//!
//! All trie structures in this workspace agree on one convention: bit
//! position `p` of a key denotes bit `7 - (p % 8)` of byte `p / 8`. Position
//! 0 is the most significant bit of the first byte; positions increase toward
//! less significant key material, so "smaller position" means "discriminates
//! earlier in lexicographic comparison".

/// Return the bit of `key` at MSB-first position `pos`.
///
/// Positions past the end of the key read as 0, which matches the behaviour
/// of the zero-padded key buffers used throughout the workspace and makes
/// shorter keys sort before their extensions.
#[inline(always)]
pub fn bit_at(key: &[u8], pos: usize) -> u8 {
    let byte = pos / 8;
    if byte >= key.len() {
        return 0;
    }
    (key[byte] >> (7 - (pos % 8))) & 1
}

/// Find the first (most significant) bit position at which `a` and `b`
/// differ, treating both as zero-padded to infinite length.
///
/// Returns `None` when one key is a prefix of the other up to zero padding —
/// i.e. when they are equal after padding. For the prefix-free keys the index
/// structures require, `None` implies the keys are identical.
#[inline]
pub fn first_mismatch_bit(a: &[u8], b: &[u8]) -> Option<usize> {
    let common = a.len().min(b.len());
    // The common prefix, eight bytes per compare: in a big-endian word the
    // first differing key bit is the most significant set bit of the xor.
    let mut words_a = a[..common].chunks_exact(8);
    let mut words_b = b[..common].chunks_exact(8);
    for (i, (wa, wb)) in words_a.by_ref().zip(words_b.by_ref()).enumerate() {
        let wa = u64::from_be_bytes(wa.try_into().expect("8-byte chunk"));
        let wb = u64::from_be_bytes(wb.try_into().expect("8-byte chunk"));
        let diff = wa ^ wb;
        if diff != 0 {
            return Some(i * 64 + diff.leading_zeros() as usize);
        }
    }
    let tail = common - words_a.remainder().len();
    for (i, (x, y)) in words_a
        .remainder()
        .iter()
        .zip(words_b.remainder())
        .enumerate()
    {
        let diff = x ^ y;
        if diff != 0 {
            return Some((tail + i) * 8 + diff.leading_zeros() as usize);
        }
    }
    // Past the shorter key the longer one is compared against zero padding.
    let longer = if a.len() > b.len() { a } else { b };
    let i = common + longer[common..].iter().position(|&byte| byte != 0)?;
    Some(i * 8 + longer[i].leading_zeros() as usize)
}

/// Load 8 bytes of `key` starting at byte `offset` as a **big-endian** 64-bit
/// window word.
///
/// In the window word, key byte `offset` occupies bits 56–63, so increasing
/// key-bit position maps to decreasing window-bit index. The caller must
/// guarantee `offset + 8 <= key.len()`; the index structures achieve this by
/// operating on fixed-size zero-padded key buffers.
#[inline(always)]
pub fn load_be_u64(key: &[u8], offset: usize) -> u64 {
    debug_assert!(offset + 8 <= key.len());
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&key[offset..offset + 8]);
    u64::from_be_bytes(bytes)
}

/// Window-word bit index (for [`load_be_u64`] windows) of the key bit at
/// MSB-first position `pos`, given the window starts at byte `offset`.
///
/// The caller must guarantee the position falls inside the window
/// (`offset * 8 <= pos < offset * 8 + 64`).
#[inline(always)]
pub fn window_bit_index(pos: usize, offset: usize) -> u32 {
    debug_assert!(pos >= offset * 8 && pos < offset * 8 + 64);
    let rel = pos - offset * 8;
    63 - rel as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_at_msb_first() {
        let key = [0b1000_0001u8, 0b0100_0000];
        assert_eq!(bit_at(&key, 0), 1);
        assert_eq!(bit_at(&key, 1), 0);
        assert_eq!(bit_at(&key, 7), 1);
        assert_eq!(bit_at(&key, 8), 0);
        assert_eq!(bit_at(&key, 9), 1);
        assert_eq!(bit_at(&key, 15), 0);
        // Past the end reads as zero.
        assert_eq!(bit_at(&key, 16), 0);
        assert_eq!(bit_at(&key, 1000), 0);
    }

    #[test]
    fn mismatch_basic() {
        assert_eq!(first_mismatch_bit(b"a", b"a"), None);
        assert_eq!(first_mismatch_bit(b"", b""), None);
        // 'a' = 0x61, 'b' = 0x62: differ first at bit 6 of byte 0.
        assert_eq!(first_mismatch_bit(b"a", b"b"), Some(6));
        // Same first byte, differ in second byte's MSB region.
        assert_eq!(first_mismatch_bit(b"aa", b"a\xFF"), Some(8));
    }

    #[test]
    fn mismatch_with_zero_padding() {
        // "a" zero-padded vs "a\0" are equal.
        assert_eq!(first_mismatch_bit(b"a", b"a\0"), None);
        // "a" vs "a\x80": the extension's first bit is the mismatch.
        assert_eq!(first_mismatch_bit(b"a", b"a\x80"), Some(8));
        assert_eq!(first_mismatch_bit(b"a\x01", b"a"), Some(15));
    }

    #[test]
    fn mismatch_is_symmetric() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"hello", b"help"),
            (b"", b"\x01"),
            (b"abc", b"abcd"),
            (b"\xFF\xFF", b"\xFF\x7F"),
        ];
        for (a, b) in pairs {
            assert_eq!(first_mismatch_bit(a, b), first_mismatch_bit(b, a));
        }
    }

    #[test]
    fn mismatch_identifies_order() {
        // For prefix-free keys, the bit at the mismatch position decides
        // lexicographic order: whichever key has bit 1 there is larger.
        let a = b"apple\0";
        let b = b"apply\0";
        let pos = first_mismatch_bit(a, b).unwrap();
        let (small, large) = if bit_at(a, pos) == 0 { (a, b) } else { (b, a) };
        assert!(small < large);
    }

    #[test]
    fn be_window_and_bit_index_agree_with_bit_at() {
        let key: Vec<u8> = (0u8..16).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for offset in 0..8 {
            let window = load_be_u64(&key, offset);
            for pos in offset * 8..offset * 8 + 64 {
                let from_window = (window >> window_bit_index(pos, offset)) & 1;
                assert_eq!(
                    from_window as u8,
                    bit_at(&key, pos),
                    "pos {pos} offset {offset}"
                );
            }
        }
    }
}
