//! Order-preserving, prefix-free key encodings.
//!
//! Tries index *binary-comparable* keys: the bit-string order must equal the
//! domain order, and no stored key may be a strict prefix of another (a
//! Patricia trie cannot represent a key that ends at an inner BiNode). The
//! encoders here establish both properties:
//!
//! * fixed-width big-endian integers are binary-comparable and, being all the
//!   same length, trivially prefix-free;
//! * strings without interior NUL bytes become prefix-free by appending a
//!   single 0x00 terminator (the classic C-string trick the reference HOT
//!   implementation uses), which also preserves order among NUL-free strings;
//! * yago triples use the exact compound bit layout of Section 6.1: bits
//!   38–63 subject, 27–37 predicate, 0–26 object.

use crate::MAX_KEY_LEN;

/// Errors returned by the fallible key encoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The encoded key would exceed [`MAX_KEY_LEN`] bytes.
    TooLong,
    /// The string contains an interior NUL byte and cannot be made
    /// prefix-free with the terminator encoding.
    EmbeddedNul,
    /// A compound-key component does not fit in its bit field.
    FieldOverflow,
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::TooLong => write!(f, "encoded key exceeds {MAX_KEY_LEN} bytes"),
            KeyError::EmbeddedNul => write!(f, "string key contains an interior NUL byte"),
            KeyError::FieldOverflow => write!(f, "compound key component overflows its bit field"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Encode a `u64` as a big-endian, binary-comparable 8-byte key.
#[inline]
pub fn encode_u64(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Decode the big-endian 8-byte encoding back into a `u64`.
#[inline]
pub fn decode_u64(key: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..key.len().min(8)].copy_from_slice(&key[..key.len().min(8)]);
    u64::from_be_bytes(bytes)
}

/// Encode a string as a prefix-free, order-preserving key by appending a
/// 0x00 terminator.
///
/// Returns an error for strings containing interior NUL bytes or longer than
/// `MAX_KEY_LEN - 1` bytes.
pub fn str_key(s: &[u8]) -> Result<Vec<u8>, KeyError> {
    if s.len() > MAX_KEY_LEN - 1 {
        return Err(KeyError::TooLong);
    }
    if s.contains(&0u8) {
        return Err(KeyError::EmbeddedNul);
    }
    let mut key = Vec::with_capacity(s.len() + 1);
    key.extend_from_slice(s);
    key.push(0);
    Ok(key)
}

/// Width of the yago subject field (bits 38–63).
const YAGO_SUBJECT_BITS: u32 = 26;
/// Width of the yago predicate field (bits 27–37).
const YAGO_PREDICATE_BITS: u32 = 11;
/// Width of the yago object field (bits 0–26).
const YAGO_OBJECT_BITS: u32 = 27;

/// Compose a yago triple identifier with the paper's bit layout
/// (Section 6.1): the lowest 27 bits (0–26) hold the object id, bits 27–37
/// the predicate, bits 38–63 the subject.
pub fn encode_yago(subject: u32, predicate: u32, object: u32) -> Result<[u8; 8], KeyError> {
    if subject >= 1 << YAGO_SUBJECT_BITS
        || predicate >= 1 << YAGO_PREDICATE_BITS
        || object >= 1 << YAGO_OBJECT_BITS
    {
        return Err(KeyError::FieldOverflow);
    }
    let v = ((subject as u64) << (YAGO_PREDICATE_BITS + YAGO_OBJECT_BITS))
        | ((predicate as u64) << YAGO_OBJECT_BITS)
        | object as u64;
    Ok(encode_u64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_encoding_is_order_preserving() {
        let values = [0u64, 1, 255, 256, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &a in &values {
            for &b in &values {
                assert_eq!(a.cmp(&b), encode_u64(a).cmp(&encode_u64(b)));
            }
        }
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(decode_u64(&encode_u64(v)), v);
        }
    }

    #[test]
    fn str_key_is_prefix_free_and_ordered() {
        let a = str_key(b"abc").unwrap();
        let b = str_key(b"abcd").unwrap();
        // "abc\0" is not a prefix of "abcd\0".
        assert!(!b.starts_with(&a));
        assert!(a < b);
        // Order among unrelated strings preserved.
        assert!(str_key(b"apple").unwrap() < str_key(b"banana").unwrap());
    }

    #[test]
    fn str_key_rejects_nul_and_oversize() {
        assert_eq!(str_key(b"a\0b"), Err(KeyError::EmbeddedNul));
        let long = vec![b'x'; MAX_KEY_LEN];
        assert_eq!(str_key(&long), Err(KeyError::TooLong));
        let ok = vec![b'x'; MAX_KEY_LEN - 1];
        assert!(str_key(&ok).is_ok());
    }

    #[test]
    fn yago_layout_matches_paper() {
        let key = encode_yago(1, 1, 1).unwrap();
        let v = u64::from_be_bytes(key);
        assert_eq!(v & ((1 << 27) - 1), 1, "object in bits 0-26");
        assert_eq!((v >> 27) & ((1 << 11) - 1), 1, "predicate in bits 27-37");
        assert_eq!(v >> 38, 1, "subject in bits 38-63");
    }

    #[test]
    fn yago_rejects_overflow() {
        assert_eq!(
            encode_yago(1 << YAGO_SUBJECT_BITS, 0, 0),
            Err(KeyError::FieldOverflow)
        );
        assert_eq!(
            encode_yago(0, 1 << YAGO_PREDICATE_BITS, 0),
            Err(KeyError::FieldOverflow)
        );
        assert_eq!(
            encode_yago(0, 0, 1 << YAGO_OBJECT_BITS),
            Err(KeyError::FieldOverflow)
        );
    }

    #[test]
    fn yago_sorts_by_subject_then_predicate_then_object() {
        let k1 = encode_yago(1, 5, 9).unwrap();
        let k2 = encode_yago(1, 6, 0).unwrap();
        let k3 = encode_yago(2, 0, 0).unwrap();
        assert!(k1 < k2 && k2 < k3);
    }
}
