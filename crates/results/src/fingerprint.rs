//! Stable 64-bit fingerprints (FNV-1a) and their hex encoding.
//!
//! Fingerprints key the results store: a cell's fingerprint
//! covers everything that determines its numbers (predictor spec,
//! workload parameters, trace length, seed, accounting policy, engine
//! version), so a fingerprint hit is safe to reuse and any change to an
//! input maps to a different record.

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x100_0000_01b3;

/// Hash `bytes` with 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Combine several already-hashed or raw fields into one fingerprint.
/// Fields are length-prefixed so `("ab","c")` and `("a","bc")` differ.
pub fn fnv1a_fields(fields: &[&str]) -> u64 {
    let mut hash = OFFSET;
    for field in fields {
        for &byte in (field.len() as u64).to_le_bytes().iter() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        for &byte in field.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

/// Render a fingerprint as 16 lowercase hex digits.
pub fn to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a fingerprint rendered by [`to_hex`].
pub fn from_hex(text: &str) -> Option<u64> {
    (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn field_framing_disambiguates() {
        assert_ne!(fnv1a_fields(&["ab", "c"]), fnv1a_fields(&["a", "bc"]));
        assert_ne!(fnv1a_fields(&["ab"]), fnv1a_fields(&["ab", ""]));
        assert_eq!(fnv1a_fields(&["x", "y"]), fnv1a_fields(&["x", "y"]));
    }

    #[test]
    fn hex_roundtrip() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(from_hex(&to_hex(fp)), Some(fp));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("0123"), None);
        assert_eq!(from_hex("00000000000000000"), None);
    }
}
