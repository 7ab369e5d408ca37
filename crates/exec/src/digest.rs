//! The workspace's one digest idiom: 64-bit FNV-1a.
//!
//! Every pinned fingerprint in the reproduction — serving prediction
//! vectors, memory images, BIST weak-cell maps, generator layouts and
//! reports — folds its observables through these two functions, so a
//! digest computed in one crate can be compared against one recorded in
//! another.

/// FNV-1a offset basis: the initial hash state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds a `u64` (little-endian bytes) into an FNV-1a hash state.
pub fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    fnv1a(hash, &value.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding a word is folding its little-endian bytes.
        assert_eq!(
            fnv1a_u64(FNV_OFFSET, 0x0102),
            fnv1a(FNV_OFFSET, &[2, 1, 0, 0, 0, 0, 0, 0])
        );
    }
}
