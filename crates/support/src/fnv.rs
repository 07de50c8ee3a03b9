//! FNV-1a/64: the workspace's one deterministic, dependency-free hash.
//!
//! Content digests key the serve tier's annotation cache, and trace
//! digests fingerprint reactor schedules, governor decisions and session
//! arrivals. Each needs a hash that is identical across runs and
//! platforms, which `DefaultHasher` does not promise (its algorithm is
//! unspecified). Multi-byte values fold in little-endian.
//!
//! ```
//! use annolight_support::fnv::{fnv1a_64, Digester};
//!
//! assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
//! assert_eq!(Digester::new().write(b"a").finish(), fnv1a_64(b"a"));
//! ```

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 over a byte slice.
#[must_use]
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    Digester::new().write(bytes).finish()
}

/// An incremental FNV-1a/64 hasher for mixing heterogeneous fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digester {
    state: u64,
}

impl Default for Digester {
    fn default() -> Self {
        Self::new()
    }
}

impl Digester {
    /// Fresh hasher at the FNV offset basis.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Mixes a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Mixes an `f64` by its exact bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// The digest so far.
    #[must_use]
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digester_mixes_field_order() {
        let mut a = Digester::new();
        a.write_u32(1).write_u32(2);
        let mut b = Digester::new();
        b.write_u32(2).write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writes_fold_their_little_endian_bytes() {
        let word = 0x0123_4567_89ab_cdef_u64;
        let mut typed = Digester::new();
        typed.write_u64(word).write_u32(7).write_f64(-0.5);
        let mut raw = Digester::new();
        raw.write(&word.to_le_bytes())
            .write(&7u32.to_le_bytes())
            .write(&(-0.5f64).to_bits().to_le_bytes());
        assert_eq!(typed.finish(), raw.finish());
    }
}
