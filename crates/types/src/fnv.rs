//! Streaming FNV-1a hasher used for order-sensitive artifact digests.
//!
//! The harness and trace layers need a digest that is cheap, dependency-free
//! and stable across platforms so that goldens and determinism tests can
//! compare runs byte-for-byte.  FNV-1a over a canonical `u64` encoding of
//! each record fits: it is order-sensitive (reordering events changes the
//! digest) and the constants are fixed by the FNV specification.

/// Streaming 64-bit FNV-1a hasher.
///
/// Feed it words with [`Fnv64::write_u64`] and read the digest with
/// [`Fnv64::finish`].  It is the workspace's one FNV implementation: the
/// event-log, trace, metrics and fleet digests all fold through it (each
/// over its own record shape).
///
/// # Examples
///
/// ```
/// use misp_types::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_u64(1);
/// h.write_u64(2);
/// let a = h.finish();
///
/// let mut h2 = Fnv64::new();
/// h2.write_u64(2);
/// h2.write_u64(1);
/// assert_ne!(a, h2.finish(), "FNV-1a is order-sensitive");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher initialised with the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: Self::OFFSET,
        }
    }

    /// Absorbs one `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Returns the current digest without consuming the hasher.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_the_offset_basis() {
        assert_eq!(Fnv64::new().finish(), Fnv64::OFFSET);
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(7);
        a.write_u64(9);
        let mut b = Fnv64::new();
        b.write_u64(7);
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());

        let mut c = Fnv64::new();
        c.write_u64(9);
        c.write_u64(7);
        assert_ne!(a.finish(), c.finish());
    }
}
