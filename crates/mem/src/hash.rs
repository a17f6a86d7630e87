//! A fast hasher for `u64` keys on the simulator's hot paths.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for `u64` keys such as virtual page numbers and
/// line addresses. The std default, SipHash, costs about as much as the
/// short scans these maps replace; the keys are simulator-internal, so
/// the flooding resistance SipHash buys is not needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct VpnHash(u64);

impl Hasher for VpnHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 writes (not used by u64 keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// A `u64`-keyed map hashed with [`VpnHash`].
pub type VpnMap<V> = HashMap<u64, V, BuildHasherDefault<VpnHash>>;

/// A `u64` set hashed with [`VpnHash`].
pub type VpnSet = HashSet<u64, BuildHasherDefault<VpnHash>>;
