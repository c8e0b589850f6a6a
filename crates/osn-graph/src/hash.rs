//! A fixed, cheap hasher for sets of packed node pairs.
//!
//! [`TemporalGraph`](crate::TemporalGraph)'s edge set and the simulator's
//! requested-pair set hold one `u64` per unordered pair
//! ([`pack_pair`]) and are probed on every friend request. std's default
//! SipHash, with its per-process random keys, guards a table against
//! keys chosen by an adversary who knows the hash; here the keys are
//! dense account ids, simulated or bounded by an imported dataset's
//! `accounts.csv`, and the sets are only ever queried for membership,
//! never iterated, so neither the keys' order nor the hasher's keys can
//! reach an output. The SplitMix64 finalizer is a bijection on `u64`, so
//! two distinct pairs never share a full hash, and it mixes every input
//! bit into the low bits the table indexes by, at a fraction of
//! SipHash's cost.

use crate::graph::NodeId;
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`. Public
/// because every seeded derivation in the workspace funnels through it —
/// pair-set hashing here, scale generation in `osn-sim`, fault-schedule
/// generation in `sybil-chaos` — so "same seed, same run" holds across
/// subsystems by construction.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The unordered pair `{a, b}` as one `u64`: the lower id in the high
/// half, so `pack_pair(a, b) == pack_pair(b, a)`.
#[inline]
pub fn pack_pair(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u64) << 32) | hi as u64
}

/// [`Hasher`] that runs each written `u64` through [`splitmix64`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `HashSet`/`HashMap` hasher for packed-pair keys: fixed keys,
/// one SplitMix64 round per key.
pub type PairBuildHasher = BuildHasherDefault<PairHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn pack_pair_is_symmetric_and_injective() {
        assert_eq!(
            pack_pair(NodeId(3), NodeId(9)),
            pack_pair(NodeId(9), NodeId(3))
        );
        assert_eq!(pack_pair(NodeId(1), NodeId(2)), (1 << 32) | 2);
        assert_ne!(
            pack_pair(NodeId(1), NodeId(2)),
            pack_pair(NodeId(2), NodeId(2))
        );
    }

    #[test]
    fn hash_is_fixed_and_a_membership_set_works() {
        let b = PairBuildHasher::default();
        assert_eq!(b.hash_one(7u64), splitmix64(7));
        let mut s: HashSet<u64, PairBuildHasher> = HashSet::default();
        for k in 0..1000u64 {
            assert!(s.insert(k << 32 | (k + 1)));
        }
        assert!(s.contains(&(5 << 32 | 6)));
        assert!(!s.contains(&(5 << 32 | 7)));
        assert!(!s.insert(5 << 32 | 6));
    }
}
