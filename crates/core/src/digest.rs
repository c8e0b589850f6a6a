//! Order-sensitive 64-bit state digests.
//!
//! The serving engine journals a digest of every shard's
//! [`realtime::state`](crate::realtime::state) at each epoch barrier so a
//! crash-replayed shard can be checked for *byte-identical* recovery
//! (DESIGN.md §"Fault model & recovery"). The digest must therefore be a
//! pure function of the logical state — no addresses, no hash-map
//! iteration order, no floating-point re-association — and stable across
//! shard counts and thread counts. An xor-multiply-shift fold over 64-bit
//! words satisfies all of that at roughly one multiply per field.
//!
//! The fold digests the small parts of a shard whole (adaptive
//! thresholds, feedback queue, audit bookkeeping). The account table is
//! too large to fold every epoch, so it is digested as a wrapping *sum*
//! of per-account terms — each the fold of one slot, finished by
//! `mix64` — which a barrier keeps current by re-hashing only the
//! accounts the epoch touched
//! ([`AccountTable::digest`](crate::realtime::state::AccountTable::digest)).
//! Both are integrity checks against divergence bugs, not cryptographic
//! commitments: collision resistance beyond 64 bits is not a goal, and a
//! sum of terms is weaker still against someone choosing states to
//! collide, which crash detection does not face.

/// Incremental word-wise digest over a canonical field encoding.
///
/// Fields are folded in call order, so two digests agree iff the same
/// field values arrive in the same sequence — exactly the "byte-identical
/// state" contract the recovery checker needs.
#[derive(Clone, Copy, Debug)]
pub struct Digest64 {
    state: u64,
}

/// Seed (the FNV-1a offset basis, kept from the original byte-wise fold).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier (the SplitMix64/golden-ratio constant): the multiply
/// diffuses low input bits upward, the shift folds them back down.
const MULT: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Digest64 {
    fn default() -> Self {
        Digest64 { state: SEED }
    }
}

impl Digest64 {
    /// Fresh digest at the seed.
    pub fn new() -> Self {
        Digest64::default()
    }

    /// Fold one 64-bit word (the primitive every writer reduces to).
    #[inline]
    fn write_word(&mut self, v: u64) {
        let x = (self.state ^ v).wrapping_mul(MULT);
        self.state = x ^ (x >> 32);
    }

    /// Fold a `u32` widened to a word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_word(v as u64);
    }

    /// Fold a `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v);
    }

    /// Fold a `usize` widened to `u64` (stable across platforms).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_word(v as u64);
    }

    /// Fold an `f64` by its IEEE-754 bit pattern. Bit equality is the
    /// right notion here: the replay contract is *byte*-identical state,
    /// so `-0.0` vs `0.0` or differently-rounded sums must differ.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_word(v.to_bits());
    }

    /// Fold a boolean as one word.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_word(u64::from(v));
    }

    /// The digest of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// SplitMix64's finalizer: a bijection on `u64` in which every input bit
/// reaches every output bit. It finishes each term of a sum digest, so
/// the terms added together keep no structure for a few changed accounts
/// to cancel in.
#[inline]
pub(crate) fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let mut a = Digest64::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Digest64::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest64::new();
        c.write_u32(1);
        c.write_u32(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn float_digest_uses_bit_patterns() {
        let mut a = Digest64::new();
        a.write_f64(0.0);
        let mut b = Digest64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_digest_is_the_seed() {
        assert_eq!(Digest64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn every_input_bit_reaches_the_digest() {
        // Flipping any single bit of a folded word must change the
        // digest — the property that makes single-field divergence
        // visible to the recovery checker.
        let mut base = Digest64::new();
        base.write_u64(0);
        for bit in 0..64 {
            let mut d = Digest64::new();
            d.write_u64(1u64 << bit);
            assert_ne!(d.finish(), base.finish(), "bit {bit} vanished");
        }
    }
}
