//! Checked `usize` → `u32` conversion for the id-packing contract.
//!
//! The serving substrate moves account ids, per-window counts, and queue
//! depths as `u32` end to end: node ids pack two-per-`u64` in the mirror
//! delta, CSR offsets are `u32`, and the 5M-account scale target leaves
//! 800× headroom below `u32::MAX`. A bare `as u32` at any of those
//! boundaries would truncate silently if the invariant ever broke —
//! `sybil-lint` rule S115 rejects such casts on the hot path.
//! [`saturating_u32`] is the sanctioned replacement for infallible
//! counters (sliding-window peaks), where clamping at `u32::MAX` is the
//! documented behavior and strictly better than wrapping; a boundary
//! with a `Result` channel uses `u32::try_from` into its own crate's
//! typed error.

/// Convert a count to `u32`, clamping to `u32::MAX` on overflow.
///
/// For monotone gauges (peak window occupancy, high-water marks) a
/// clamped ceiling is exact until 4.29 billion and stays a valid upper
/// bound after, whereas `as u32` would wrap to a small — and wrong —
/// value.
#[inline]
pub fn saturating_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_counts_convert_exactly() {
        assert_eq!(saturating_u32(0), 0);
        assert_eq!(saturating_u32(77), 77);
        assert_eq!(saturating_u32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    fn saturating_clamps_instead_of_wrapping() {
        let too_big = u32::MAX as usize + 1;
        // `too_big as u32` would wrap to 0; the clamp keeps an upper bound.
        assert_eq!(saturating_u32(too_big), u32::MAX);
        assert_eq!(saturating_u32(usize::MAX), u32::MAX);
    }
}
