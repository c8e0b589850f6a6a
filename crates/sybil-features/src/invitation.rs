//! Invitation-frequency features (Fig. 1).
//!
//! The paper plots “average invitations sent over N hours” for N = 1 and
//! N = 400. We bucket an account's invitation timestamps into consecutive
//! N-hour windows anchored at its first invitation and average the counts
//! over **non-empty** windows. Averaging over non-empty windows (rather
//! than all windows including idle ones) is what makes the metric a *rate
//! while active*: a Sybil tool firing 30 requests/hour in bursts scores
//! ≈ 30 at the 1-hour scale even if it sleeps between bursts, while a
//! normal user who sends two or three invitations per session scores 2–3.

use osn_graph::Timestamp;
use std::collections::BTreeMap;

/// Average invitations per non-empty `window_h`-hour window.
/// Returns 0.0 when no invitations were sent.
pub fn mean_per_active_window(sent: &[Timestamp], window_h: u64) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    let w = window_h.max(1) * 3600;
    let t0 = sent.iter().map(|t| t.as_secs()).min().unwrap_or(0);
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for t in sent {
        *counts.entry((t.as_secs() - t0) / w).or_insert(0) += 1;
    }
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    total as f64 / counts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(h: f64) -> Timestamp {
        Timestamp::from_hours_f64(h)
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(mean_per_active_window(&[], 1), 0.0);
    }

    #[test]
    fn single_burst_counts_full_rate() {
        // 30 invitations within one hour -> 1h metric = 30.
        let sent: Vec<Timestamp> = (0..30).map(|i| ts(0.01 * i as f64)).collect();
        assert_eq!(mean_per_active_window(&sent, 1), 30.0);
    }

    #[test]
    fn idle_gaps_do_not_dilute() {
        // Two bursts of 10, separated by a 100-hour gap: the 1h average
        // stays 10 because idle windows are not counted.
        let mut sent: Vec<Timestamp> = (0..10).map(|i| ts(0.01 * i as f64)).collect();
        sent.extend((0..10).map(|i| ts(100.0 + 0.01 * i as f64)));
        assert_eq!(mean_per_active_window(&sent, 1), 10.0);
    }

    #[test]
    fn long_window_aggregates() {
        // 50 invitations spread over 200 hours: one 400h window -> 50.
        let sent: Vec<Timestamp> = (0..50).map(|i| ts(4.0 * i as f64)).collect();
        assert_eq!(mean_per_active_window(&sent, 400), 50.0);
        // At the 1h scale each invitation is alone in its window -> 1.0.
        assert_eq!(mean_per_active_window(&sent, 1), 1.0);
    }

    #[test]
    fn windows_anchor_at_first_invitation() {
        // Two invites 30 minutes apart land in the same 1h window even when
        // the first is late in an absolute hour.
        let sent = vec![ts(5.9), ts(6.4)];
        assert_eq!(mean_per_active_window(&sent, 1), 2.0);
    }

    #[test]
    fn unsorted_input_tolerated() {
        let sent = vec![ts(6.4), ts(5.9)];
        assert_eq!(mean_per_active_window(&sent, 1), 2.0);
    }
}
