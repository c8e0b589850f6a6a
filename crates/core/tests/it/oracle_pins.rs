//! The sequential oracle's reports, pinned as literal digests.
//!
//! Every serving test compares a served report with `replay`'s, and both
//! engines run on the same `AccountTable`, so a fault in the table shows
//! in both and passes every serve ≡ replay check. These digests hold the
//! oracle itself to fixed bytes: a change to the table's transitions, the
//! merged stream's order or the rule's evaluation that moves one
//! detection moves them.

use osn_sim::scale::{generate, ScaleConfig};
use osn_sim::{simulate, SimConfig, SimOutput};
use sybil_core::realtime::{replay, RealtimeConfig};
use sybil_core::ThresholdClassifier;

/// FNV-1a over the bytes of `replay(out, cfg)`'s JSON report, and the
/// number of detections in it (so a pin cannot hold on an empty report).
fn report_digest(out: &SimOutput, cfg: &RealtimeConfig) -> (u64, usize) {
    let report = replay(out, cfg);
    let json = serde_json::to_string(&report).expect("a report serializes");
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in json.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h, report.detections.len())
}

#[test]
fn tiny_simulation_reports_are_pinned() {
    let out = simulate(SimConfig::tiny(11));
    let adaptive = RealtimeConfig {
        adaptive: true,
        ..RealtimeConfig::default()
    };
    assert_eq!(
        report_digest(&out, &RealtimeConfig::default()),
        (0x99a5_b268_7587_5751, 8)
    );
    assert_eq!(report_digest(&out, &adaptive), (0xa16e_9807_9fbf_3495, 21));
}

/// The benchmark's `scan_250k` detector over a 20k-account scale stream.
#[test]
fn scale_stream_report_is_pinned() {
    let out = generate(&ScaleConfig::at(20_000, 5));
    let scan = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.4,
            min_freq: 4.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    assert_eq!(report_digest(&out, &scan), (0x6387_76aa_2570_1dfc, 0));
    // At this size the frequency cut of 4 flags nobody, so the pin above
    // holds the missed count and the rule the audits moved; lowered to 2
    // (the allocation budget's detector) the same stream flags accounts.
    let lowered = RealtimeConfig {
        rule: ThresholdClassifier {
            min_freq: 2.0,
            ..scan.rule
        },
        ..scan
    };
    assert_eq!(report_digest(&out, &lowered), (0x9e58_c187_5dc9_ea9b, 19));
}
