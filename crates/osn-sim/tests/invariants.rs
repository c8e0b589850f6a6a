//! Simulation invariants that must hold for *any* configuration: the
//! request log, graph, and account table always tell one consistent story.

use osn_sim::{simulate, RequestOutcome, SimConfig};
use proptest::prelude::*;

/// A small randomized configuration space (kept tiny so each case runs in
/// milliseconds).
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        0u64..1000,          // seed
        300u64..900,         // hours
        60usize..300,        // normals
        4usize..40,          // sybils
        0.2f64..0.7,         // arrival_frac
    )
        .prop_map(|(seed, hours, n_normal, n_sybil, arrival_frac)| {
            let mut cfg = SimConfig::tiny(seed);
            cfg.hours = hours;
            cfg.n_normal = n_normal;
            cfg.n_sybil = n_sybil;
            cfg.arrival_frac = arrival_frac;
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn log_graph_accounts_consistent(cfg in arb_config()) {
        let end = osn_graph::Timestamp::from_hours(cfg.hours);
        let out = simulate(cfg);

        // 1. Log is in send order; nothing happens after the horizon.
        let mut prev = osn_graph::Timestamp::ZERO;
        for r in out.log.records() {
            prop_assert!(r.sent_at >= prev);
            prop_assert!(r.sent_at <= end);
            prev = r.sent_at;
            if let Some(d) = r.outcome.decided_at() {
                prop_assert!(d >= r.sent_at);
                prop_assert!(d <= end);
            }
            // Nobody sends before their account exists.
            prop_assert!(out.accounts[r.from.index()].created_at <= r.sent_at);
            // No self-requests.
            prop_assert!(r.from != r.to);
        }

        // 2. Edges <-> accepted requests, bijectively on unordered pairs.
        let mut accepted = std::collections::HashSet::new();
        for r in out.log.records() {
            if let RequestOutcome::Accepted(at) = r.outcome {
                accepted.insert((r.from.0.min(r.to.0), r.from.0.max(r.to.0)));
                prop_assert!(out.graph.has_edge(r.from, r.to));
                prop_assert!(at <= end);
            }
        }
        prop_assert_eq!(accepted.len(), out.graph.num_edges());

        // 3. No duplicate requests per unordered pair... except one crossing
        //    pair direction each; the engine enforces at most one record per
        //    ordered pair and at most one per unordered pair.
        let mut pairs = std::collections::HashSet::new();
        for r in out.log.records() {
            prop_assert!(
                pairs.insert((r.from.0.min(r.to.0), r.from.0.max(r.to.0))),
                "duplicate request between {:?} and {:?}", r.from, r.to
            );
        }

        // 4. Sybils never reject; only sybils are banned.
        for r in out.log.records() {
            if out.is_sybil(r.to) {
                prop_assert!(!matches!(r.outcome, RequestOutcome::Rejected(_)));
            }
        }
        for a in &out.accounts {
            if a.banned_at.is_some() {
                prop_assert!(a.is_sybil());
            }
        }

        // 5. Stats are self-consistent.
        let s = out.stats();
        prop_assert_eq!(s.requests, out.log.len());
        prop_assert_eq!(s.accepted, out.graph.num_edges());
        prop_assert_eq!(s.edges, s.sybil_edges + s.attack_edges + s.normal_edges);
        prop_assert!(s.sybil_requests <= s.requests);
    }

    #[test]
    fn adjacency_is_chronological(cfg in arb_config()) {
        let out = simulate(cfg);
        for n in out.graph.nodes() {
            for w in out.graph.neighbors(n).windows(2) {
                prop_assert!(w[0].time <= w[1].time);
            }
        }
    }

    /// Every event handed out with detail carries its record's endpoints,
    /// and the acceptance flag is false on sends and the record's outcome
    /// on decisions — for any configuration.
    #[test]
    fn pull_stream_details_match_records(cfg in arb_config()) {
        let out = simulate(cfg);
        let mut batches = osn_sim::EpochBatches::new(&out.log, 48 * 3600);
        let mut pulled = 0usize;
        while let Some((events, details)) = batches.next_epoch() {
            prop_assert_eq!(events.len(), details.len());
            for (ev, d) in events.iter().zip(details) {
                let i = match ev.kind {
                    osn_sim::StreamEventKind::Sent(i)
                    | osn_sim::StreamEventKind::Decided(i) => i as usize,
                };
                let r = &out.log.records()[i];
                prop_assert_eq!(d.from, r.from.0);
                prop_assert_eq!(d.to, r.to.0);
                match ev.kind {
                    osn_sim::StreamEventKind::Sent(_) => prop_assert!(!d.accepted),
                    osn_sim::StreamEventKind::Decided(_) => {
                        prop_assert_eq!(d.accepted, r.outcome.is_accepted())
                    }
                }
            }
            pulled += events.len();
        }
        prop_assert_eq!(pulled, osn_sim::EventStream::new(&out.log).total_events());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CSV dataset export/import is lossless for everything the analyses
    /// read, for arbitrary configurations.
    #[test]
    fn dataset_roundtrip(cfg in arb_config()) {
        let out = simulate(cfg.clone());
        let dir = std::env::temp_dir().join(format!(
            "osn_sim_roundtrip_{}_{}",
            std::process::id(),
            cfg.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        osn_sim::io::export_dataset(&out, &dir).expect("export");
        let back = osn_sim::io::import_dataset(&dir, cfg).expect("import");
        prop_assert_eq!(back.accounts.len(), out.accounts.len());
        prop_assert_eq!(back.log.len(), out.log.len());
        prop_assert_eq!(back.graph.num_edges(), out.graph.num_edges());
        for (a, b) in out.log.records().iter().zip(back.log.records()) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in out.accounts.iter().zip(&back.accounts) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.banned_at, b.banned_at);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Exporting the same simulation twice must produce byte-identical files:
/// the dataset emitters iterate in a total order (lint rule D001 guards
/// the code paths), so dataset bytes are a pure function of the config.
#[test]
fn dataset_export_is_byte_identical() {
    let out = simulate(SimConfig::tiny(42));
    let base = std::env::temp_dir().join(format!("osn_sim_det_{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    let _ = std::fs::remove_dir_all(&base);
    osn_sim::io::export_dataset(&out, &a).expect("export a");
    osn_sim::io::export_dataset(&out, &b).expect("export b");

    let mut names: Vec<String> = std::fs::read_dir(&a)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "export produced no files");
    for name in &names {
        let bytes_a = std::fs::read(a.join(name)).expect("read a");
        let bytes_b = std::fs::read(b.join(name)).expect("read b");
        assert_eq!(bytes_a, bytes_b, "{name} differs between identical exports");
    }
    let _ = std::fs::remove_dir_all(&base);
}
