//! Shard-determinism suite: the sharded engine's `DeploymentReport` must
//! be byte-identical (as serialized JSON) to the sequential `replay()` for
//! every shard count, every `RENREN_THREADS` value, and across repeated
//! runs — on both simulator-generated and random synthetic logs. The
//! same contract covers the observability layer: the `logical` section
//! of the metrics snapshot must not move by a byte either.

use osn_graph::{par, NodeId, TemporalGraph, Timestamp};
use osn_sim::{
    simulate, Account, AccountKind, Gender, Profile, RequestLog, RequestOutcome, RequestRecord,
    SimConfig, SimOutput, ToolKind,
};
use proptest::prelude::*;
use sybil_core::realtime::{replay, replay_observed, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};

/// One request spec: (from, to, sent_h, Some((answered_after_h, accepted))).
type RequestSpec = (u32, u32, u64, Option<(u64, bool)>);

/// Build a SimOutput from raw request tuples; accounts `0..sybils` are
/// Sybils, the rest normal.
fn synthetic(n: usize, sybils: usize, requests: &[RequestSpec]) -> SimOutput {
    let normal = Account {
        kind: AccountKind::Normal,
        profile: Profile::new(Gender::Male, 0.4),
        created_at: Timestamp::ZERO,
        banned_at: None,
        accept_tendency: 0.7,
        sociability: 1.0,
    };
    let mut accounts = vec![normal.clone(); n];
    for a in accounts.iter_mut().take(sybils) {
        a.kind = AccountKind::Sybil {
            attacker: 0,
            tool: ToolKind::MarketingAssistant,
        };
    }
    let mut graph = TemporalGraph::with_nodes(n);
    let mut log = RequestLog::new();
    let mut rows: Vec<RequestSpec> = requests.to_vec();
    rows.sort_by_key(|r| r.2);
    for &(from, to, sent_h, decision) in &rows {
        if from == to {
            continue;
        }
        let idx = log.push(RequestRecord {
            from: NodeId(from),
            to: NodeId(to),
            sent_at: Timestamp::from_hours(sent_h),
            outcome: RequestOutcome::Pending,
        });
        if let Some((after_h, accepted)) = decision {
            let t = Timestamp::from_hours(sent_h + after_h);
            if accepted {
                log.resolve(idx, RequestOutcome::Accepted(t));
                let _ = graph.add_edge(NodeId(from), NodeId(to), t);
            } else {
                log.resolve(idx, RequestOutcome::Rejected(t));
            }
        }
    }
    SimOutput {
        config: SimConfig::tiny(0),
        graph,
        accounts,
        log,
        engine_stats: Default::default(),
    }
}

/// A permissive config so detections, re-checks, audits, and adaptive
/// feedback all fire on small random logs.
fn eager_cfg(adaptive: bool) -> RealtimeConfig {
    RealtimeConfig {
        warmup_requests: 4,
        check_every: 1,
        trailing_window_h: 1,
        min_decided: 2,
        min_friends: 2,
        rule: ThresholdClassifier {
            max_out_ratio: 0.8,
            min_freq: 3.0,
            max_cc: f64::INFINITY,
        },
        adaptive,
        feedback_delay_h: 3,
        audit_every: 5,
    }
}

fn report_bytes(out: &SimOutput, cfg: &ServeConfig) -> String {
    let outcome = ServeSession::new(*cfg).run(out).expect("serve failed");
    serde_json::to_string(&outcome.report).unwrap()
}

/// Serialized `logical` section of an observed serve run (no clock;
/// wall spans are irrelevant to the contract under test).
fn serve_logical_bytes(out: &SimOutput, cfg: &ServeConfig) -> String {
    let mut reg = sybil_obs::Registry::new();
    ServeSession::new(*cfg)
        .metrics(&mut reg)
        .run(out)
        .expect("serve failed");
    serde_json::to_string(&reg.snapshot().logical).unwrap()
}

/// The logical metrics must be byte-identical at every shard count and
/// agree with the sequential replay's counters key-for-key (the serve
/// snapshot adds only the engine-specific `epochs` counter on top).
fn assert_logical_metrics_agree(out: &SimOutput, detect: RealtimeConfig, epoch_hours: u64) {
    let mut rreg = sybil_obs::Registry::new();
    replay_observed(out, &detect, &mut rreg, None);
    let replay_logical = rreg.snapshot().logical;
    let mut baseline: Option<String> = None;
    for shards in [1usize, 2, 8] {
        let cfg = ServeConfig {
            shards,
            epoch_hours,
            detect,
            rotate_floor: 0,
        };
        let bytes = serve_logical_bytes(out, &cfg);
        match &baseline {
            None => baseline = Some(bytes.clone()),
            Some(b) => assert_eq!(
                b, &bytes,
                "logical metrics moved between shard counts (at {shards})"
            ),
        }
        let mut reg = sybil_obs::Registry::new();
        ServeSession::new(cfg)
            .metrics(&mut reg)
            .run(out)
            .expect("serve failed");
        let serve_logical = reg.snapshot().logical;
        for (k, v) in &replay_logical {
            assert_eq!(
                serve_logical.get(k),
                Some(v),
                "{shards}-shard serve disagrees with replay on logical metric {k:?}"
            );
        }
    }
}

/// Serve at shard counts 1, 2, 8 (twice each) and compare every run, plus
/// the sequential replay, as serialized bytes.
fn assert_all_engines_agree(out: &SimOutput, detect: RealtimeConfig, epoch_hours: u64) {
    let sequential = serde_json::to_string(&replay(out, &detect)).unwrap();
    for shards in [1usize, 2, 8] {
        let cfg = ServeConfig {
            shards,
            epoch_hours,
            detect,
            rotate_floor: 0,
        };
        let a = report_bytes(out, &cfg);
        let b = report_bytes(out, &cfg);
        assert_eq!(a, b, "{shards}-shard serve must be reproducible");
        assert_eq!(
            a, sequential,
            "{shards}-shard serve diverged from sequential replay"
        );
    }
}

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value.
/// Env vars are process-global; every test in this binary that touches
/// them funnels through this one lock.
fn with_threads_env(value: &str, body: impl FnOnce()) {
    use std::sync::{Mutex, OnceLock};
    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard = ENV_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
    let prior = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, value);
    body();
    match prior {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
}

/// End-to-end on a real simulated log, static rule.
#[test]
fn simulated_log_static_rule_is_shard_invariant() {
    let out = simulate(SimConfig::tiny(31));
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        ..RealtimeConfig::default()
    };
    assert_all_engines_agree(&out, detect, 48);
}

/// End-to-end on a real simulated log with adaptive feedback and audits.
#[test]
fn simulated_log_adaptive_rule_is_shard_invariant() {
    let out = simulate(SimConfig::tiny(32));
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    // Epoch shorter than the 48h feedback delay exercises the barrier
    // redistribution path repeatedly.
    assert_all_engines_agree(&out, detect, 12);
}

/// `shards: 0` resolves the count from `RENREN_THREADS`; the report must
/// not depend on it.
#[test]
fn auto_shard_count_from_env_is_invariant() {
    let out = simulate(SimConfig::tiny(33));
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let cfg = ServeConfig {
        shards: 0,
        epoch_hours: 24,
        detect,
        rotate_floor: 0,
    };
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        with_threads_env(threads, || reports.push(report_bytes(&out, &cfg)));
    }
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
    with_threads_env("1", || {
        assert_eq!(
            reports[0],
            serde_json::to_string(&replay(&out, &detect)).unwrap()
        );
    });
}

/// The headline observability contract on a real simulated log: the
/// serialized logical section is byte-identical across
/// `RENREN_THREADS` ∈ {1, 8} × shards ∈ {1, 2, 8}, and matches the
/// sequential replay's counters.
#[test]
fn logical_metrics_are_thread_and_shard_invariant() {
    let out = simulate(SimConfig::tiny(34));
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let mut all: Vec<String> = Vec::new();
    for threads in ["1", "8"] {
        with_threads_env(threads, || {
            assert_logical_metrics_agree(&out, detect, 12);
            for shards in [1usize, 2, 8] {
                let cfg = ServeConfig {
                    shards,
                    epoch_hours: 12,
                    detect,
                    rotate_floor: 0,
                };
                all.push(serve_logical_bytes(&out, &cfg));
            }
        });
    }
    for b in &all[1..] {
        assert_eq!(&all[0], b, "logical metrics moved across threads × shards");
    }
}

/// Regression for the mirror's keep-first rule under the one-pass index:
/// the pair A–B is accepted twice inside one epoch (hours 10 and 20), and
/// three accounts that each befriend A and B are checked before, between
/// and after the two accepts. The edge exists from the *first* accept, so
/// only the account checked before it (clustering 0) trips the rule; an
/// engine that dated the edge by the repeat accept would also flag the
/// one checked in between.
#[test]
fn repeat_accept_inside_one_epoch_with_a_check_between() {
    const A: u32 = 0;
    const B: u32 = 1;
    let mut rows: Vec<RequestSpec> = vec![
        (A, B, 1, Some((9, true))),  // accepted at hour 10
        (B, A, 2, Some((18, true))), // the same pair again, at hour 20
    ];
    // (account, hour B accepts it): a check needs ≥ 2 friends and runs on
    // each decision, so B's accept is the check that sees both friends.
    for (who, b_accepts_h) in [(2u32, 6u64), (3, 15), (4, 25)] {
        rows.push((who, 5, 3, Some((1, false))));
        rows.push((who, A, 3, Some((2, true))));
        rows.push((who, B, 3, Some((b_accepts_h - 3, true))));
        rows.push((who, 6, 3, None));
    }
    let out = synthetic(8, 3, &rows);
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_cc: 0.5,
            ..eager_cfg(false).rule
        },
        ..eager_cfg(false)
    };
    let sequential = replay(&out, &detect);
    let flagged: Vec<u32> = sequential.detections.iter().map(|d| d.account.0).collect();
    assert_eq!(flagged, [2], "only the check before the first accept fires");
    let sequential = serde_json::to_string(&sequential).unwrap();
    // 48 h: both accepts and all three checks share an epoch. 12 h: the
    // repeat lands in a later epoch than the first (hours 10 and 20).
    for (epoch_hours, rotate_floor) in [(48, 0), (48, 1), (12, 0), (12, 1)] {
        for shards in [1usize, 2, 8] {
            let cfg = ServeConfig {
                shards,
                epoch_hours,
                detect,
                rotate_floor,
            };
            assert_eq!(
                report_bytes(&out, &cfg),
                sequential,
                "{shards} shards, {epoch_hours} h epochs, rotate_floor {rotate_floor}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random event logs, static rule: byte-identical reports at 1, 2 and
    /// 8 shards and across two runs at the same count.
    #[test]
    fn random_logs_static(
        n in 3usize..20,
        reqs in prop::collection::vec(
            (0u32..20, 0u32..20, 0u64..96, 0u64..8, (any::<bool>(), any::<bool>())),
            0..120
        )
    ) {
        let rows: Vec<RequestSpec> = reqs
            .iter()
            .map(|&(f, t, h, after, (answered, accepted))| {
                let d = answered.then_some((after, accepted));
                (f % n as u32, t % n as u32, h, d)
            })
            .collect();
        let out = synthetic(n, n / 3, &rows);
        assert_all_engines_agree(&out, eager_cfg(false), 7);
    }

    /// Random event logs with adaptive feedback, audits, and a short
    /// feedback delay (the hardest barrier-timing case: epoch clamped to
    /// the 3h delay).
    #[test]
    fn random_logs_adaptive(
        n in 3usize..16,
        reqs in prop::collection::vec(
            (0u32..16, 0u32..16, 0u64..72, 0u64..6, (any::<bool>(), any::<bool>())),
            0..100
        )
    ) {
        let rows: Vec<RequestSpec> = reqs
            .iter()
            .map(|&(f, t, h, after, (answered, accepted))| {
                let d = answered.then_some((after, accepted));
                (f % n as u32, t % n as u32, h, d)
            })
            .collect();
        let out = synthetic(n, n / 2, &rows);
        assert_all_engines_agree(&out, eager_cfg(true), 48);
    }

    /// Random adaptive logs: logical metric snapshots are bit-identical
    /// across shard counts and match the sequential replay's counters —
    /// the eager config drives every counter (checks, detections,
    /// feedback, audits) on small inputs.
    #[test]
    fn random_logs_logical_metrics(
        n in 3usize..16,
        reqs in prop::collection::vec(
            (0u32..16, 0u32..16, 0u64..72, 0u64..6, (any::<bool>(), any::<bool>())),
            0..100
        )
    ) {
        let rows: Vec<RequestSpec> = reqs
            .iter()
            .map(|&(f, t, h, after, (answered, accepted))| {
                let d = answered.then_some((after, accepted));
                (f % n as u32, t % n as u32, h, d)
            })
            .collect();
        let out = synthetic(n, n / 2, &rows);
        assert_logical_metrics_agree(&out, eager_cfg(true), 7);
    }

    /// Random adaptive logs under forced tiny rotation floors: with
    /// `rotate_floor` at 1, 2 or 8 edges, almost every barrier rotates the
    /// coordinator's snapshot through the incremental `merge_delta` path
    /// (instead of the default 1024-edge floor that small logs never hit).
    /// Rotation timing is supposed to be value-neutral; this pins it.
    #[test]
    fn random_logs_tiny_rotation_floors(
        n in 3usize..16,
        reqs in prop::collection::vec(
            (0u32..16, 0u32..16, 0u64..72, 0u64..6, (any::<bool>(), any::<bool>())),
            0..100
        ),
        floor_ix in 0usize..3
    ) {
        let floor = [1usize, 2, 8][floor_ix];
        let rows: Vec<RequestSpec> = reqs
            .iter()
            .map(|&(f, t, h, after, (answered, accepted))| {
                let d = answered.then_some((after, accepted));
                (f % n as u32, t % n as u32, h, d)
            })
            .collect();
        let out = synthetic(n, n / 2, &rows);
        let detect = eager_cfg(true);
        let sequential = serde_json::to_string(&replay(&out, &detect)).unwrap();
        for shards in [1usize, 2, 8] {
            let cfg = ServeConfig {
                shards,
                epoch_hours: 48,
                detect,
                rotate_floor: floor,
            };
            let bytes = report_bytes(&out, &cfg);
            prop_assert_eq!(
                &bytes, &sequential,
                "{}-shard serve with rotate_floor {} diverged from replay",
                shards, floor
            );
        }
    }
}
