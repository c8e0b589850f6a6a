//! The streaming (near real-time) Sybil detector.
//!
//! This is the deployment model of §2.3: the detector consumes Renren's
//! friend-request event stream, maintains per-account running features
//! (trailing invitation counts, accept ratios over *decided* requests,
//! clustering over the friends acquired so far), and flags an account the
//! moment the threshold rule fires. Flagged accounts go to the
//! verification team; confirmed labels feed the adaptive thresholds.
//!
//! Here the "event stream" is a replay of a simulation's request log
//! (sends and decisions merged in time order by
//! [`osn_sim::stream::EventStream`]) and the "verification team" is the
//! simulation's ground truth, delivered with a delay.
//!
//! The per-account transitions live in [`state`], shared with the sharded
//! `sybil-serve` engine; this module's [`replay`] is the sequential
//! reference that engine must reproduce byte for byte.

pub mod state;

use crate::adaptive::AdaptiveThresholds;
use crate::threshold::ThresholdClassifier;
use osn_graph::{NodeId, Timestamp};
use osn_sim::stream::{EventStream, StreamEvent, StreamEventKind};
use osn_sim::SimOutput;
use serde::{Deserialize, Serialize};
use state::{AccountTable, Verdict};
use std::collections::{HashSet, VecDeque};
use sybil_features::FeatureVector;

/// Streaming-detector configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RealtimeConfig {
    /// Evaluate an account only once it has sent at least this many
    /// requests.
    pub warmup_requests: usize,
    /// Evaluate every `check_every`-th sent request (controls CPU).
    /// A value of 0 would make every `is_multiple_of` gate false and
    /// silently disable the detector, so engines run on
    /// [`sanitized`](Self::sanitized) copies that clamp it to 1.
    pub check_every: usize,
    /// Trailing window (hours) for the frequency feature.
    pub trailing_window_h: u64,
    /// Ratio condition requires at least this many *decided* requests.
    pub min_decided: usize,
    /// Clustering condition requires at least this many friends.
    pub min_friends: usize,
    /// The rule (initial rule when adaptive).
    pub rule: ThresholdClassifier,
    /// Enable adaptive feedback.
    pub adaptive: bool,
    /// Hours between detection and the verification team's confirmation.
    pub feedback_delay_h: u64,
    /// Every this many processed sends, one active account is audited at
    /// random, giving the adaptive trackers normal-side feedback. Clamped
    /// to 1 when 0, like `check_every`.
    pub audit_every: usize,
}

impl Default for RealtimeConfig {
    fn default() -> Self {
        RealtimeConfig {
            warmup_requests: 20,
            check_every: 5,
            trailing_window_h: 1,
            min_decided: 10,
            min_friends: 8,
            rule: ThresholdClassifier::paper(),
            adaptive: false,
            feedback_delay_h: 48,
            audit_every: 200,
        }
    }
}

impl RealtimeConfig {
    /// Copy with degenerate cadence values clamped to their nearest
    /// working value: `check_every == 0` and `audit_every == 0` become 1
    /// ("evaluate at every opportunity"), because `n.is_multiple_of(0)` is
    /// false for every positive `n` and would silently disable the
    /// detector. Every engine entry point runs on a sanitized copy.
    pub fn sanitized(&self) -> Self {
        let mut c = *self;
        c.check_every = c.check_every.max(1);
        c.audit_every = c.audit_every.max(1);
        c
    }

    /// Strict validation for configs coming from the outside (CLI, files):
    /// rejects the zero cadences that [`sanitized`](Self::sanitized) would
    /// clamp, so callers can surface the mistake instead of guessing.
    pub fn validate(&self) -> Result<(), crate::Error> {
        if self.check_every == 0 {
            return Err(crate::Error::InvalidConfig {
                field: "check_every",
                message: "must be ≥ 1 (0 disables every evaluation)".into(),
            });
        }
        if self.audit_every == 0 {
            return Err(crate::Error::InvalidConfig {
                field: "audit_every",
                message: "must be ≥ 1 (0 disables every audit)".into(),
            });
        }
        Ok(())
    }
}

/// One detection event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The flagged account.
    pub account: NodeId,
    /// When the rule fired.
    pub at: Timestamp,
    /// Whether ground truth says the account really is a Sybil.
    pub correct: bool,
}

/// Outcome of a deployment replay.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// All detections in time order.
    pub detections: Vec<Detection>,
    /// Sybils caught.
    pub true_positives: usize,
    /// Normal users flagged.
    pub false_positives: usize,
    /// Sybils that sent ≥ warmup requests but were never flagged.
    pub missed: usize,
    /// Mean hours from account creation to detection (over true
    /// positives).
    pub mean_latency_h: f64,
    /// The rule in force at the end of the replay.
    pub final_rule: ThresholdClassifier,
}

impl DeploymentReport {
    /// Catch rate among eligible Sybils. [`f64::NAN`] when no Sybil ever
    /// became eligible (zero true positives *and* zero missed): an empty
    /// denominator is "nothing to catch", which is not the same claim as
    /// "caught nothing". Callers printing this should render the NaN case
    /// distinctly (see the `repro` deployment table).
    pub fn catch_rate(&self) -> f64 {
        let total = self.true_positives + self.missed;
        if total == 0 {
            f64::NAN
        } else {
            self.true_positives as f64 / total as f64
        }
    }
}

/// Replay a simulation's request log through the streaming detector.
pub fn replay(out: &SimOutput, cfg: &RealtimeConfig) -> DeploymentReport {
    let mut eng = Replayer::new(out, cfg.sanitized(), None);
    for ev in EventStream::new(&out.log) {
        eng.on_event(ev);
    }
    eng.finish()
}

/// Replay with observability: like [`replay`], but tallies the engine's
/// logical activity (events processed, checks run, detections, features
/// computed, adaptive feedback applied, audits sampled) into `obs`, and —
/// when `clock` is given — wall-times feature computation into the
/// `feature_compute` span. The logical tallies never read a clock, so the
/// report *and* the logical metrics stay bit-identical to [`replay`].
pub fn replay_observed(
    out: &SimOutput,
    cfg: &RealtimeConfig,
    obs: &mut sybil_obs::Registry,
    clock: Option<sybil_obs::Clock<'_>>,
) -> DeploymentReport {
    let mut eng = Replayer::new(out, cfg.sanitized(), clock);
    for ev in EventStream::new(&out.log) {
        eng.on_event(ev);
    }
    let counters = std::mem::take(&mut eng.counters);
    let feat_span = std::mem::take(&mut eng.feat_span);
    let report = eng.finish();
    counters.export(obs);
    if clock.is_some() {
        let sid = obs.span("feature_compute");
        obs.record_span_agg(sid, feat_span.count, feat_span.total_s, feat_span.max_s);
    }
    report
}

/// Always-on logical tallies of a detection engine's work. Plain fields
/// (no registry lookups) keep the hot path at an integer add; exported
/// into a [`sybil_obs::Registry`] once per run. Shared with the sharded
/// `sybil-serve` engine so both report the same metric keys — and the
/// summed shard tallies must equal the sequential replay's (the
/// determinism contract extends to logical metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounters {
    /// Stream events consumed (sends + decisions).
    pub events_processed: u64,
    /// Rule evaluations attempted (before the feature gate).
    pub checks_run: u64,
    /// Accounts flagged.
    pub detections: u64,
    /// Checks and audit samples that passed the feature gate (enough
    /// decided requests and friends to judge). Of the checks among them,
    /// only those whose counter conjuncts hold go on to count links.
    pub features_computed: u64,
    /// Adaptive feedback items applied to the threshold trackers.
    pub feedback_applied: u64,
    /// Random audits whose features could be computed.
    pub audits_sampled: u64,
}

impl ReplayCounters {
    /// Add the tallies to their logical counters in `obs`.
    pub fn export(&self, obs: &mut sybil_obs::Registry) {
        for (name, v) in [
            ("events_processed", self.events_processed),
            ("checks_run", self.checks_run),
            ("detections", self.detections),
            ("features_computed", self.features_computed),
            ("feedback_applied", self.feedback_applied),
            ("audits_sampled", self.audits_sampled),
        ] {
            let id = obs.counter(name);
            obs.add(id, v);
        }
    }
}

/// Private wall-span accumulation: count, total seconds, longest single
/// recording.
#[derive(Clone, Copy, Debug, Default)]
struct SpanAgg {
    count: u64,
    total_s: f64,
    max_s: f64,
}

impl SpanAgg {
    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_s += seconds;
        if seconds > self.max_s {
            self.max_s = seconds;
        }
    }
}

/// The sequential engine: one loop owning every account's state.
struct Replayer<'a> {
    out: &'a SimOutput,
    cfg: RealtimeConfig,
    /// Every account's running state; slot = account id.
    states: AccountTable,
    /// Accepted friendships seen so far, as packed undirected keys.
    edges: HashSet<u64>,
    adaptive: AdaptiveThresholds,
    /// Pending verification feedback: (due time, features, truth).
    feedback_queue: VecDeque<(Timestamp, FeatureVector, bool)>,
    report: DeploymentReport,
    processed_sends: usize,
    /// Deterministic pseudo-random audit pointer.
    audit_cursor: usize,
    counters: ReplayCounters,
    /// Injected wall clock; `None` outside observed runs.
    clock: Option<sybil_obs::Clock<'a>>,
    feat_span: SpanAgg,
}

#[cfg(test)]
thread_local! {
    /// Link counts [`Replayer`]s ran on this thread, for the test of the
    /// rule's staging (a test has its thread to itself).
    static LINKS_COUNTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<'a> Replayer<'a> {
    fn new(out: &'a SimOutput, cfg: RealtimeConfig, clock: Option<sybil_obs::Clock<'a>>) -> Self {
        let n = out.accounts.len();
        Replayer {
            out,
            cfg,
            states: AccountTable::new(n),
            edges: HashSet::new(),
            adaptive: AdaptiveThresholds::from_rule(&cfg.rule, 0.02),
            feedback_queue: VecDeque::new(),
            report: DeploymentReport {
                final_rule: cfg.rule,
                ..Default::default()
            },
            processed_sends: 0,
            audit_cursor: 1,
            counters: ReplayCounters::default(),
            clock,
            feat_span: SpanAgg::default(),
        }
    }

    fn on_event(&mut self, ev: StreamEvent) {
        let t = ev.at;
        self.counters.events_processed += 1;
        // Deliver due verification feedback.
        while let Some(&(due, f, truth)) = self.feedback_queue.front() {
            if due <= t {
                self.adaptive.feedback(&f, truth);
                self.counters.feedback_applied += 1;
                self.feedback_queue.pop_front();
            } else {
                break;
            }
        }
        match ev.kind {
            StreamEventKind::Sent(i) => self.on_send(i as usize, t),
            StreamEventKind::Decided(i) => self.on_decide(i as usize, t),
        }
    }

    fn on_send(&mut self, i: usize, t: Timestamp) {
        let r = self.out.log.get(i);
        self.processed_sends += 1;
        let window_s = self.cfg.trailing_window_h * 3600;
        let from = r.from.index();
        if !self.states.detected(from) {
            self.states.on_send(from, r.sent_at, window_s);
            if self.states.should_check_on_send(from, &self.cfg) {
                self.check(r.from, t);
            }
        }
        // Periodic audit: the verification team reviews a random active
        // account, giving normal-side (or extra sybil-side) signal. The
        // cadence is global — counted over *all* processed sends, not tied
        // to the triggering sender's detected status — so any replica that
        // sees the whole stream can step the cursor identically.
        if self.cfg.adaptive && self.processed_sends.is_multiple_of(self.cfg.audit_every) {
            self.audit_cursor = state::advance_audit_cursor(self.audit_cursor, self.out.log.len());
            let sample = self.out.log.get(self.audit_cursor);
            if let Some(f) = self.features_of(sample.from) {
                self.counters.audits_sampled += 1;
                self.feedback_queue.push_back((
                    t.plus_secs(self.cfg.feedback_delay_h * 3600),
                    f,
                    self.out.is_sybil(sample.from),
                ));
            }
        }
    }

    fn on_decide(&mut self, i: usize, t: Timestamp) {
        let r = self.out.log.get(i);
        if r.outcome.is_accepted() {
            self.edges.insert(state::pack_edge(r.from, r.to));
            self.states.on_accept_out(r.from.index(), r.to);
            self.states.on_accept_in(r.to.index(), r.from);
        } else {
            self.states.on_reject_out(r.from.index());
        }
        // Decisions also update the sender's features (ratio and
        // clustering mature long after the last send), so the detector
        // re-evaluates here too.
        let from = r.from.index();
        if !self.states.detected(from) && self.states.should_check_on_decide(from, &self.cfg) {
            self.check(r.from, t);
        }
    }

    /// The sequential link counter: exact pair probes of the edge set.
    fn links(&self, friends: &[NodeId]) -> usize {
        #[cfg(test)]
        LINKS_COUNTED.with(|n| n.set(n.get() + 1));
        state::links_via_edges(friends, &self.edges)
    }

    /// Run `work`, wall-timed into the `feature_compute` span when a
    /// clock was injected.
    fn timed<T>(&mut self, work: impl FnOnce(&Self) -> T) -> T {
        let Some(clock) = self.clock else {
            return work(self);
        };
        let t0 = clock();
        let v = work(self);
        self.feat_span.record(clock() - t0);
        v
    }

    /// The full vector of `who`, for the audit sample.
    fn features_of(&mut self, who: NodeId) -> Option<FeatureVector> {
        let f = self.timed(|eng| {
            eng.states
                .features_with(who.index(), &eng.cfg, |friends| eng.links(friends))
        });
        if f.is_some() {
            self.counters.features_computed += 1;
        }
        f
    }

    fn check(&mut self, who: NodeId, t: Timestamp) {
        self.counters.checks_run += 1;
        let rule = if self.cfg.adaptive {
            self.adaptive.current_rule()
        } else {
            self.cfg.rule
        };
        let verdict = self.timed(|eng| {
            eng.states
                .check_with(who.index(), &eng.cfg, &rule, |friends| eng.links(friends))
        });
        if verdict != Verdict::NoData {
            self.counters.features_computed += 1;
        }
        if let Verdict::Sybil(f) = verdict {
            self.flag(who, t, f);
        }
    }

    /// The rule fired on `who` at `t`, showing features `f`: record the
    /// detection and queue the verification team's answer.
    fn flag(&mut self, who: NodeId, t: Timestamp, f: FeatureVector) {
        let truth = self.out.is_sybil(who);
        self.states.mark_detected(who.index());
        self.counters.detections += 1;
        self.report.detections.push(Detection {
            account: who,
            at: t,
            correct: truth,
        });
        if truth {
            self.report.true_positives += 1;
            self.report.mean_latency_h +=
                t.as_hours() - self.out.accounts[who.index()].created_at.as_hours();
        } else {
            self.report.false_positives += 1;
        }
        if self.cfg.adaptive {
            self.feedback_queue.push_back((
                t.plus_secs(self.cfg.feedback_delay_h * 3600),
                f,
                truth,
            ));
        }
    }

    fn finish(mut self) -> DeploymentReport {
        // Count missed sybils.
        for (i, a) in self.out.accounts.iter().enumerate() {
            if a.is_sybil()
                && self.states.sent(i) as usize >= self.cfg.warmup_requests
                && !self.states.detected(i)
            {
                self.report.missed += 1;
            }
        }
        if self.report.true_positives > 0 {
            self.report.mean_latency_h /= self.report.true_positives as f64;
        }
        self.report.final_rule = if self.cfg.adaptive {
            self.adaptive.current_rule()
        } else {
            self.cfg.rule
        };
        self.report.detections.sort_by_key(|d| d.at);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_sim::{simulate, SimConfig};

    fn rule_for_sim() -> ThresholdClassifier {
        // Scale-calibrated static rule (cc disabled; see threshold.rs docs).
        ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        }
    }

    #[test]
    fn static_deployment_catches_most_sybils_without_false_positives() {
        let out = simulate(SimConfig::tiny(21));
        let cfg = RealtimeConfig {
            rule: rule_for_sim(),
            ..RealtimeConfig::default()
        };
        let report = replay(&out, &cfg);
        assert!(
            report.catch_rate() > 0.5,
            "catch rate {:.2} (tp {} missed {})",
            report.catch_rate(),
            report.true_positives,
            report.missed
        );
        let fp_rate = report.false_positives as f64
            / out.normal_ids().len() as f64;
        assert!(fp_rate < 0.02, "false positive rate {fp_rate}");
        assert!(report.mean_latency_h > 0.0);
    }

    #[test]
    fn detections_are_time_ordered_and_unique() {
        let out = simulate(SimConfig::tiny(22));
        let report = replay(
            &out,
            &RealtimeConfig {
                rule: rule_for_sim(),
                ..RealtimeConfig::default()
            },
        );
        for w in report.detections.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let mut seen = HashSet::new();
        for d in &report.detections {
            assert!(seen.insert(d.account), "account flagged twice");
        }
    }

    #[test]
    fn adaptive_deployment_also_works() {
        let out = simulate(SimConfig::tiny(23));
        let cfg = RealtimeConfig {
            rule: rule_for_sim(),
            adaptive: true,
            ..RealtimeConfig::default()
        };
        let report = replay(&out, &cfg);
        assert!(
            report.catch_rate() > 0.4,
            "adaptive catch rate {:.2}",
            report.catch_rate()
        );
        // The adaptive rule must have moved off its initialization.
        assert!(report.final_rule.min_freq.is_finite());
    }

    #[test]
    fn report_counts_are_consistent() {
        let out = simulate(SimConfig::tiny(24));
        let report = replay(
            &out,
            &RealtimeConfig {
                rule: rule_for_sim(),
                ..RealtimeConfig::default()
            },
        );
        let tp = report.detections.iter().filter(|d| d.correct).count();
        let fp = report.detections.iter().filter(|d| !d.correct).count();
        assert_eq!(tp, report.true_positives);
        assert_eq!(fp, report.false_positives);
    }

    /// The order both engines ran before the rule was staged, kept as the
    /// reference: the whole vector, link count included, for every check
    /// past the feature gate, and only then the rule. The loop around it
    /// is [`Replayer`]'s, restated.
    fn eager_replay(out: &SimOutput, cfg: &RealtimeConfig) -> (DeploymentReport, ReplayCounters) {
        use crate::Classifier;
        fn check(eng: &mut Replayer, who: NodeId, t: Timestamp) {
            eng.counters.checks_run += 1;
            let Some(f) = eng.features_of(who) else {
                return;
            };
            let rule = if eng.cfg.adaptive {
                eng.adaptive.current_rule()
            } else {
                eng.cfg.rule
            };
            if rule.is_sybil(&f) {
                eng.flag(who, t, f);
            }
        }

        let mut eng = Replayer::new(out, cfg.sanitized(), None);
        for ev in EventStream::new(&out.log) {
            let t = ev.at;
            eng.counters.events_processed += 1;
            while let Some(&(due, f, truth)) = eng.feedback_queue.front() {
                if due > t {
                    break;
                }
                eng.adaptive.feedback(&f, truth);
                eng.counters.feedback_applied += 1;
                eng.feedback_queue.pop_front();
            }
            let (sent, r) = match ev.kind {
                StreamEventKind::Sent(i) => (true, out.log.get(i as usize)),
                StreamEventKind::Decided(i) => (false, out.log.get(i as usize)),
            };
            let from = r.from.index();
            if sent {
                eng.processed_sends += 1;
                if !eng.states.detected(from) {
                    eng.states
                        .on_send(from, r.sent_at, eng.cfg.trailing_window_h * 3600);
                    if eng.states.should_check_on_send(from, &eng.cfg) {
                        check(&mut eng, r.from, t);
                    }
                }
                if eng.cfg.adaptive && eng.processed_sends.is_multiple_of(eng.cfg.audit_every) {
                    eng.audit_cursor = state::advance_audit_cursor(eng.audit_cursor, out.log.len());
                    let sample = out.log.get(eng.audit_cursor).from;
                    if let Some(f) = eng.features_of(sample) {
                        eng.counters.audits_sampled += 1;
                        let due = t.plus_secs(eng.cfg.feedback_delay_h * 3600);
                        eng.feedback_queue.push_back((due, f, out.is_sybil(sample)));
                    }
                }
            } else {
                if r.outcome.is_accepted() {
                    eng.edges.insert(state::pack_edge(r.from, r.to));
                    eng.states.on_accept_out(from, r.to);
                    eng.states.on_accept_in(r.to.index(), r.from);
                } else {
                    eng.states.on_reject_out(from);
                }
                if !eng.states.detected(from) && eng.states.should_check_on_decide(from, &eng.cfg) {
                    check(&mut eng, r.from, t);
                }
            }
        }
        let counters = eng.counters;
        (eng.finish(), counters)
    }

    /// The staged rule counts links for a small share of the checks the
    /// eager order counted them for, and decides the same: report and
    /// every logical tally equal the eager reference's, static and
    /// adaptive.
    #[test]
    fn staged_rule_counts_links_for_few_checks_and_matches_the_eager_order() {
        let out = simulate(SimConfig::tiny(26));
        for adaptive in [false, true] {
            let cfg = RealtimeConfig {
                rule: rule_for_sim(),
                adaptive,
                ..RealtimeConfig::default()
            };
            LINKS_COUNTED.set(0);
            let mut eng = Replayer::new(&out, cfg.sanitized(), None);
            EventStream::new(&out.log).for_each(|ev| eng.on_event(ev));
            let (counters, links_counted) = (eng.counters, LINKS_COUNTED.get());
            let report = eng.finish();

            let (eager_report, eager_counters) = eager_replay(&out, &cfg);
            assert_eq!(counters, eager_counters, "adaptive={adaptive}");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&eager_report).unwrap(),
                "adaptive={adaptive}"
            );
            assert!(counters.detections > 0 && counters.features_computed > counters.detections);
            // An audit sample always counts links (the gate asks for 8
            // friends); a check only past the counter conjuncts.
            let by_checks = links_counted - counters.audits_sampled;
            assert!(
                by_checks * 10 <= counters.checks_run,
                "{by_checks} link counts for {} checks (adaptive={adaptive})",
                counters.checks_run
            );
        }
    }

    /// The `check_every: 0` footgun: `is_multiple_of(0)` is false for all
    /// positive counts, so an unsanitized 0 silently disabled every
    /// evaluation. The sanitized engine must treat 0 exactly as 1.
    #[test]
    fn check_every_zero_is_clamped_not_silently_disabled() {
        let out = simulate(SimConfig::tiny(25));
        let zero = RealtimeConfig {
            rule: rule_for_sim(),
            check_every: 0,
            audit_every: 0,
            ..RealtimeConfig::default()
        };
        let one = RealtimeConfig {
            check_every: 1,
            audit_every: 1,
            ..zero
        };
        let r_zero = replay(&out, &zero);
        let r_one = replay(&out, &one);
        assert!(
            !r_zero.detections.is_empty(),
            "check_every=0 must not disable the detector"
        );
        assert_eq!(
            serde_json::to_string(&r_zero).unwrap(),
            serde_json::to_string(&r_one).unwrap(),
            "clamped 0 must behave exactly like 1"
        );
    }

    #[test]
    fn config_validation_rejects_zero_cadences() {
        assert!(RealtimeConfig::default().validate().is_ok());
        let c = RealtimeConfig {
            check_every: 0,
            ..RealtimeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RealtimeConfig {
            audit_every: 0,
            ..RealtimeConfig::default()
        };
        assert!(c.validate().is_err());
        let s = c.sanitized();
        assert_eq!(s.audit_every, 1);
        assert!(s.validate().is_ok());
    }

    /// No eligible Sybils is "nothing to catch", not "caught nothing".
    #[test]
    fn catch_rate_is_nan_when_no_sybil_was_eligible() {
        let empty = DeploymentReport::default();
        assert!(empty.catch_rate().is_nan());
        let some = DeploymentReport {
            true_positives: 3,
            missed: 1,
            ..DeploymentReport::default()
        };
        assert_eq!(some.catch_rate(), 0.75);
        let all_missed = DeploymentReport {
            missed: 4,
            ..DeploymentReport::default()
        };
        assert_eq!(all_missed.catch_rate(), 0.0);
    }
}

#[cfg(test)]
mod synthetic_tests {
    //! Handcrafted request streams exercising the detector's gating logic
    //! precisely (no simulator noise).

    use super::*;
    use osn_sim::{
        Account, AccountKind, Gender, Profile, RequestLog, RequestOutcome, RequestRecord,
        SimConfig, SimOutput, ToolKind,
    };

    /// One request spec: (from, to, sent_h, Some((answered_after_h, accepted))).
    type RequestSpec = (u32, u32, f64, Option<(f64, bool)>);

    /// Build an output with `n` accounts (account 0's kind is chosen) and
    /// the given request tuples.
    fn synthetic(n: usize, zero_is_sybil: bool, requests: &[RequestSpec]) -> SimOutput {
        let normal = Account {
            kind: AccountKind::Normal,
            profile: Profile::new(Gender::Male, 0.4),
            created_at: Timestamp::ZERO,
            banned_at: None,
            accept_tendency: 0.7,
            sociability: 1.0,
        };
        let mut accounts = vec![normal.clone(); n];
        if zero_is_sybil {
            accounts[0].kind = AccountKind::Sybil {
                attacker: 0,
                tool: ToolKind::MarketingAssistant,
            };
        }
        let mut graph = osn_graph::TemporalGraph::with_nodes(n);
        let mut log = RequestLog::new();
        let mut rows: Vec<_> = requests.to_vec();
        rows.sort_by(|a, b| a.2.total_cmp(&b.2));
        for &(from, to, sent_h, decision) in &rows {
            let idx = log.push(RequestRecord {
                from: NodeId(from),
                to: NodeId(to),
                sent_at: Timestamp::from_hours_f64(sent_h),
                outcome: RequestOutcome::Pending,
            });
            if let Some((after_h, accepted)) = decision {
                let t = Timestamp::from_hours_f64(sent_h + after_h);
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

    fn strict_rule() -> RealtimeConfig {
        RealtimeConfig {
            rule: ThresholdClassifier {
                max_out_ratio: 0.5,
                min_freq: 20.0,
                max_cc: f64::INFINITY,
            },
            warmup_requests: 20,
            check_every: 1,
            min_decided: 10,
            min_friends: 4,
            ..RealtimeConfig::default()
        }
    }

    /// A burst of 40 requests in one hour, 12 decided (3 accepted): fires.
    #[test]
    fn bursty_low_acceptance_account_is_flagged() {
        let mut reqs = Vec::new();
        for i in 0..40u32 {
            let accepted = i < 5; // 5 accepts (≥ min_friends), 9 rejects
            let decision = if i < 14 {
                Some((0.5, accepted))
            } else {
                None
            };
            reqs.push((0, i + 1, 0.01 * i as f64, decision));
        }
        let out = synthetic(64, true, &reqs);
        let report = replay(&out, &strict_rule());
        assert_eq!(report.true_positives, 1, "the bursty sybil must be caught");
        assert_eq!(report.false_positives, 0);
    }

    /// The same burst shape but only 15 requests: warmup keeps it silent.
    #[test]
    fn warmup_gates_small_senders() {
        let mut reqs = Vec::new();
        for i in 0..15u32 {
            reqs.push((0, i + 1, 0.01 * i as f64, Some((0.5, i < 2))));
        }
        let out = synthetic(32, true, &reqs);
        let report = replay(&out, &strict_rule());
        assert!(report.detections.is_empty(), "below warmup must not fire");
        assert_eq!(report.missed, 0, "sub-warmup sybils are not 'missed'");
    }

    /// A slow sender with identical totals never crosses the rate cut.
    #[test]
    fn slow_sender_is_not_flagged() {
        let mut reqs = Vec::new();
        for i in 0..40u32 {
            // One request every 5 hours.
            let decision = if i < 12 { Some((0.5, i < 3)) } else { None };
            reqs.push((0, i + 1, 5.0 * i as f64, decision));
        }
        let out = synthetic(64, false, &reqs);
        let report = replay(&out, &strict_rule());
        assert!(report.detections.is_empty(), "slow sender must pass");
    }

    /// Ratio gating: a bursty account whose requests are mostly accepted
    /// (popular user on a friending spree) is spared by the ratio cut.
    #[test]
    fn bursty_but_welcome_account_is_spared() {
        let mut reqs = Vec::new();
        for i in 0..40u32 {
            let decision = if i < 20 { Some((0.4, true)) } else { None };
            reqs.push((0, i + 1, 0.01 * i as f64, decision));
        }
        let out = synthetic(64, false, &reqs);
        let report = replay(&out, &strict_rule());
        assert!(
            report.detections.is_empty(),
            "high-acceptance bursts are not sybil-like"
        );
    }

    /// min_decided gating: a burst with no decisions yet cannot fire.
    #[test]
    fn undecided_requests_do_not_trigger() {
        let mut reqs = Vec::new();
        for i in 0..40u32 {
            reqs.push((0, i + 1, 0.01 * i as f64, None));
        }
        let out = synthetic(64, true, &reqs);
        let report = replay(&out, &strict_rule());
        assert!(report.detections.is_empty());
    }
}
