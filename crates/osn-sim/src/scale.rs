//! Deterministic synthetic workload generator for million-account scale.
//!
//! The full behavioral simulator ([`crate::simulate`]) models targeting
//! channels, profiles, and ban dynamics — faithful, but far too slow to
//! exercise the serving substrate at the paper's production scale
//! (hundreds of millions of accounts on Renren; millions here). Scale
//! benchmarking needs a workload that is *shaped* like a simulator run —
//! send-ordered request log, well-formed decisions, over-sending Sybils
//! with low acceptance, a connected normal population — but generated in
//! O(requests) time with O(1) state per request, so a 5M-account /
//! 20M-request log materializes in seconds.
//!
//! Everything is derived from a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)-style
//! hash of `(seed, counter)`, so generation is bit-reproducible, and
//! epoch-by-epoch in send order: the generator never holds more than the
//! one record it is emitting (the [`RequestLog`] it fills is the
//! product, not working state).

use crate::account::{Account, AccountKind};
use crate::config::SimConfig;
use crate::log::RequestLog;
use crate::output::{EngineStats, SimOutput};
use crate::profile::{Gender, Profile};
use crate::request::{RequestOutcome, RequestRecord};
use crate::tools::ToolKind;
use osn_graph::{NodeId, TemporalGraph, Timestamp};

pub use osn_graph::hash::splitmix64;

/// Parameters of a synthetic scale workload.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Total accounts (normal + Sybil).
    pub accounts: usize,
    /// One in `sybil_every` accounts is a Sybil (≥ 2).
    pub sybil_every: usize,
    /// Mean friend requests per account.
    pub requests_per_account: f64,
    /// Simulated span in hours; sends spread uniformly over it.
    pub hours: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// Default shape at a given account count: 2% Sybils, 4 requests per
    /// account, a 4000 h window (the paper-scale simulation's span).
    pub fn at(accounts: usize, seed: u64) -> Self {
        ScaleConfig {
            accounts,
            sybil_every: 50,
            requests_per_account: 4.0,
            hours: 4000,
            seed,
        }
    }
}

/// `i`-th draw for this config, uniform in `[0, m)`.
#[inline]
fn draw(seed: u64, i: u64, m: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i)) % m
}

/// Whether account `a` is a Sybil under `cfg`.
#[inline]
fn is_sybil(cfg: &ScaleConfig, a: usize) -> bool {
    a % cfg.sybil_every == cfg.sybil_every - 1
}

/// Generate a synthetic [`SimOutput`] whose log drives the serving and
/// replay engines exactly like a simulator run (send-ordered records,
/// decisions at or after sends, no self-requests).
///
/// Workload shape: Sybils send ~8× their per-account share and target
/// uniformly (low accept odds ⇒ low outgoing-accept ratio, near-zero
/// clustering); normal users target a locality window around their own id
/// (repeat pairs and triangles ⇒ non-trivial clustering), accept readily,
/// and answer within three days. The `graph` field carries the accepted
/// edges only if `accounts` is small; above
/// [`GRAPH_MATERIALIZE_LIMIT`] it stays edge-free (the serving engines
/// never read it — they rebuild edge state from the log).
pub fn generate(cfg: &ScaleConfig) -> SimOutput {
    let n = cfg.accounts;
    assert!(n >= 4, "scale workload needs at least 4 accounts");
    assert!(cfg.sybil_every >= 2, "sybil_every must be ≥ 2");
    let seed = splitmix64(cfg.seed ^ 0xC0FF_EE00_5CA1_E000);
    let span_s = cfg.hours.max(1) * 3600;
    let arrival_s = span_s * 3 / 5; // accounts appear in the first 60%

    let mut accounts = Vec::with_capacity(n);
    for a in 0..n {
        let kind = if is_sybil(cfg, a) {
            AccountKind::Sybil {
                attacker: (a % 17) as u32,
                tool: ToolKind::MarketingAssistant,
            }
        } else {
            AccountKind::Normal
        };
        let h = splitmix64(seed ^ 0xACC0 ^ a as u64);
        accounts.push(Account {
            kind,
            profile: Profile::new(
                if h & 1 == 0 {
                    Gender::Female
                } else {
                    Gender::Male
                },
                (h >> 8 & 0xFF) as f64 / 255.0,
            ),
            created_at: Timestamp((h >> 16) % arrival_s),
            banned_at: None,
            accept_tendency: if kind.is_sybil() {
                1.0
            } else {
                0.5 + ((h >> 24 & 0xFF) as f64 / 512.0)
            },
            sociability: 1.0,
        });
    }

    let total = (n as f64 * cfg.requests_per_account) as u64;
    let mut log = RequestLog::new();
    for i in 0..total {
        // Sends spread uniformly: the log is emitted already time-sorted.
        let sent_at = Timestamp(arrival_s / 4 + (i * (span_s - arrival_s / 4)) / total.max(1));
        // Sybils are ~2% of accounts but send ~16% of requests.
        let from = if draw(seed ^ 0x5E9D, i, 100) < 16 {
            let k = draw(seed ^ 0x5B11, i, (n / cfg.sybil_every) as u64) as usize;
            k * cfg.sybil_every + cfg.sybil_every - 1
        } else {
            let a = draw(seed ^ 0x90F1, i, n as u64) as usize;
            if is_sybil(cfg, a) {
                (a + 1) % n
            } else {
                a
            }
        };
        let sender_sybil = is_sybil(cfg, from);
        // Normal users befriend a window around their own id — repeat
        // pairs across users close triangles; Sybils spray uniformly.
        let to = if sender_sybil {
            let t = draw(seed ^ 0x7A40, i, n as u64 - 1) as usize;
            if t >= from {
                t + 1
            } else {
                t
            }
        } else {
            let w = 1 + draw(seed ^ 0x10CA1, i, 24) as usize;
            let t = (from + w) % n;
            if t == from {
                (t + 1) % n
            } else {
                t
            }
        };
        // The outcome is a pure function of (seed, i), written with the
        // record. (accept, reject) percentages; the rest stay pending
        // forever. Sybil requests mostly bounce (paper §2.2: ~26%
        // accepted vs ~79% for normal users).
        let roll = draw(seed ^ 0xDEC1DE, i, 100);
        let (accept, reject) = if sender_sybil { (12, 58) } else { (72, 18) };
        let decided_at = || Timestamp(sent_at.as_secs() + 60 + draw(seed ^ 0xDE1A4, i, 72 * 3600));
        let outcome = if roll < accept {
            RequestOutcome::Accepted(decided_at())
        } else if roll < accept + reject {
            RequestOutcome::Rejected(decided_at())
        } else {
            RequestOutcome::Pending
        };
        log.push(RequestRecord {
            from: NodeId(from as u32),
            to: NodeId(to as u32),
            sent_at,
            outcome,
        });
    }

    let mut graph = TemporalGraph::with_nodes(n);
    if n <= GRAPH_MATERIALIZE_LIMIT {
        // Small runs (tests) get the real accepted-edge graph; edges are
        // added in acceptance-time order like the simulator does.
        let mut accepts: Vec<(Timestamp, u32)> = log
            .records()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.outcome.decided_at().map(|t| (t, i as u32)))
            .filter(|&(_, i)| log.get(i as usize).outcome.is_accepted())
            .collect();
        accepts.sort_unstable();
        for (t, i) in accepts {
            let r = log.get(i as usize);
            let _ = graph.add_edge(r.from, r.to, t);
        }
    }

    SimOutput {
        config: SimConfig {
            seed: cfg.seed,
            hours: cfg.hours,
            n_normal: n - n / cfg.sybil_every,
            n_sybil: n / cfg.sybil_every,
            ..SimConfig::tiny(cfg.seed)
        },
        graph,
        accounts,
        log,
        engine_stats: EngineStats::default(),
    }
}

/// Above this account count [`generate`] leaves `SimOutput::graph`
/// edge-free: the serving/replay engines rebuild edge state from the log,
/// and a multi-million-node mutable adjacency would only burn memory.
pub const GRAPH_MATERIALIZE_LIMIT: usize = 100_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{EpochBatches, EventStream};

    #[test]
    fn workload_is_deterministic_and_well_formed() {
        let cfg = ScaleConfig::at(2_000, 7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(a.log.records(), b.log.records());
        assert_eq!(a.accounts.len(), 2_000);
        for (i, r) in a.log.records().iter().enumerate() {
            assert_ne!(r.from, r.to, "no self requests (record {i})");
            if let Some(d) = r.outcome.decided_at() {
                assert!(r.sent_at <= d, "decision before send (record {i})");
            }
        }
        // Send order is the log order (push() debug-asserts it too).
        for w in a.log.records().windows(2) {
            assert!(w[0].sent_at <= w[1].sent_at);
        }
    }

    #[test]
    fn sybils_oversend_and_underperform() {
        let cfg = ScaleConfig::at(5_000, 11);
        let out = generate(&cfg);
        let n_sybil = (0..cfg.accounts).filter(|&a| is_sybil(&cfg, a)).count();
        assert_eq!(n_sybil, 100);
        let mut sybil_sends = 0usize;
        let (mut s_acc, mut s_dec, mut n_acc, mut n_dec) = (0usize, 0usize, 0usize, 0usize);
        for r in out.log.records() {
            let sybil = out.accounts[r.from.index()].is_sybil();
            sybil_sends += usize::from(sybil);
            if r.outcome.is_resolved() {
                if sybil {
                    s_dec += 1;
                    s_acc += usize::from(r.outcome.is_accepted());
                } else {
                    n_dec += 1;
                    n_acc += usize::from(r.outcome.is_accepted());
                }
            }
        }
        let share = sybil_sends as f64 / out.log.len() as f64;
        assert!(share > 0.10 && share < 0.25, "sybil send share {share}");
        let s_ratio = s_acc as f64 / s_dec as f64;
        let n_ratio = n_acc as f64 / n_dec as f64;
        assert!(
            s_ratio + 0.3 < n_ratio,
            "accept separation: sybil {s_ratio} normal {n_ratio}"
        );
    }

    #[test]
    fn generated_stream_is_mergeable_both_ways() {
        let out = generate(&ScaleConfig::at(1_500, 3));
        let eager: Vec<_> = EventStream::new(&out.log).collect();
        let mut batches = EpochBatches::new(&out.log, 48 * 3600);
        let mut batched = Vec::new();
        while let Some((events, _)) = batches.next_epoch() {
            batched.extend_from_slice(events);
        }
        assert_eq!(eager, batched);
    }

    #[test]
    fn small_runs_materialize_the_accept_graph() {
        let out = generate(&ScaleConfig::at(1_000, 5));
        let accepted = out
            .log
            .records()
            .iter()
            .filter(|r| r.outcome.is_accepted())
            .count();
        assert!(accepted > 0);
        // Repeat pairs collapse into one edge, so edges ≤ accepted.
        assert!(out.graph.num_edges() > 0);
        assert!(out.graph.num_edges() <= accepted);
    }
}
