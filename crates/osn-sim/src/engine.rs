//! The discrete-event simulation engine.
//!
//! One event loop drives four actor types — normal users, Sybils, their
//! attackers' tools, and Renren's ban process — over a shared
//! [`TemporalGraph`] and [`RequestLog`]. Events are processed in strict
//! time order (ties broken by scheduling order), so a run is a pure
//! function of its [`SimConfig`].
//!
//! The causal chain that produces the paper's topology findings:
//!
//! 1. tools snowball-crawl the live graph for *popular* targets
//!    (`Simulator::refill_attacker`);
//! 2. successful Sybils become popular, so crawls occasionally return other
//!    attackers' Sybils;
//! 3. Sybils auto-accept everything (`Simulator::handle_response`);
//! 4. ⇒ accidental Sybil edges, scattered uniformly over each Sybil's
//!    lifetime (Fig. 8), forming one loose giant component (Figs. 6, 9).

use crate::account::{Account, AccountKind};
use crate::config::SimConfig;
use crate::distr;
use crate::events::{Event, EventQueue};
use crate::log::RequestLog;
use crate::output::{EngineStats, SimOutput};
use crate::profile::{Gender, Profile};
use crate::request::{RequestOutcome, RequestRecord};
use crate::tools::ToolKind;
use osn_graph::hash::{pack_pair, PairBuildHasher};
use osn_graph::sampling::{self, SnowballConfig};
use osn_graph::{NodeId, TemporalGraph, Timestamp};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{HashSet, VecDeque};
use sybil_obs::{CounterId, HistId, Registry, Snapshot};

/// Seconds per histogram bucket of `requests_by_week`.
const WEEK_SECS: u64 = 7 * 24 * 3600;

/// Handles into the engine's always-on metric registry. The counters are
/// *logical* quantities (what happened, not when in wall time), so their
/// snapshot is a pure function of the [`SimConfig`], like every other
/// simulator output.
struct SimMetrics {
    /// Friend requests issued (all actor types).
    requests_sent: CounterId,
    /// Requests resolved accepted (including crossed-request confirms).
    requests_accepted: CounterId,
    /// Requests resolved rejected.
    requests_rejected: CounterId,
    /// Sybil tool batch refills (one per burst-size draw).
    tool_batches: CounterId,
    /// Normal-user targets chosen through the friend-of-friend path.
    triadic_closures: CounterId,
    /// Histogram of request send times, one bucket per simulated week.
    requests_by_week: HistId,
}

impl SimMetrics {
    fn new(reg: &mut Registry, end: Timestamp) -> Self {
        let weeks = (end.as_secs() / WEEK_SECS + 1) as usize;
        SimMetrics {
            requests_sent: reg.counter("requests_sent"),
            requests_accepted: reg.counter("requests_accepted"),
            requests_rejected: reg.counter("requests_rejected"),
            tool_batches: reg.counter("tool_batches"),
            triadic_closures: reg.counter("triadic_closures"),
            requests_by_week: reg.histogram("requests_by_week", WEEK_SECS, weeks),
        }
    }
}

/// Per-attacker runtime state.
#[derive(Debug)]
struct AttackerState {
    tool: ToolKind,
    sybils: Vec<u32>,
    targets: VecDeque<NodeId>,
    intentional: bool,
    start: Timestamp,
    interlinked: bool,
}

/// Per-Sybil runtime state (indexed by `account_id - n_normal`).
#[derive(Debug, Clone, Copy)]
struct SybilState {
    budget_left: u32,
    burst_left: u32,
    sent: u32,
    ban_scheduled: bool,
    evader: bool,
}

/// The discrete-event simulator. Construct with [`Simulator::new`], run to
/// completion with [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    rng: StdRng,
    graph: TemporalGraph,
    accounts: Vec<Account>,
    log: RequestLog,
    queue: EventQueue,
    /// Unordered account pairs that have ever exchanged a request; prevents
    /// duplicate invitations (Renren disallows re-inviting).
    requested: HashSet<u64, PairBuildHasher>,
    /// Account ids sorted by creation time; the prefix `..active_len` is
    /// the currently-registered population.
    arrival_order: Vec<u32>,
    active_len: usize,
    attackers: Vec<AttackerState>,
    sybils: Vec<SybilState>,
    end: Timestamp,
    estats: EngineStats,
    obs: Registry,
    metrics: SimMetrics,
}

impl Simulator {
    /// Build a simulator: creates all accounts and attackers and schedules
    /// the initial events. Panics if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let end = Timestamp::from_hours(cfg.hours);
        let total = cfg.total_accounts();
        let mut accounts: Vec<Account> = Vec::with_capacity(total);

        // --- Normal users -------------------------------------------------
        let arrival_span = cfg.arrival_frac * cfg.hours as f64;
        for _ in 0..cfg.n_normal {
            let created = Timestamp::from_hours_f64(rng.random_range(0.0..arrival_span.max(1e-9)));
            let gender = if rng.random_bool(cfg.normal.female_frac) {
                Gender::Female
            } else {
                Gender::Male
            };
            accounts.push(Account {
                kind: AccountKind::Normal,
                profile: Profile::new(gender, distr::beta(&mut rng, 2.0, 3.5)),
                created_at: created,
                banned_at: None,
                accept_tendency: distr::beta(
                    &mut rng,
                    cfg.normal.tendency_alpha,
                    cfg.normal.tendency_beta,
                ),
                sociability: distr::log_normal(&mut rng, 0.0, cfg.normal.sociability_sigma)
                    .clamp(0.1, 10.0),
            });
        }

        // --- Attackers and their Sybils -----------------------------------
        let mut attackers: Vec<AttackerState> = Vec::new();
        let mut sybil_states: Vec<SybilState> = Vec::with_capacity(cfg.n_sybil);
        let mut remaining = cfg.n_sybil;
        let win_lo = cfg.attacker_start_frac * cfg.hours as f64;
        let win_hi = (cfg.attacker_end_frac * cfg.hours as f64).max(win_lo + 1e-9);
        while remaining > 0 {
            let size = (1 + distr::geometric_count(
                &mut rng,
                (cfg.attacker.sybils_per_attacker_mean - 1.0).max(0.0),
            ))
            .min(remaining);
            // Deterministic share: attacker i is an intentional interlinker
            // when the cumulative count ⌊(i+1)·frac⌋ advances. This keeps
            // the configured share exact even for small attacker counts
            // (a Bernoulli draw frequently yields zero interlinkers, which
            // erases Fig. 8's "handful" of circled accounts).
            let idx = attackers.len() as f64;
            let frac = cfg.attacker.intentional_frac;
            let intentional = ((idx + 1.0) * frac).floor() > (idx * frac).floor();
            let tool = if intentional {
                ToolKind::AlmightyAssistant
            } else {
                weighted_tool(&mut rng, &cfg.attacker.tool_mix)
            };
            let start = Timestamp::from_hours_f64(rng.random_range(win_lo..win_hi));
            let attacker_idx = attackers.len() as u32;
            let mut ids = Vec::with_capacity(size);
            for _ in 0..size {
                let id = accounts.len() as u32;
                ids.push(id);
                let gender = if rng.random_bool(cfg.sybil.female_frac) {
                    Gender::Female
                } else {
                    Gender::Male
                };
                accounts.push(Account {
                    kind: AccountKind::Sybil {
                        attacker: attacker_idx,
                        tool,
                    },
                    profile: Profile::new(gender, rng.random_range(cfg.sybil.attract_min..=1.0)),
                    created_at: start,
                    banned_at: None,
                    accept_tendency: 1.0,
                    sociability: 1.0,
                });
                // A small fraction of Sybils evade detection far longer and
                // run far larger budgets; they become the hub Sybils that
                // absorb most accidental Sybil edges (Fig. 9's tail).
                let evader = rng.random_range(0.0..1.0) < cfg.sybil.evader_frac;
                let budget = if evader {
                    rng.random_range(cfg.sybil.evader_budget.0..=cfg.sybil.evader_budget.1)
                } else {
                    distr::log_normal(
                        &mut rng,
                        cfg.sybil.budget_lognorm_mu,
                        cfg.sybil.budget_lognorm_sigma,
                    )
                    .round()
                    .clamp(20.0, cfg.sybil.budget_cap as f64) as u32
                };
                sybil_states.push(SybilState {
                    budget_left: budget,
                    burst_left: 0,
                    sent: 0,
                    ban_scheduled: false,
                    evader,
                });
            }
            attackers.push(AttackerState {
                tool,
                sybils: ids,
                targets: VecDeque::new(),
                intentional,
                start,
                interlinked: false,
            });
            remaining -= size;
        }

        // --- Arrival order and graph nodes --------------------------------
        let mut arrival_order: Vec<u32> = (0..total as u32).collect();
        arrival_order.sort_by_key(|&i| (accounts[i as usize].created_at, i));
        let graph = TemporalGraph::with_nodes(total);

        // --- Initial events ------------------------------------------------
        let mut queue = EventQueue::new();
        for i in 0..cfg.n_normal as u32 {
            queue.schedule(
                accounts[i as usize].created_at,
                Event::NormalActivity { user: i },
            );
        }
        for (a, st) in attackers.iter().enumerate() {
            queue.schedule(st.start, Event::AttackerRefill { attacker: a as u32 });
            for &s in &st.sybils {
                let jitter = rng.random_range(600..7200); // 10 min – 2 h
                queue.schedule(st.start.plus_secs(jitter), Event::SybilBurst { sybil: s });
            }
        }

        let mut obs = Registry::new();
        let metrics = SimMetrics::new(&mut obs, end);
        Simulator {
            cfg,
            rng,
            graph,
            accounts,
            log: RequestLog::new(),
            queue,
            requested: HashSet::default(),
            arrival_order,
            active_len: 0,
            attackers,
            sybils: sybil_states,
            end,
            estats: EngineStats::default(),
            obs,
            metrics,
        }
    }

    /// Run the event loop to completion and return the collected output.
    pub fn run(self) -> SimOutput {
        self.run_observed().0
    }

    /// Run to completion and also return the engine's metric snapshot
    /// (requests sent/accepted/rejected, tool batches, triadic closures,
    /// per-week request histogram). All metrics are logical, so the
    /// snapshot is as deterministic as the output itself.
    pub fn run_observed(mut self) -> (SimOutput, Snapshot) {
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.end {
                break; // events pop in time order; the rest are later still
            }
            self.advance_active(t);
            match ev {
                Event::NormalActivity { user } => self.handle_normal_activity(user, t),
                Event::SybilBurst { sybil } => self.handle_sybil_burst(sybil, t),
                Event::Response { request } => self.handle_response(request as usize, t),
                Event::AttackerRefill { attacker } => self.handle_refill(attacker as usize, t),
                Event::Ban { sybil } => self.handle_ban(sybil, t),
            }
        }
        let snapshot = self.obs.snapshot();
        (
            SimOutput {
                config: self.cfg,
                graph: self.graph,
                accounts: self.accounts,
                log: self.log,
                engine_stats: self.estats,
            },
            snapshot,
        )
    }

    // ---------------------------------------------------------------------
    // population bookkeeping

    fn advance_active(&mut self, now: Timestamp) {
        while self.active_len < self.arrival_order.len() {
            let id = self.arrival_order[self.active_len] as usize;
            if self.accounts[id].created_at <= now {
                self.active_len += 1;
            } else {
                break;
            }
        }
    }

    fn random_active(&mut self) -> Option<NodeId> {
        if self.active_len == 0 {
            return None;
        }
        let i = self.rng.random_range(0..self.active_len);
        Some(NodeId(self.arrival_order[i]))
    }

    fn acct(&self, n: NodeId) -> &Account {
        &self.accounts[n.index()]
    }

    fn valid_target(&self, from: NodeId, to: NodeId, now: Timestamp) -> bool {
        from != to
            && !self.acct(to).banned_by(now)
            && !self.graph.has_edge(from, to)
            && !self.requested.contains(&pack_pair(from, to))
    }

    // ---------------------------------------------------------------------
    // normal users

    fn handle_normal_activity(&mut self, user: u32, now: Timestamp) {
        let u = NodeId(user);
        if self.acct(u).banned_by(now) {
            return;
        }
        let k = distr::geometric_count(&mut self.rng, self.cfg.normal.reqs_per_activity_mean);
        for _ in 0..k {
            if let Some(v) = self.pick_normal_target(u, now) {
                self.send_request(u, v, now);
            }
        }
        if self.rng.random_range(0.0..1.0) < self.cfg.normal.p_attractive_browse {
            if let Some(v) = self.pick_attractive_target(u, now) {
                self.send_request(u, v, now);
            }
        }
        let gap_h = self.cfg.normal.activity_gap_mean_h / self.acct(u).sociability;
        let next = now.plus_secs((distr::exponential(&mut self.rng, gap_h) * 3600.0) as u64);
        if next <= self.end {
            self.queue.schedule(next, Event::NormalActivity { user });
        }
    }

    /// Target selection mix: friend-of-friend (triadic closure), degree-
    /// weighted stranger (preferential attachment), uniform stranger.
    fn pick_normal_target(&mut self, u: NodeId, now: Timestamp) -> Option<NodeId> {
        let roll: f64 = self.rng.random_range(0.0..1.0);
        let p = &self.cfg.normal;
        if roll < p.p_fof && self.graph.degree(u) > 0 {
            for _ in 0..4 {
                let nb = self.graph.neighbors(u);
                let f = nb[self.rng.random_range(0..nb.len())].node;
                let fnb = self.graph.neighbors(f);
                if fnb.is_empty() {
                    continue;
                }
                let v = fnb[self.rng.random_range(0..fnb.len())].node;
                if self.valid_target(u, v, now) {
                    self.obs.incr(self.metrics.triadic_closures);
                    return Some(v);
                }
            }
            return None;
        }
        if roll < p.p_fof + p.p_pref && self.graph.num_edges() > 0 {
            for _ in 0..4 {
                if let Some(v) = sampling::degree_weighted_sample(&self.graph, &mut self.rng) {
                    if self.valid_target(u, v, now) {
                        return Some(v);
                    }
                }
            }
            return None;
        }
        for _ in 0..4 {
            if let Some(v) = self.random_active() {
                if self.valid_target(u, v, now) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// People-browsing: sample a handful of profiles, approach the most
    /// attractive stranger. This is how Sybils *receive* requests.
    fn pick_attractive_target(&mut self, u: NodeId, now: Timestamp) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for _ in 0..8 {
            if let Some(v) = self.random_active() {
                if self.valid_target(u, v, now) {
                    let a = self.acct(v).profile.attractiveness;
                    if best.is_none_or(|(ba, _)| a > ba) {
                        best = Some((a, v));
                    }
                }
            }
        }
        best.map(|(_, v)| v)
    }

    // ---------------------------------------------------------------------
    // request lifecycle

    fn send_request(&mut self, from: NodeId, to: NodeId, now: Timestamp) {
        debug_assert!(self.valid_target(from, to, now));
        self.requested.insert(pack_pair(from, to));
        self.obs.incr(self.metrics.requests_sent);
        self.obs
            .observe(self.metrics.requests_by_week, now.as_secs());
        let idx = self.log.push(RequestRecord {
            from,
            to,
            sent_at: now,
            outcome: RequestOutcome::Pending,
        });
        let delay_h = if self.acct(to).is_sybil() {
            distr::exponential(&mut self.rng, self.cfg.sybil.response_delay_mean_h)
        } else {
            if self.rng.random_range(0.0..1.0) < self.cfg.normal.p_ignore {
                return; // recipient never answers
            }
            distr::exponential(&mut self.rng, self.cfg.normal.response_delay_mean_h)
        };
        let at = now.plus_secs((delay_h * 3600.0) as u64);
        if at <= self.end {
            self.queue.schedule(
                at,
                Event::Response {
                    request: idx as u32,
                },
            );
        }
    }

    fn handle_response(&mut self, idx: usize, now: Timestamp) {
        let r = *self.log.get(idx);
        // A banned endpoint can no longer act; the request stays pending —
        // this is the <100% incoming-accept tail of Fig. 3.
        if self.acct(r.from).banned_by(now) || self.acct(r.to).banned_by(now) {
            return;
        }
        if self.graph.has_edge(r.from, r.to) {
            // Already friends (reverse request crossed); treat as confirmed.
            self.log.resolve(idx, RequestOutcome::Accepted(now));
            self.obs.incr(self.metrics.requests_accepted);
            return;
        }
        let accept = if self.acct(r.to).is_sybil() {
            true // Sybils accept every incoming request (§2.2, Fig. 3)
        } else {
            let p = self.acceptance_probability(r.from, r.to);
            self.rng.random_range(0.0..1.0) < p
        };
        if accept {
            self.log.resolve(idx, RequestOutcome::Accepted(now));
            self.obs.incr(self.metrics.requests_accepted);
            self.graph
                .add_edge(r.from, r.to, now)
                .expect("has_edge checked above");
        } else {
            self.log.resolve(idx, RequestOutcome::Rejected(now));
            self.obs.incr(self.metrics.requests_rejected);
        }
    }

    /// Probability that normal user `to` confirms a request from `from`.
    fn acceptance_probability(&self, from: NodeId, to: NodeId) -> f64 {
        let p = &self.cfg.normal;
        let recv = self.acct(to);
        let send = self.acct(from);
        let tendency_factor = (0.35 + 0.9 * recv.accept_tendency).min(1.2);
        let gender_factor = if send.profile.gender != recv.profile.gender {
            p.opposite_gender_boost
        } else {
            1.0
        };
        let deg_recv = self.graph.degree(to) as f64;
        if send.is_sybil() {
            let sp = &self.cfg.sybil;
            let base =
                (sp.accept_base + sp.accept_deg_coef * (1.0 + deg_recv).ln()).min(sp.accept_cap);
            let attract = 0.45 + 0.7 * send.profile.attractiveness;
            (base * attract * gender_factor * tendency_factor).clamp(0.0, 0.95)
        } else if self.graph.has_mutual_friend(from, to) {
            (p.accept_mutual * tendency_factor).clamp(0.0, 0.98)
        } else {
            let base = (p.accept_stranger_base
                + p.accept_stranger_deg_coef * (1.0 + deg_recv).ln())
            .min(p.accept_stranger_cap);
            let attract = 0.8 + 0.4 * send.profile.attractiveness;
            (base * attract * gender_factor * tendency_factor).clamp(0.0, 0.95)
        }
    }

    // ---------------------------------------------------------------------
    // Sybils and attackers

    fn handle_sybil_burst(&mut self, sybil: u32, now: Timestamp) {
        let s = NodeId(sybil);
        let si = sybil as usize - self.cfg.n_normal;
        if self.acct(s).banned_by(now) || self.sybils[si].budget_left == 0 {
            return;
        }
        let attacker = self.acct(s).attacker().expect("sybil has attacker") as usize;
        let spec = *self.attackers[attacker].tool.spec();
        if self.sybils[si].burst_left == 0 {
            // Tools send configured batch sizes with modest jitter (a
            // geometric draw would make most bursts tiny, diluting the
            // invitation-frequency signature of Fig. 1). Stealthy attackers
            // scale batches down along with the rate.
            let stealth = self.cfg.sybil.stealth_rate_mult.clamp(0.01, 10.0);
            self.sybils[si].burst_left =
                (spec.burst_size_mean * stealth * self.rng.random_range(0.7..1.3))
                    .round()
                    .max(1.0) as u32;
            self.obs.incr(self.metrics.tool_batches);
        }
        // Tools mix "super node" friending (crawled popular targets) with
        // bulk friending of ordinary browsed users. They never request the
        // attacker's own accounts — the tool manages that farm itself.
        let own =
            |eng: &Self, v: NodeId| eng.accounts[v.index()].attacker() == Some(attacker as u32);
        let want_popular = self.rng.random_range(0.0..1.0) < spec.popular_mix;
        let mut target: Option<NodeId> = None;
        let mut target_popular = false;
        // Try the chosen mode first, then the other; a tool only stalls
        // when neither the crawl queue nor browsing yields a target.
        for mode_popular in [want_popular, !want_popular] {
            if target.is_some() {
                break;
            }
            if mode_popular {
                // Pop crawled targets until one is still valid, refilling
                // the shared queue as needed.
                let mut refilled = false;
                loop {
                    match self.attackers[attacker].targets.pop_front() {
                        Some(v) if self.valid_target(s, v, now) && !own(self, v) => {
                            target = Some(v);
                            target_popular = true;
                            break;
                        }
                        Some(_) => continue, // stale (banned/duplicate/own)
                        None if !refilled => {
                            self.refill_attacker(attacker, now);
                            refilled = true;
                        }
                        None => break,
                    }
                }
            } else {
                // Bulk mode: browse *established* ordinary users (tools
                // skip fresh, empty-looking profiles).
                let min_age = (self.cfg.attacker.min_target_age_h * 3600.0) as u64;
                for _ in 0..8 {
                    if let Some(v) = self.random_active() {
                        let old_enough = self.acct(v).created_at.plus_secs(min_age) <= now;
                        if old_enough && self.valid_target(s, v, now) && !own(self, v) {
                            target = Some(v);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(v) = target {
            let target_is_sybil = self.acct(v).is_sybil();
            if target_popular {
                self.estats.popular_requests += 1;
                self.estats.popular_sybil_targets += target_is_sybil as usize;
            } else {
                self.estats.bulk_requests += 1;
                self.estats.bulk_sybil_targets += target_is_sybil as usize;
            }
            self.send_request(s, v, now);
            let st = &mut self.sybils[si];
            st.sent += 1;
            st.budget_left -= 1;
            st.burst_left -= 1;
            if !st.ban_scheduled && st.sent as usize >= self.cfg.sybil.ban_min_requests {
                st.ban_scheduled = true;
                let mean = self.cfg.sybil.ban_delay_mean_h
                    * if st.evader {
                        self.cfg.sybil.evader_ban_mult
                    } else {
                        1.0
                    };
                let ban_at =
                    now.plus_secs((distr::exponential(&mut self.rng, mean) * 3600.0) as u64);
                if ban_at <= self.end {
                    self.queue.schedule(ban_at, Event::Ban { sybil });
                }
            }
        }
        // Schedule the next request of this burst, or the next burst.
        let st = self.sybils[si];
        if st.budget_left == 0 {
            return;
        }
        let rate_mult = self.cfg.sybil.stealth_rate_mult.clamp(0.01, 10.0)
            * if st.evader {
                self.cfg.sybil.evader_rate_mult
            } else {
                1.0
            };
        let next = if st.burst_left > 0 && target.is_some() {
            now.plus_secs((3600.0 / (spec.requests_per_hour * rate_mult)).max(1.0) as u64)
        } else {
            now.plus_secs(
                (distr::exponential(&mut self.rng, spec.burst_gap_mean_h / rate_mult) * 3600.0)
                    as u64,
            )
        };
        if next <= self.end {
            self.queue.schedule(next, Event::SybilBurst { sybil });
        }
    }

    fn handle_refill(&mut self, attacker: usize, now: Timestamp) {
        if self.attackers[attacker].intentional && !self.attackers[attacker].interlinked {
            self.attackers[attacker].interlinked = true;
            self.interlink(attacker, now);
        }
        self.refill_attacker(attacker, now);
    }

    /// Deliberately link the attacker's own Sybils ("mutual promotion") —
    /// the rare intentional Sybil edges that show as vertical lines at the
    /// start of the Fig. 8 columns.
    fn interlink(&mut self, attacker: usize, now: Timestamp) {
        // Tools interlink a small promotion group, not the whole farm.
        let mut ids = self.attackers[attacker].sybils.clone();
        ids.truncate(8);
        let k = ids.len();
        if k < 2 {
            return;
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        if k <= 6 {
            for i in 0..k {
                for j in (i + 1)..k {
                    pairs.push((ids[i], ids[j]));
                }
            }
        } else {
            // Ring plus chords: each Sybil links to the next 3 in the
            // promotion group, so deliberate interlinking is visible as a
            // solid prefix run in Fig. 8.
            for i in 0..k {
                for d in 1..=3 {
                    let j = (i + d) % k;
                    let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                    pairs.push((a, b));
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
        }
        let accept_at = now.plus_secs(60);
        for (a, b) in pairs {
            let (na, nb) = (NodeId(a), NodeId(b));
            if !self.valid_target(na, nb, now) {
                continue;
            }
            self.requested.insert(pack_pair(na, nb));
            let idx = self.log.push(RequestRecord {
                from: na,
                to: nb,
                sent_at: now,
                outcome: RequestOutcome::Pending,
            });
            self.log.resolve(idx, RequestOutcome::Accepted(accept_at));
            self.graph
                .add_edge(na, nb, accept_at)
                .expect("valid_target checked");
        }
    }

    /// Snowball-crawl the live graph for popular targets and refill the
    /// attacker's shared queue (§3.4: tools are biased toward popular
    /// users, which is what makes them rediscover successful Sybils).
    fn refill_attacker(&mut self, attacker: usize, now: Timestamp) {
        self.estats.refills += 1;
        let spec = *self.attackers[attacker].tool.spec();
        // Estimate the current "popular" degree threshold by probing.
        let probes = self.cfg.attacker.popularity_probe;
        let mut degs: Vec<usize> = Vec::with_capacity(probes);
        for _ in 0..probes {
            if let Some(v) = self.random_active() {
                degs.push(self.graph.degree(v));
            }
        }
        degs.sort_unstable();
        let min_degree = if degs.is_empty() {
            1
        } else {
            let idx = ((degs.len() as f64 - 1.0) * spec.popular_percentile) as usize;
            degs[idx].max(1)
        };
        // Seeds: many scattered live profiles (tools seed crawls from
        // recently-active-user listings across the whole site). Scattered
        // seeds keep one refill from being a single tight neighborhood,
        // which would give Sybils' friend sets unrealistic mutual
        // connectivity.
        let mut seeds = Vec::with_capacity(24);
        for _ in 0..24 {
            if let Some(v) = self.random_active() {
                seeds.push(v);
            }
        }
        if seeds.is_empty() {
            return;
        }
        let bias = self
            .cfg
            .attacker
            .degree_bias_override
            .unwrap_or(spec.degree_bias);
        let cfg = SnowballConfig {
            targets: self.cfg.attacker.refill_targets,
            fanout: self.cfg.attacker.snowball_fanout,
            degree_bias: bias,
            min_degree: if self.cfg.attacker.degree_bias_override == Some(0.0) {
                // Unbiased ablation: no popularity floor either.
                1
            } else {
                min_degree
            },
            saturation_degree: Some(min_degree.saturating_mul(3)),
        };
        let mut found = sampling::snowball_sample(&self.graph, &seeds, &cfg, &mut self.rng);
        // Crawls on a young graph come back short; tools fall back to the
        // site's people-browser, approximated by degree-tournament picks.
        let floor = self.cfg.attacker.refill_targets / 4;
        let mut attempts = 0;
        while found.len() < floor && attempts < 60 {
            attempts += 1;
            let mut best: Option<(usize, NodeId)> = None;
            for _ in 0..8 {
                if let Some(v) = self.random_active() {
                    let d = self.graph.degree(v);
                    if best.is_none_or(|(bd, _)| d > bd) {
                        best = Some((d, v));
                    }
                }
            }
            // Tournament winners still have to look popular.
            if let Some((d, v)) = best {
                if d >= min_degree {
                    found.push(v);
                }
            }
        }
        // Drop already-banned targets eagerly; freshness re-checked at pop.
        let accounts = &self.accounts;
        found.retain(|v| !accounts[v.index()].banned_by(now));
        // Shuffle so consecutive requests do not walk one neighborhood.
        found.shuffle(&mut self.rng);
        self.attackers[attacker].targets.extend(found);
    }

    fn handle_ban(&mut self, sybil: u32, now: Timestamp) {
        let a = &mut self.accounts[sybil as usize];
        if a.banned_at.is_none() {
            a.banned_at = Some(now);
        }
    }
}

fn weighted_tool<R: Rng + ?Sized>(rng: &mut R, mix: &[f64; 3]) -> ToolKind {
    let total: f64 = mix.iter().sum();
    let mut roll = rng.random_range(0.0..total);
    for (i, &w) in mix.iter().enumerate() {
        if roll < w {
            return ToolKind::ALL[i];
        }
        roll -= w;
    }
    ToolKind::ALL[2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;

    fn tiny_run() -> SimOutput {
        simulate(SimConfig::tiny(42))
    }

    #[test]
    fn runs_to_completion_and_produces_data() {
        let out = tiny_run();
        assert_eq!(out.accounts.len(), out.config.total_accounts());
        assert!(
            out.graph.num_edges() > 500,
            "edges: {}",
            out.graph.num_edges()
        );
        assert!(out.log.len() > 1000, "requests: {}", out.log.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(SimConfig::tiny(7));
        let b = simulate(SimConfig::tiny(7));
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(a.graph.edges(), b.graph.edges());
        let c = simulate(SimConfig::tiny(8));
        assert_ne!(a.log.len(), c.log.len(), "different seeds should diverge");
    }

    #[test]
    fn edge_timestamps_are_nondecreasing_per_node() {
        let out = tiny_run();
        for n in out.graph.nodes() {
            let nb = out.graph.neighbors(n);
            for w in nb.windows(2) {
                assert!(w[0].time <= w[1].time, "adjacency must be chronological");
            }
        }
    }

    #[test]
    fn every_edge_has_an_accepted_request() {
        let out = tiny_run();
        let mut accepted: HashSet<u64> = HashSet::new();
        for r in out.log.records() {
            if r.outcome.is_accepted() {
                accepted.insert(pack_pair(r.from, r.to));
            }
        }
        for e in out.graph.edges() {
            assert!(
                accepted.contains(&pack_pair(e.a, e.b)),
                "edge {:?}-{:?} lacks a log record",
                e.a,
                e.b
            );
        }
    }

    #[test]
    fn sybils_accept_all_answered_incoming() {
        let out = tiny_run();
        for r in out.log.records() {
            if out.is_sybil(r.to) && r.outcome.is_resolved() {
                assert!(r.outcome.is_accepted(), "sybil rejected a request: {r:?}");
            }
        }
    }

    #[test]
    fn acceptance_ratios_separate_populations() {
        let out = simulate(SimConfig {
            n_normal: 2000,
            n_sybil: 150,
            hours: 1500,
            ..SimConfig::tiny(11)
        });
        let stats = out.stats();
        let sybil_ratio = stats.sybil_accepted as f64 / stats.sybil_requests.max(1) as f64;
        let normal_req = stats.requests - stats.sybil_requests;
        let normal_acc = stats.accepted - stats.sybil_accepted;
        let normal_ratio = normal_acc as f64 / normal_req.max(1) as f64;
        assert!(
            sybil_ratio < 0.45,
            "sybil outgoing accept ratio too high: {sybil_ratio}"
        );
        assert!(
            normal_ratio > 0.55,
            "normal outgoing accept ratio too low: {normal_ratio}"
        );
        assert!(normal_ratio > sybil_ratio + 0.2);
    }

    #[test]
    fn bans_happen_and_stop_activity() {
        let out = tiny_run();
        let stats = out.stats();
        assert!(stats.banned > 0, "some sybils should get banned");
        // No request is *sent* by a banned account after its ban time.
        for r in out.log.records() {
            if let Some(b) = out.accounts[r.from.index()].banned_at {
                assert!(r.sent_at <= b, "banned account kept sending");
            }
        }
        // Only sybils are banned.
        for a in &out.accounts {
            if a.banned_at.is_some() {
                assert!(a.is_sybil());
            }
        }
    }

    #[test]
    fn sybil_edges_exist_but_most_sybils_are_isolated_from_sybils() {
        // The central §3.2 shape at test scale: well under half of Sybils
        // have any Sybil edge.
        let out = simulate(SimConfig::small(5));
        let frac = out.sybil_connectivity_fraction();
        assert!(frac < 0.6, "sybil connectivity too high: {frac}");
        let stats = out.stats();
        assert!(
            stats.attack_edges > stats.sybil_edges,
            "attack edges must dominate: {} vs {}",
            stats.attack_edges,
            stats.sybil_edges
        );
    }

    #[test]
    fn request_log_is_time_ordered() {
        let out = tiny_run();
        for w in out.log.records().windows(2) {
            assert!(w[0].sent_at <= w[1].sent_at);
        }
    }

    #[test]
    fn gender_mix_matches_config() {
        let out = tiny_run();
        let frac = |ids: &[NodeId]| {
            ids.iter()
                .filter(|&&n| out.accounts[n.index()].profile.gender == Gender::Female)
                .count() as f64
                / ids.len().max(1) as f64
        };
        let fs = frac(&out.sybil_ids());
        let fn_ = frac(&out.normal_ids());
        assert!((fs - 0.773).abs() < 0.12, "sybil female fraction {fs}");
        assert!((fn_ - 0.465).abs() < 0.08, "normal female fraction {fn_}");
    }
}

#[cfg(test)]
mod mechanism_tests {
    use super::*;
    use crate::simulate;

    #[test]
    fn acceptance_probabilities_are_valid() {
        // Probe the (private) acceptance model across many account pairs
        // before any events run.
        let sim = Simulator::new(SimConfig::tiny(3));
        let n = sim.accounts.len();
        let mut checked = 0;
        for i in (0..n).step_by(7) {
            for j in (1..n).step_by(13) {
                if i == j || sim.accounts[j].is_sybil() {
                    continue;
                }
                let p = sim.acceptance_probability(NodeId(i as u32), NodeId(j as u32));
                assert!((0.0..=1.0).contains(&p), "p = {p} for ({i},{j})");
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn stealth_throttling_reduces_burst_rates() {
        let fast = simulate(SimConfig::tiny(9));
        let mut cfg = SimConfig::tiny(9);
        cfg.sybil.stealth_rate_mult = 0.2;
        let slow = simulate(cfg);
        // Mean 1h invitation count of sybils must drop substantially.
        let peak_rate = |out: &SimOutput| {
            let idx = out.log.sender_index(out.accounts.len());
            let mut sum = 0.0;
            let mut n = 0;
            for s in out.sybil_ids() {
                let times: Vec<Timestamp> = idx
                    .of(s.index())
                    .iter()
                    .map(|&i| out.log.get(i as usize).sent_at)
                    .collect();
                if times.is_empty() {
                    continue;
                }
                sum += sybil_features_shim::mean_per_active_window(&times, 1);
                n += 1;
            }
            sum / n.max(1) as f64
        };
        let (f, sl) = (peak_rate(&fast), peak_rate(&slow));
        assert!(
            sl < f * 0.5,
            "stealth must at least halve the hourly rate: {f} -> {sl}"
        );
        // And the attacker pays in total throughput.
        assert!(slow.stats().sybil_requests < fast.stats().sybil_requests);
    }

    // A minimal copy of the windowed-rate feature to avoid a dev-dependency
    // cycle on sybil-features.
    mod sybil_features_shim {
        use osn_graph::Timestamp;
        use std::collections::HashMap;

        pub fn mean_per_active_window(sent: &[Timestamp], window_h: u64) -> f64 {
            if sent.is_empty() {
                return 0.0;
            }
            let w = window_h * 3600;
            let t0 = sent.iter().min().unwrap().as_secs();
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for t in sent {
                *counts.entry((t.as_secs() - t0) / w).or_insert(0) += 1;
            }
            let total: u64 = counts.values().map(|&c| c as u64).sum();
            total as f64 / counts.len() as f64
        }
    }

    #[test]
    fn interlink_groups_are_small_and_deliberate() {
        let mut cfg = SimConfig::tiny(4);
        cfg.attacker.intentional_frac = 1.0; // every attacker interlinks
        let out = simulate(cfg);
        let mut interlink_degree: std::collections::HashMap<NodeId, usize> = Default::default();
        for r in out.log.records() {
            if r.outcome.is_accepted()
                && out.is_sybil(r.from)
                && out.is_sybil(r.to)
                && out.accounts[r.from.index()].attacker() == out.accounts[r.to.index()].attacker()
            {
                *interlink_degree.entry(r.from).or_default() += 1;
                *interlink_degree.entry(r.to).or_default() += 1;
            }
        }
        assert!(!interlink_degree.is_empty(), "interlinking must occur");
        for (&n, &d) in &interlink_degree {
            assert!(
                d <= 7,
                "sybil {n:?} has {d} interlink edges (group cap is 8)"
            );
        }
    }

    #[test]
    fn unbiased_crawl_ablation_lowers_target_popularity() {
        let biased = simulate(SimConfig::tiny(12));
        let mut cfg = SimConfig::tiny(12);
        cfg.attacker.degree_bias_override = Some(0.0);
        let unbiased = simulate(cfg);
        let mean_target_degree = |out: &SimOutput| {
            let mut sum = 0usize;
            let mut n = 0usize;
            for r in out.log.records() {
                if out.is_sybil(r.from) {
                    sum += out.graph.degree(r.to);
                    n += 1;
                }
            }
            sum as f64 / n.max(1) as f64
        };
        assert!(
            mean_target_degree(&unbiased) < mean_target_degree(&biased),
            "bias off must lower target popularity: {} vs {}",
            mean_target_degree(&unbiased),
            mean_target_degree(&biased)
        );
    }

    #[test]
    fn evaders_outlive_and_outspend_ordinary_sybils() {
        // Evaders exist at the configured share and have the large budgets.
        let cfg = SimConfig::small(6);
        let sim = Simulator::new(cfg.clone());
        let evaders = sim.sybils.iter().filter(|s| s.evader).count();
        let expected = (cfg.n_sybil as f64 * cfg.sybil.evader_frac).ceil() as usize;
        // Bernoulli draw: allow generous binomial noise around np.
        assert!(
            evaders >= 1 && evaders <= 5 * expected,
            "evaders {evaders} vs expected ≈{expected}"
        );
        let max_ordinary = sim
            .sybils
            .iter()
            .filter(|s| !s.evader)
            .map(|s| s.budget_left)
            .max()
            .unwrap_or(0);
        let min_evader = sim
            .sybils
            .iter()
            .filter(|s| s.evader)
            .map(|s| s.budget_left)
            .min()
            .unwrap_or(u32::MAX);
        assert!(
            min_evader > max_ordinary,
            "evader budgets ({min_evader}) must exceed ordinary cap ({max_ordinary})"
        );
    }
}

#[cfg(test)]
mod calibration {
    //! Manual calibration probe: `cargo test -p osn-sim --release calibration -- --ignored --nocapture`
    use super::*;
    use crate::simulate;
    use osn_graph::components;

    #[test]
    #[ignore = "manual calibration probe; prints a summary"]
    fn print_small_scale_summary() {
        let seed: u64 = std::env::var("SIM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let out = simulate(SimConfig::small(seed));
        let stats = out.stats();
        println!("--- sim stats (small): {stats:?}");
        let sybils = out.sybil_ids();
        let normals = out.normal_ids();
        let mean_deg = |ids: &[NodeId]| {
            ids.iter().map(|&n| out.graph.degree(n)).sum::<usize>() as f64 / ids.len() as f64
        };
        let mut ndeg: Vec<usize> = normals.iter().map(|&n| out.graph.degree(n)).collect();
        ndeg.sort_unstable();
        println!(
            "normal deg: mean {:.1} p50 {} p90 {} p97 {} p99 {} max {}",
            mean_deg(&normals),
            ndeg[ndeg.len() / 2],
            ndeg[ndeg.len() * 90 / 100],
            ndeg[ndeg.len() * 97 / 100],
            ndeg[ndeg.len() * 99 / 100],
            ndeg[ndeg.len() - 1]
        );
        let mut sdeg: Vec<usize> = sybils.iter().map(|&n| out.graph.degree(n)).collect();
        sdeg.sort_unstable();
        println!(
            "sybil deg: mean {:.1} p50 {} p90 {} max {}",
            mean_deg(&sybils),
            sdeg[sdeg.len() / 2],
            sdeg[sdeg.len() * 90 / 100],
            sdeg[sdeg.len() - 1]
        );
        println!(
            "sybil connectivity fraction: {:.3}",
            out.sybil_connectivity_fraction()
        );
        let ratio = stats.sybil_accepted as f64 / stats.sybil_requests.max(1) as f64;
        let nreq = stats.requests - stats.sybil_requests;
        let nacc = stats.accepted - stats.sybil_accepted;
        println!(
            "outgoing accept: sybil {:.3} normal {:.3}",
            ratio,
            nacc as f64 / nreq.max(1) as f64
        );
        // Sybil components (among sybils with >= 1 sybil edge)
        let is_sybil = |n: NodeId| out.is_sybil(n);
        let comps = components::components_of_subset(&out.graph, is_sybil);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).filter(|&s| s > 1).collect();
        println!(
            "sybil components >1: count {} sizes(top10) {:?}",
            sizes.len(),
            &sizes[..sizes.len().min(10)]
        );
        let connected: usize = sizes.iter().sum();
        if let Some(&giant) = sizes.first() {
            println!(
                "giant holds {:.2} of connected sybils ({} of {})",
                giant as f64 / connected.max(1) as f64,
                giant,
                connected
            );
        }
        // sybil edge origins
        let mut same_attacker = 0usize;
        let mut to_evaderish = 0usize; // receiver with high final degree
        let mut total_se = 0usize;
        for r in out.log.records() {
            if r.outcome.is_accepted() && out.is_sybil(r.from) && out.is_sybil(r.to) {
                total_se += 1;
                if out.accounts[r.from.index()].attacker() == out.accounts[r.to.index()].attacker()
                {
                    same_attacker += 1;
                }
                if out.graph.degree(r.to) >= 120 {
                    to_evaderish += 1;
                }
            }
        }
        println!(
            "sybil edges: {total_se} (same-attacker {same_attacker}, to deg>=120 receiver {to_evaderish})"
        );
        println!("engine: {:?}", out.engine_stats);
        // clustering coefficients
        use osn_graph::clustering::first_k_clustering;
        let mean_cc = |ids: &[NodeId]| {
            ids.iter()
                .map(|&n| first_k_clustering(&out.graph, n, 50))
                .sum::<f64>()
                / ids.len() as f64
        };
        println!(
            "first-50 cc: normal {:.4} sybil {:.4}",
            mean_cc(&normals),
            mean_cc(&sybils)
        );
        // cc distribution for sybils + a dissection of the highest-cc sybil
        let mut ccs: Vec<(f64, NodeId)> = sybils
            .iter()
            .map(|&n| (first_k_clustering(&out.graph, n, 50), n))
            .collect();
        ccs.sort_by(|a, b| a.0.total_cmp(&b.0));
        println!(
            "sybil cc quantiles: p10 {:.4} p50 {:.4} p90 {:.4} max {:.4}",
            ccs[ccs.len() / 10].0,
            ccs[ccs.len() / 2].0,
            ccs[ccs.len() * 9 / 10].0,
            ccs[ccs.len() - 1].0
        );
        let (_, worst) = ccs[ccs.len() - 1];
        let friends: Vec<NodeId> = out
            .graph
            .first_k_friends(worst, 50)
            .iter()
            .map(|nb| nb.node)
            .collect();
        let fdegs: Vec<usize> = friends.iter().map(|&f| out.graph.degree(f)).collect();
        let n_sybil_friends = friends.iter().filter(|&&f| out.is_sybil(f)).count();
        println!(
            "worst sybil: deg {} friends(50) sybil-friends {} friend-degrees p50 {} max {}",
            out.graph.degree(worst),
            n_sybil_friends,
            {
                let mut d = fdegs.clone();
                d.sort_unstable();
                d[d.len() / 2]
            },
            fdegs.iter().max().unwrap()
        );
        // median-cc sybil dissection
        let (_, med) = ccs[ccs.len() / 2];
        let mfriends: Vec<NodeId> = out
            .graph
            .first_k_friends(med, 50)
            .iter()
            .map(|nb| nb.node)
            .collect();
        let mut links = 0;
        for i in 0..mfriends.len() {
            for j in (i + 1)..mfriends.len() {
                if out.graph.has_edge(mfriends[i], mfriends[j]) {
                    links += 1;
                }
            }
        }
        let mdegs: Vec<usize> = mfriends.iter().map(|&f| out.graph.degree(f)).collect();
        println!(
            "median sybil: deg {} k {} links {} friend-deg p50 {} p90 {}",
            out.graph.degree(med),
            mfriends.len(),
            links,
            {
                let mut d = mdegs.clone();
                d.sort_unstable();
                d[d.len() / 2]
            },
            {
                let mut d = mdegs.clone();
                d.sort_unstable();
                d[d.len() * 9 / 10]
            }
        );
    }
}
