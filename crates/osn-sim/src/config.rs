//! Simulation configuration: every behavioral constant in one place, with
//! presets at three scales.
//!
//! The default constants were calibrated so the emergent data matches the
//! paper's reported shapes (see `EXPERIMENTS.md`): normal outgoing-accept
//! ≈ 0.79, Sybil ≈ 0.26; normal first-50 clustering ≈ 0.04, Sybil ≈ 0.001;
//! ≤ ~30% of Sybils with any Sybil edge, one dominant loose component.

use serde::{Deserialize, Serialize};

/// Behavioral parameters of normal users.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NormalParams {
    /// Mean hours between activity sessions (exponential).
    pub activity_gap_mean_h: f64,
    /// Mean friend requests sent per activity session (geometric).
    pub reqs_per_activity_mean: f64,
    /// Probability a request targets a friend-of-friend (triadic closure).
    pub p_fof: f64,
    /// Probability a request targets a degree-weighted stranger
    /// (preferential attachment — produces the heavy-tailed degree
    /// distribution OSNs show).
    pub p_pref: f64,
    /// Probability an activity session also sends one request to an
    /// *attractive* stranger found via people-browsing (the channel through
    /// which Sybils receive requests from normal users).
    pub p_attractive_browse: f64,
    /// Acceptance probability when requester shares ≥ 1 mutual friend.
    pub accept_mutual: f64,
    /// Base stranger-acceptance probability.
    pub accept_stranger_base: f64,
    /// Stranger acceptance grows with the *recipient's* popularity
    /// ("popular users … more likely to be open or careless", §2.2):
    /// `p = base + coef * ln(1 + degree)`, capped below.
    pub accept_stranger_deg_coef: f64,
    /// Cap on stranger acceptance.
    pub accept_stranger_cap: f64,
    /// Multiplier applied when the requester presents as the opposite
    /// gender with an attractive profile (§2.2).
    pub opposite_gender_boost: f64,
    /// Mean hours before a recipient answers a request (exponential).
    pub response_delay_mean_h: f64,
    /// Probability a recipient simply never answers.
    pub p_ignore: f64,
    /// Beta-distribution shape parameters for each user's personal
    /// acceptance tendency (Fig. 3's spread). `tendency ~ Beta(a, b)`.
    pub tendency_alpha: f64,
    /// See [`Self::tendency_alpha`].
    pub tendency_beta: f64,
    /// Fraction of normal users that present as female (paper: 46.5%).
    pub female_frac: f64,
    /// σ of the per-user log-normal *sociability* multiplier on activity
    /// rate. A heavy tail here produces the celebrity degree tail that
    /// keeps genuinely-popular users far above Sybils in the "popular"
    /// pool tools crawl for.
    pub sociability_sigma: f64,
}

impl Default for NormalParams {
    fn default() -> Self {
        NormalParams {
            activity_gap_mean_h: 120.0,
            reqs_per_activity_mean: 1.3,
            p_fof: 0.68,
            p_pref: 0.14,
            p_attractive_browse: 0.02,
            accept_mutual: 0.96,
            accept_stranger_base: 0.36,
            accept_stranger_deg_coef: 0.035,
            accept_stranger_cap: 0.60,
            opposite_gender_boost: 1.25,
            response_delay_mean_h: 30.0,
            p_ignore: 0.06,
            tendency_alpha: 4.0,
            tendency_beta: 1.6,
            female_frac: 0.465,
            sociability_sigma: 1.0,
        }
    }
}

/// Behavioral parameters of Sybil accounts (beyond the per-tool specs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SybilParams {
    /// Log-normal µ of a Sybil's total request budget.
    pub budget_lognorm_mu: f64,
    /// Log-normal σ of a Sybil's total request budget.
    pub budget_lognorm_sigma: f64,
    /// Hard cap on an ordinary Sybil's request budget.
    pub budget_cap: u32,
    /// Fraction of Sybils that *evade* detection for much longer and run
    /// much larger budgets. These become the popular "hub" Sybils that
    /// absorb most accidental Sybil edges (the Fig. 9 degree tail).
    pub evader_frac: f64,
    /// Request-budget range of evader Sybils (uniform).
    pub evader_budget: (u32, u32),
    /// Multiplier on the ban delay for evaders.
    pub evader_ban_mult: f64,
    /// Rate multiplier for evaders: they run their tool in aggressive mode
    /// (shorter burst gaps, faster requests), reaching hub popularity
    /// quickly and then sitting in the "popular" pool for a long time.
    pub evader_rate_mult: f64,
    /// Mean hours before the tool confirms an incoming request (tools poll
    /// periodically; small but nonzero, which is what lets bans strand
    /// pending requests — Fig. 3).
    pub response_delay_mean_h: f64,
    /// Mean additional hours a Sybil survives after becoming active before
    /// Renren's prior techniques ban it (exponential).
    pub ban_delay_mean_h: f64,
    /// Minimum requests sent before the ban clock starts (fresh accounts
    /// haven't drawn attention yet).
    pub ban_min_requests: usize,
    /// Fraction of Sybils presenting as female (paper: 77.3%).
    pub female_frac: f64,
    /// Minimum attractiveness; Sybil attractiveness ~ U(min, 1.0).
    pub attract_min: f64,
    /// How strongly the *recipient's* popularity drives accepting a Sybil:
    /// `p = base + coef * ln(1 + deg)` before the attractiveness/gender
    /// factors; calibrated to the paper's 26% average.
    pub accept_base: f64,
    /// See [`Self::accept_base`].
    pub accept_deg_coef: f64,
    /// Cap on per-request Sybil acceptance probability.
    pub accept_cap: f64,
    /// Stealth multiplier on every tool's request rate and burst size
    /// (default 1.0). A defense-aware attacker sets this below 1 to duck
    /// under rate-based detection — the counter-adaptation the paper's
    /// conclusion anticipates. Used by the `stealth_attacker` example.
    pub stealth_rate_mult: f64,
}

impl Default for SybilParams {
    fn default() -> Self {
        SybilParams {
            budget_lognorm_mu: 4.9, // median ≈ 134 requests
            budget_lognorm_sigma: 0.6,
            budget_cap: 250,
            evader_frac: 0.015,
            evader_budget: (1200, 2200),
            evader_ban_mult: 2.5,
            evader_rate_mult: 1.0,
            response_delay_mean_h: 8.0,
            ban_delay_mean_h: 120.0,
            ban_min_requests: 30,
            female_frac: 0.773,
            attract_min: 0.6,
            accept_base: 0.16,
            accept_deg_coef: 0.02,
            accept_cap: 0.50,
            stealth_rate_mult: 1.0,
        }
    }
}

/// Attacker-level parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttackerParams {
    /// Mean Sybils per attacker (geometric-ish; actual draw is
    /// `1 + LogNormal`-shaped, clipped to the remaining population).
    pub sybils_per_attacker_mean: f64,
    /// Mix of tools across attackers: (MarketingAssistant,
    /// SuperNodeCollector, AlmightyAssistant) weights, normalized at use.
    pub tool_mix: [f64; 3],
    /// Fraction of attackers that deliberately interlink their own Sybils
    /// before friending normal users (requires a tool with
    /// `supports_interlink`; the paper observes only "a handful" of such
    /// accounts in Fig. 8).
    pub intentional_frac: f64,
    /// Targets fetched per snowball refill of an attacker's shared queue.
    pub refill_targets: usize,
    /// Snowball fan-out per expanded node.
    pub snowball_fanout: usize,
    /// Random accounts sampled when estimating the current "popular"
    /// degree threshold at each refill.
    pub popularity_probe: usize,
    /// Minimum account age (hours) for bulk-mode friending. Tools skip
    /// fresh, empty-looking profiles, which is also why they essentially
    /// never bulk-friend other (young, short-lived) Sybils.
    pub min_target_age_h: f64,
    /// Ablation override for every tool's snowball popularity bias β
    /// (`None` = use each tool's own value). Setting 0.0 disables the
    /// popularity bias entirely — the knob behind the snowball ablation
    /// (`crates/repro/tests/ablations.rs`).
    pub degree_bias_override: Option<f64>,
}

impl Default for AttackerParams {
    fn default() -> Self {
        AttackerParams {
            sybils_per_attacker_mean: 12.0,
            tool_mix: [0.45, 0.35, 0.20],
            intentional_frac: 0.012,
            refill_targets: 250,
            snowball_fanout: 15,
            popularity_probe: 400,
            min_target_age_h: 600.0,
            degree_bias_override: None,
        }
    }
}

/// Top-level simulation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; equal configs with equal seeds replay identically.
    pub seed: u64,
    /// Simulated duration in hours.
    pub hours: u64,
    /// Number of normal users.
    pub n_normal: usize,
    /// Number of Sybil accounts (across all attackers).
    pub n_sybil: usize,
    /// Normal users arrive uniformly over the first `arrival_frac` of the
    /// run (the network must exist before attackers crawl it).
    pub arrival_frac: f64,
    /// Attackers start after this fraction of the run.
    pub attacker_start_frac: f64,
    /// Attackers keep starting until this fraction of the run.
    pub attacker_end_frac: f64,
    /// Normal-user behavior.
    pub normal: NormalParams,
    /// Sybil behavior.
    pub sybil: SybilParams,
    /// Attacker behavior.
    pub attacker: AttackerParams,
}

impl SimConfig {
    /// Tiny scale for unit tests: seconds to run, shapes only roughly hold.
    pub fn tiny(seed: u64) -> Self {
        let mut cfg = SimConfig {
            seed,
            hours: 1200,
            n_normal: 900,
            n_sybil: 60,
            ..Self::paper(seed)
        };
        // Compressed timeline: "established account" means less wall-clock.
        cfg.attacker.min_target_age_h = 150.0;
        // Small scales keep the uncompensated evader parameters (pool
        // exhaustion does the concentrating there — see `paper()`).
        cfg.sybil = SybilParams::default();
        cfg
    }

    /// Small scale for integration tests and examples (~1–2 s release).
    pub fn small(seed: u64) -> Self {
        let mut cfg = SimConfig {
            seed,
            hours: 2500,
            n_normal: 8_000,
            n_sybil: 250,
            ..Self::paper(seed)
        };
        cfg.attacker.min_target_age_h = 400.0;
        cfg.sybil = SybilParams::default();
        cfg
    }

    /// The calibrated reproduction scale used by the `repro` harness
    /// (~100k accounts; a scaled-down Renren).
    ///
    /// The evader (hub-Sybil) parameters are scale-compensated upward: at
    /// small scales the popular pool is small enough that attackers
    /// exhaust it, which over-weights freshly-popular hub Sybils in crawl
    /// results; at 100k accounts that exhaustion vanishes, so the hub
    /// population itself must be larger/longer-lived to yield the paper's
    /// ≈20% Sybil-edge incidence (see EXPERIMENTS.md).
    pub fn paper(seed: u64) -> Self {
        let sybil = SybilParams {
            evader_frac: 0.05,
            evader_ban_mult: 4.0,
            ..SybilParams::default()
        };
        SimConfig {
            seed,
            hours: 4000,
            n_normal: 100_000,
            n_sybil: 3_000,
            arrival_frac: 0.6,
            attacker_start_frac: 0.25,
            attacker_end_frac: 0.9,
            normal: NormalParams::default(),
            sybil,
            attacker: AttackerParams::default(),
        }
    }

    /// Validate invariants; panics with a description on misuse.
    pub fn validate(&self) {
        assert!(self.hours > 0, "simulation must last at least an hour");
        assert!(self.n_normal >= 10, "need at least 10 normal users");
        assert!(
            (0.0..=1.0).contains(&self.arrival_frac)
                && (0.0..=1.0).contains(&self.attacker_start_frac)
                && (0.0..=1.0).contains(&self.attacker_end_frac),
            "fractions must lie in [0,1]"
        );
        assert!(
            self.attacker_start_frac <= self.attacker_end_frac,
            "attacker window is inverted"
        );
        let p = &self.normal;
        assert!(p.p_fof + p.p_pref <= 1.0, "target mix exceeds 1");
        assert!(self.attacker.tool_mix.iter().all(|&w| w >= 0.0));
        assert!(
            self.attacker.tool_mix.iter().sum::<f64>() > 0.0,
            "tool mix must have positive mass"
        );
    }

    /// Total accounts (normal + Sybil).
    pub fn total_accounts(&self) -> usize {
        self.n_normal + self.n_sybil
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::tiny(1).validate();
        SimConfig::small(1).validate();
        SimConfig::paper(1).validate();
    }

    #[test]
    fn scales_are_ordered() {
        let (t, s, p) = (SimConfig::tiny(0), SimConfig::small(0), SimConfig::paper(0));
        assert!(t.n_normal < s.n_normal && s.n_normal < p.n_normal);
        assert!(t.total_accounts() == t.n_normal + t.n_sybil);
    }

    #[test]
    #[should_panic(expected = "target mix exceeds 1")]
    fn bad_target_mix_panics() {
        let mut c = SimConfig::tiny(0);
        c.normal.p_fof = 0.8;
        c.normal.p_pref = 0.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "attacker window is inverted")]
    fn inverted_attacker_window_panics() {
        let mut c = SimConfig::tiny(0);
        c.attacker_start_frac = 0.9;
        c.attacker_end_frac = 0.2;
        c.validate();
    }

    #[test]
    fn paper_gender_mix_matches_paper() {
        let c = SimConfig::paper(0);
        assert!((c.normal.female_frac - 0.465).abs() < 1e-9);
        assert!((c.sybil.female_frac - 0.773).abs() < 1e-9);
    }
}
