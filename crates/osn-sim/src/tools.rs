//! Sybil creation/management tool models (Table 3).
//!
//! The paper surveys three commercial Windows tools that create and drive
//! Sybil accounts on Renren. All three advertise snowball sampling of the
//! social graph to locate *popular* friending targets; they differ in
//! aggressiveness. We model each as a parameter bundle the attacker
//! controller executes.

use serde::{Deserialize, Serialize};

/// Which commercial tool an attacker runs (Table 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ToolKind {
    /// “Renren Marketing Assistant V1.0” — $37, moderate request rate,
    /// mildly popularity-biased crawling.
    MarketingAssistant,
    /// “Renren Super Node Collector V1.0” — contact author; strongly biased
    /// toward super nodes (very high degree), higher request rate.
    SuperNodeCollector,
    /// “Renren Almighty Assistant V5.8” — contact author; most aggressive
    /// bursts, supports interlinking the attacker's own Sybils ("mutual
    /// promotion"), which is the rare *intentional* Sybil-edge source.
    AlmightyAssistant,
}

/// Catalog entry + behavioral parameters for one tool.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ToolSpec {
    /// Which tool this spec describes.
    pub kind: ToolKind,
    /// Marketed name (Table 3).
    pub name: &'static str,
    /// Distribution platform (Table 3).
    pub platform: &'static str,
    /// Advertised cost (Table 3).
    pub cost: &'static str,
    /// Friend requests sent per hour while a burst is active (Fig. 1 puts
    /// Sybil rates well above 20/interval).
    pub requests_per_hour: f64,
    /// Mean requests per burst before the tool sleeps.
    pub burst_size_mean: f64,
    /// Mean hours between bursts for one Sybil.
    pub burst_gap_mean_h: f64,
    /// Popularity-bias exponent β of the snowball crawler (§3.4).
    pub degree_bias: f64,
    /// Percentile of the live degree distribution a candidate must exceed
    /// to be kept as a target ("popular users").
    pub popular_percentile: f64,
    /// Fraction of requests aimed at crawled popular targets; the rest go
    /// to uniformly-browsed ordinary users (tools mix "super node"
    /// friending with bulk friending).
    pub popular_mix: f64,
    /// Whether the tool supports deliberately interlinking the attacker's
    /// own Sybils before friending normal users.
    pub supports_interlink: bool,
}

/// Table 3 row 1.
pub const MARKETING_ASSISTANT: ToolSpec = ToolSpec {
    kind: ToolKind::MarketingAssistant,
    name: "Renren Marketing Assistant V1.0",
    platform: "Windows",
    cost: "$37",
    requests_per_hour: 180.0,
    burst_size_mean: 75.0,
    burst_gap_mean_h: 22.0,
    degree_bias: 1.0,
    popular_percentile: 0.90,
    popular_mix: 0.20,
    supports_interlink: false,
};

/// Table 3 row 2.
pub const SUPER_NODE_COLLECTOR: ToolSpec = ToolSpec {
    kind: ToolKind::SuperNodeCollector,
    name: "Renren Super Node Collector V1.0",
    platform: "Windows",
    cost: "Contact Author",
    requests_per_hour: 180.0,
    burst_size_mean: 85.0,
    burst_gap_mean_h: 18.0,
    degree_bias: 2.0,
    popular_percentile: 0.92,
    popular_mix: 0.25,
    supports_interlink: false,
};

/// Table 3 row 3.
pub const ALMIGHTY_ASSISTANT: ToolSpec = ToolSpec {
    kind: ToolKind::AlmightyAssistant,
    name: "Renren Almighty Assistant V5.8",
    platform: "Windows",
    cost: "Contact Author",
    requests_per_hour: 300.0,
    burst_size_mean: 110.0,
    burst_gap_mean_h: 14.0,
    degree_bias: 1.5,
    popular_percentile: 0.92,
    popular_mix: 0.25,
    supports_interlink: true,
};

static CATALOG: [ToolSpec; 3] = [
    MARKETING_ASSISTANT,
    SUPER_NODE_COLLECTOR,
    ALMIGHTY_ASSISTANT,
];

impl ToolKind {
    /// All tools, in Table 3 order.
    pub const ALL: [ToolKind; 3] = [
        ToolKind::MarketingAssistant,
        ToolKind::SuperNodeCollector,
        ToolKind::AlmightyAssistant,
    ];

    /// The behavioral/catalog spec for this tool.
    pub fn spec(self) -> &'static ToolSpec {
        match self {
            ToolKind::MarketingAssistant => &CATALOG[0],
            ToolKind::SuperNodeCollector => &CATALOG[1],
            ToolKind::AlmightyAssistant => &CATALOG[2],
        }
    }

    /// The full catalog (Table 3).
    pub fn catalog() -> &'static [ToolSpec] {
        &CATALOG
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table3() {
        let cat = ToolKind::catalog();
        assert_eq!(cat.len(), 3);
        assert_eq!(cat[0].name, "Renren Marketing Assistant V1.0");
        assert_eq!(cat[0].cost, "$37");
        assert_eq!(cat[1].name, "Renren Super Node Collector V1.0");
        assert_eq!(cat[2].name, "Renren Almighty Assistant V5.8");
        assert!(cat.iter().all(|t| t.platform == "Windows"));
    }

    #[test]
    fn spec_lookup_consistent() {
        for kind in ToolKind::ALL {
            assert_eq!(kind.spec().kind, kind);
        }
    }

    #[test]
    fn only_almighty_interlinks() {
        assert!(!ToolKind::MarketingAssistant.spec().supports_interlink);
        assert!(!ToolKind::SuperNodeCollector.spec().supports_interlink);
        assert!(ToolKind::AlmightyAssistant.spec().supports_interlink);
    }

    #[test]
    fn rates_exceed_sybil_threshold() {
        // Fig. 1: Sybils send > 20 invites per interval.
        for kind in ToolKind::ALL {
            assert!(kind.spec().requests_per_hour > 20.0);
        }
    }
}
