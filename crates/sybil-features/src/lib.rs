//! # sybil-features — behavioral feature extraction
//!
//! §2.2 of the paper identifies four behavioral attributes that separate
//! Sybils from normal users on Renren, all computable from friend-request
//! logs and the friendship graph:
//!
//! 1. **Invitation frequency** (Fig. 1) — average invitations sent per
//!    fixed window, at a short (1 h) and long (400 h) time scale.
//! 2. **Outgoing requests accepted** (Fig. 2) — fraction of sent requests
//!    that were confirmed (normal ≈ 79%, Sybil ≈ 26%).
//! 3. **Incoming requests accepted** (Fig. 3) — fraction of received
//!    requests the account confirmed (Sybils ≈ 100%).
//! 4. **Clustering coefficient** (Fig. 4) — over the first 50 friends by
//!    time (normal ≫ Sybil).
//!
//! [`FeatureExtractor`] computes all of these for every account of a
//! simulation; [`dataset`] assembles labeled ground-truth samples like the
//! paper's 1000 + 1000 hand-verified set.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clustering;
pub mod dataset;
pub mod invitation;
pub mod ratios;
pub mod temporal;

use osn_graph::{par, CsrSnapshot, NeighborScratch, NodeId};
use osn_sim::log::LogIndex;
use osn_sim::SimOutput;
use serde::{Deserialize, Serialize};

/// The paper's behavioral feature vector for one account.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Average invitations per non-empty 1-hour window.
    pub inv_freq_1h: f64,
    /// Average invitations per non-empty 400-hour window.
    pub inv_freq_400h: f64,
    /// Accepted fraction of outgoing requests (0 if none sent).
    pub outgoing_accept_ratio: f64,
    /// Accepted fraction of incoming requests (1 if none received — an
    /// account that rejected nothing).
    pub incoming_accept_ratio: f64,
    /// Clustering coefficient of the first 50 friends.
    pub clustering_coefficient: f64,
}

impl FeatureVector {
    /// The features as a fixed array (order: freq1h, freq400h, out, in, cc)
    /// for consumption by vector classifiers.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.inv_freq_1h,
            self.inv_freq_400h,
            self.outgoing_accept_ratio,
            self.incoming_accept_ratio,
            self.clustering_coefficient,
        ]
    }

    /// Feature names matching [`Self::as_array`] positions.
    pub const NAMES: [&'static str; 5] = [
        "inv_freq_1h",
        "inv_freq_400h",
        "outgoing_accept_ratio",
        "incoming_accept_ratio",
        "clustering_coefficient",
    ];
}

/// Computes [`FeatureVector`]s for the accounts of one simulation run.
///
/// Construction builds per-account request indices and a frozen
/// [`CsrSnapshot`] of the friendship graph once; each `features_for` call
/// is then cheap, and [`Self::features_for_all`] fans the per-account work
/// out across threads (see `osn_graph::par`).
pub struct FeatureExtractor<'a> {
    out: &'a SimOutput,
    snap: CsrSnapshot,
    send_idx: LogIndex,
    recv_idx: LogIndex,
}

impl<'a> FeatureExtractor<'a> {
    /// Index the simulation output for feature extraction.
    pub fn new(out: &'a SimOutput) -> Self {
        let n = out.accounts.len();
        FeatureExtractor {
            out,
            snap: CsrSnapshot::freeze(&out.graph),
            send_idx: out.log.sender_index(n),
            recv_idx: out.log.receiver_index(n),
        }
    }

    /// The underlying simulation output.
    pub fn output(&self) -> &SimOutput {
        self.out
    }

    /// Record indices of requests sent by `n`, in time order.
    pub(crate) fn sent_by(&self, n: NodeId) -> &[u32] {
        self.send_idx.of(n.index())
    }

    /// Record indices of requests received by `n`, in time order.
    pub fn received_by(&self, n: NodeId) -> &[u32] {
        self.recv_idx.of(n.index())
    }

    /// Compute the full feature vector for account `n`.
    pub fn features_for(&self, n: NodeId) -> FeatureVector {
        let mut scratch = NeighborScratch::new(self.snap.num_nodes());
        self.features_with_scratch(n, &mut scratch)
    }

    /// Shared kernel: the only clustering path, so `features_for` and the
    /// parallel `features_for_all` cannot diverge.
    fn features_with_scratch(&self, n: NodeId, scratch: &mut NeighborScratch) -> FeatureVector {
        let sent: Vec<osn_graph::Timestamp> = self
            .send_idx
            .of(n.index())
            .iter()
            .map(|&i| self.out.log.get(i as usize).sent_at)
            .collect();
        FeatureVector {
            inv_freq_1h: invitation::mean_per_active_window(&sent, 1),
            inv_freq_400h: invitation::mean_per_active_window(&sent, 400),
            outgoing_accept_ratio: ratios::outgoing_accept_ratio(
                self.out,
                self.send_idx.of(n.index()),
            ),
            incoming_accept_ratio: ratios::incoming_accept_ratio(
                self.out,
                self.recv_idx.of(n.index()),
            ),
            clustering_coefficient: self
                .snap
                .first_k_clustering(n, clustering::FIRST_K, scratch),
        }
    }

    /// Feature vectors for a list of accounts, extracted in parallel with
    /// one [`NeighborScratch`] per worker. Output order and bits match the
    /// serial `nodes.iter().map(|&n| self.features_for(n))` loop.
    pub fn features_for_all(&self, nodes: &[NodeId]) -> Vec<FeatureVector> {
        par::map_indexed_with(
            nodes.len(),
            || NeighborScratch::new(self.snap.num_nodes()),
            |scratch, i| self.features_with_scratch(nodes[i], scratch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_sim::{simulate, SimConfig};

    #[test]
    fn features_separate_populations_in_simulation() {
        let out = simulate(SimConfig::tiny(3));
        let fx = FeatureExtractor::new(&out);
        let mean = |ids: &[NodeId], f: fn(&FeatureVector) -> f64| {
            ids.iter().map(|&n| f(&fx.features_for(n))).sum::<f64>() / ids.len() as f64
        };
        let sybils = out.sybil_ids();
        let normals = out.normal_ids();
        // Fig. 1: Sybil invitation frequency far above normal.
        let s_freq = mean(&sybils, |f| f.inv_freq_1h);
        let n_freq = mean(&normals, |f| f.inv_freq_1h);
        assert!(
            s_freq > 4.0 * n_freq.max(0.1),
            "freq separation: sybil {s_freq} normal {n_freq}"
        );
        // Fig. 2: outgoing accept ratio lower for Sybils.
        let s_out = mean(&sybils, |f| f.outgoing_accept_ratio);
        let n_out = mean(&normals, |f| f.outgoing_accept_ratio);
        assert!(s_out + 0.2 < n_out, "out ratio: sybil {s_out} normal {n_out}");
        // Fig. 3's claim is a fraction, not a mean: ≈80% of Sybils accept
        // 100% of their incoming requests and the rest "were banned
        // before answering", while normal users spread out. Two halves.
        // The mechanism, exactly: a Sybil that has answered anything has
        // accepted all of it — any shortfall is requests still pending
        // at the ban, never a rejection.
        for &s in &sybils {
            let answered = fx.received_by(s).iter().map(|&i| out.log.get(i as usize).outcome);
            assert!(
                answered.filter(|o| o.is_resolved()).all(|o| o.is_accepted()),
                "sybil {s:?} declined a request"
            );
        }
        // The population shape: most Sybils sit at exactly 1.0, almost no
        // normal user does. With 60 Sybils the fraction swings with how
        // many requests the bans happen to strand (0.58 here, 0.73–0.80
        // on seeds 1/7/11/42; `repro fig3` 0.76; paper ≈ 0.8) — and the
        // mean this test used to bound at 0.85 swings with it (0.82 here,
        // up to 0.94), which is why that bound, not the simulator, was
        // wrong.
        let accepting_all = |ids: &[NodeId]| {
            let all = ids
                .iter()
                .filter(|&&n| fx.features_for(n).incoming_accept_ratio == 1.0);
            all.count() as f64 / ids.len() as f64
        };
        let (s_all, n_all) = (accepting_all(&sybils), accepting_all(&normals));
        assert!(s_all > 0.5, "sybils accepting everything: {s_all}");
        assert!(n_all < 0.1, "normals accepting everything: {n_all}");
    }

    #[test]
    fn as_array_matches_fields() {
        let f = FeatureVector {
            inv_freq_1h: 1.0,
            inv_freq_400h: 2.0,
            outgoing_accept_ratio: 0.3,
            incoming_accept_ratio: 0.4,
            clustering_coefficient: 0.05,
        };
        assert_eq!(f.as_array(), [1.0, 2.0, 0.3, 0.4, 0.05]);
        assert_eq!(FeatureVector::NAMES.len(), 5);
    }
}
