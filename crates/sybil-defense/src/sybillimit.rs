//! SybilLimit (Yu et al., IEEE S&P 2008).
//!
//! SybilLimit replaces SybilGuard's one long route with `r = Θ(√m)` short
//! route *instances* of length `w = Θ(log n)` each, and accepts a suspect
//! when enough instances' route **tails** (final directed edges) intersect
//! the verifier's tails. With `g` attack edges, at most `O(g · w)` Sybil
//! tails can land on honest edges, bounding accepted Sybils per attack
//! edge — *if* Sybils actually sit behind a small cut.
//!
//! Instead of materializing `r` full routing-table sets (quadratic
//! memory), each instance derives its per-node permutation on demand from
//! a seed (deterministic, stateless) — the same trick a decentralized node
//! would use with a keyed PRF. The balance condition is simplified to a
//! per-tail load cap.
//!
//! Only the slot a route enters through is ever read from a permutation,
//! so each hop runs the shuffle just far enough to fix that slot (see
//! `shuffled_slot`), reducing each draw by multiplication rather than
//! division (`Remainders`). Routes walk the graph's
//! [`RouteSlots`], where the slot a hop
//! enters through sits beside the one it left by. The verifier's tails
//! are walked once per prepared verifier; judging a suspect walks the
//! suspect's routes only.

use crate::common::{PreparedVerifier, RejectAll, SybilDefense, Verdict};
use osn_graph::walks::RouteSlots;
use osn_graph::{NodeId, TemporalGraph};
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// SybilLimit verifier.
pub struct SybilLimit {
    /// Number of route instances `r`.
    pub instances: usize,
    /// Route length `w`.
    pub route_len: usize,
    /// Minimum tail intersections for acceptance (the protocol requires at
    /// least one; the expected count for honest pairs is `r²/2m` ≈ 8 with
    /// the default `r = 4√m`).
    pub min_intersections: usize,
    seed: u64,
}

impl SybilLimit {
    /// Configure for graph `g`: `r ≈ r0·√m` (capped) and `w ≈ 2·ln n`.
    pub fn new(g: &TemporalGraph, seed: u64) -> Self {
        let m = g.num_edges().max(1) as f64;
        let n = g.num_nodes().max(2) as f64;
        let instances = ((4.0 * m.sqrt()) as usize).clamp(32, 4000);
        // Honest pairs expect ~r²/2m tail collisions; requiring a quarter
        // of that keeps honest acceptance high while filtering suspects
        // whose tails rarely reach honest edges.
        let expected = (instances * instances) as f64 / (2.0 * m);
        SybilLimit {
            instances,
            route_len: ((2.0 * n.ln()).ceil() as usize).max(4),
            min_intersections: ((expected / 4.0).round() as usize).max(1),
            seed,
        }
    }

    /// Stateless per-instance permutation: the out-position for a route
    /// entering `node` (of `degree` slots) at `in_pos` under instance
    /// `inst`.
    fn out_pos(
        &self,
        node: NodeId,
        degree: usize,
        in_pos: usize,
        inst: usize,
        walk: &mut Walk<'_>,
    ) -> usize {
        // Derive the node's permutation for this instance from a seed.
        let node_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node.0 as u64) << 20)
            .wrapping_add(inst as u64);
        let mut rng = StdRng::seed_from_u64(node_seed);
        shuffled_slot(&mut rng, degree, in_pos, walk.rem, &mut walk.perm)
    }

    /// The tail (final directed edge) of the instance-`inst` route leaving
    /// `who` through its `first_edge`-th adjacency slot.
    fn route_tail(
        &self,
        walk: &mut Walk<'_>,
        who: NodeId,
        first_edge: usize,
        inst: usize,
    ) -> (NodeId, NodeId) {
        let slots = walk.slots;
        let mut prev = who;
        let (mut cur, mut back) = slots.hop(slots.row(who).start + first_edge);
        for _ in 1..self.route_len {
            let row = slots.row(cur);
            let out = self.out_pos(cur, row.len(), back - row.start, inst, walk);
            prev = cur;
            (cur, back) = slots.hop(row.start + out);
        }
        (prev, cur)
    }

    /// One route tail per instance for `who`, in instance order (the
    /// protocol runs one instance per edge slot in rotation). `who` must
    /// have at least one edge.
    fn tails<'a>(
        &'a self,
        slots: &'a RouteSlots,
        rem: &'a Remainders,
        who: NodeId,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        let d = slots.row(who).len();
        let mut walk = Walk {
            slots,
            rem,
            perm: Vec::new(),
        };
        (0..self.instances).map(move |inst| self.route_tail(&mut walk, who, inst % d, inst))
    }
}

/// What one route walk reads and reuses: the graph's slots, the
/// remainders by every degree, and a permutation buffer.
struct Walk<'a> {
    slots: &'a RouteSlots,
    rem: &'a Remainders,
    perm: Vec<u32>,
}

/// `perm[in_pos]` of the Fisher–Yates shuffle of `0..degree` that
/// `SliceRandom::shuffle` would draw from `rng`, stopping early: the
/// shuffle fixes slots from the top down (step `i` swaps slot `i` with a
/// slot `≤ i` and never touches `i` again), so once step `in_pos` has run
/// the wanted slot is final and the remaining draws cannot change it.
/// Step `i` takes the same word `shuffle` does and reduces it to the
/// same `word % (i + 1)`, through `rem`, which covers `degree`.
fn shuffled_slot(
    rng: &mut StdRng,
    degree: usize,
    in_pos: usize,
    rem: &Remainders,
    perm: &mut Vec<u32>,
) -> usize {
    debug_assert!(in_pos < degree);
    perm.clear();
    perm.extend(0..degree as u32);
    for i in (in_pos.max(1)..degree).rev() {
        let j = rem.of(rng.next_u64(), i + 1) as usize;
        perm.swap(i, j);
    }
    perm[in_pos] as usize
}

/// `word % d` for every `d` up to a bound, by multiplication instead of
/// division (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019): with `c = ⌈2¹²⁸ / d⌉`, the remainder is the top
/// 64 bits of `(c · word mod 2¹²⁸) · d`. A 128-bit fraction is exact for
/// every 64-bit word and every `d < 2⁶⁴`, so this is `word % d` bit for
/// bit; `d = 1` wraps `c` to 0, which gives the remainder 0.
struct Remainders {
    c: Vec<u128>, // `c[d]`; `c[0]` is unused
}

impl Remainders {
    /// The constants for every divisor in `1..=max`.
    fn up_to(max: usize) -> Self {
        let c = (0..=max as u128)
            .map(|d| match d {
                0 => 0,
                d => (u128::MAX / d).wrapping_add(1),
            })
            .collect();
        Remainders { c }
    }

    /// `word % d`, for `1 ≤ d ≤ max`.
    #[inline]
    fn of(&self, word: u64, d: usize) -> u64 {
        let fraction = self.c[d].wrapping_mul(u128::from(word));
        // The top 64 bits of the 192-bit `fraction · d`, from the
        // products of `d` with `fraction`'s two 64-bit halves.
        let d = d as u128;
        let low = (fraction as u64 as u128) * d;
        let high = (fraction >> 64) * d;
        ((high + (low >> 64)) >> 64) as u64
    }
}

impl SybilDefense for SybilLimit {
    fn name(&self) -> &'static str {
        "SybilLimit"
    }

    /// Walks the verifier's `r` routes once and keeps its tail multiset.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a> {
        if g.degree(verifier) == 0 {
            return Box::new(RejectAll);
        }
        // Balance condition (simplified): each verifier tail admits a
        // bounded number of suspect intersections.
        let slots = RouteSlots::new(g);
        let max_degree = g.nodes().map(|n| g.degree(n)).max().unwrap_or(0);
        let rem = Remainders::up_to(max_degree);
        let mut tail_caps = HashMap::new();
        for tail in self.tails(&slots, &rem, verifier) {
            *tail_caps.entry(tail).or_insert(0) += 2;
        }
        Box::new(VerifierTails {
            limit: self,
            g,
            slots,
            rem,
            tail_caps,
        })
    }
}

/// SybilLimit bound to one verifier: how many suspect intersections each
/// of the verifier's tails still admits.
struct VerifierTails<'a> {
    limit: &'a SybilLimit,
    g: &'a TemporalGraph,
    slots: RouteSlots,
    rem: Remainders,
    tail_caps: HashMap<(NodeId, NodeId), usize>,
}

impl PreparedVerifier for VerifierTails<'_> {
    fn judge(&self, suspect: NodeId) -> Verdict {
        if self.g.degree(suspect) == 0 {
            return Verdict::Reject;
        }
        let needed = self.limit.min_intersections;
        // The caps are consumed in instance order, and the count only
        // grows, so stopping at `needed` matches cannot change the verdict.
        let mut remaining = self.tail_caps.clone();
        let mut matched = 0usize;
        let mut tails = self.limit.tails(&self.slots, &self.rem, suspect);
        while matched < needed {
            let Some(tail) = tails.next() else { break };
            // Tails are undirected-intersected: either direction works.
            let rev = (tail.1, tail.0);
            for key in [tail, rev] {
                if let Some(cap) = remaining.get_mut(&key) {
                    if *cap > 0 {
                        *cap -= 1;
                        matched += 1;
                        break;
                    }
                }
            }
        }
        Verdict::accept_if(matched >= needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{evaluate_defense, injected_cluster_graph};
    use osn_graph::generators;
    use osn_graph::Timestamp;

    #[test]
    fn honest_nodes_mostly_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(500, 4, Timestamp::ZERO, &mut rng);
        let sl = SybilLimit::new(&g, 11);
        let honest: Vec<NodeId> = (100..130).map(NodeId).collect();
        let eval = evaluate_defense(&sl, &g, NodeId(0), &[], &honest);
        assert!(
            eval.honest_rejection_rate() < 0.35,
            "honest rejection {}",
            eval.honest_rejection_rate()
        );
    }

    #[test]
    fn rejects_injected_cluster_more_than_honest() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, first_sybil) = injected_cluster_graph(600, 80, 3, &mut rng);
        let sl = SybilLimit::new(&g, 5);
        let sybils: Vec<NodeId> = (0..20).map(|i| NodeId(first_sybil.0 + i)).collect();
        let honest: Vec<NodeId> = (10..30).map(NodeId).collect();
        let eval = evaluate_defense(&sl, &g, NodeId(0), &sybils, &honest);
        assert!(
            eval.sybil_acceptance_rate() + 0.2 < 1.0 - eval.honest_rejection_rate(),
            "defense must separate: sybil acc {} vs honest acc {}",
            eval.sybil_acceptance_rate(),
            1.0 - eval.honest_rejection_rate()
        );
    }

    #[test]
    fn stateless_permutation_is_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(50, 3, Timestamp::ZERO, &mut rng);
        let sl = SybilLimit::new(&g, 9);
        let slots = RouteSlots::new(&g);
        let d = g.degree(NodeId(1));
        let rem = Remainders::up_to(g.nodes().map(|n| g.degree(n)).max().unwrap());
        let mut walk = Walk {
            slots: &slots,
            rem: &rem,
            perm: Vec::new(),
        };
        let a = sl.route_tail(&mut walk, NodeId(1), 0, 4);
        let b = sl.route_tail(&mut walk, NodeId(1), 0, 4);
        assert_eq!(a, b, "same instance must reproduce the same route");
        // Permutation property: out positions for distinct in positions
        // are distinct.
        if d >= 2 {
            let outs: std::collections::HashSet<usize> = (0..d)
                .map(|p| sl.out_pos(NodeId(1), d, p, 0, &mut walk))
                .collect();
            assert_eq!(outs.len(), d);
        }
    }

    #[test]
    fn early_exit_shuffle_reads_the_full_shuffles_slot() {
        // Every degree up to 64 at every entry slot; then degrees up to
        // past the wild graph's hub (degree 1,018 at small) at the first
        // two, the middle and the last slot.
        let rem = Remainders::up_to(1_200);
        let large = (65..=1_200usize)
            .step_by(37)
            .chain([1_018, 1_024, 1_025, 1_200]);
        let cases = (1..=64usize)
            .flat_map(|d| (0..d).map(move |in_pos| (d, in_pos)))
            .chain(large.flat_map(|d| [0, 1, d / 2, d - 1].map(|in_pos| (d, in_pos))));
        // A dirty scratch buffer on entry must not matter either.
        let mut perm = vec![7; 100];
        for (degree, in_pos) in cases {
            for instance in 0..8u64 {
                let seed = instance.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ degree as u64;
                let mut full: Vec<u32> = (0..degree as u32).collect();
                full.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut rng = StdRng::seed_from_u64(seed);
                assert_eq!(
                    shuffled_slot(&mut rng, degree, in_pos, &rem, &mut perm),
                    full[in_pos] as usize,
                    "degree {degree} in_pos {in_pos} instance {instance}"
                );
            }
        }
    }

    #[test]
    fn remainders_equal_the_division() {
        let rem = Remainders::up_to(4_096);
        let mut rng = StdRng::seed_from_u64(17);
        for d in 1..=4_096u64 {
            let multiples = [1, 2, 3, u64::MAX / d / 2, u64::MAX / d];
            let words = [0, 1, d - 1, d, u64::MAX, u64::MAX - 1, 1 << 63]
                .into_iter()
                .chain(multiples.map(|k| k * d - 1))
                .chain(multiples.map(|k| k * d))
                .chain((0..8).map(|_| rng.next_u64()));
            for word in words {
                assert_eq!(rem.of(word, d as usize), word % d, "{word} % {d}");
            }
        }
    }

    #[test]
    fn isolated_nodes_rejected() {
        let g = TemporalGraph::with_nodes(3);
        let sl = SybilLimit::new(&g, 1);
        assert_eq!(sl.verify(&g, NodeId(0), NodeId(1)), Verdict::Reject);
    }
}
