//! A residual flow network in CSR form, and Dinic max-flow over it.
//!
//! SumUp (Tran et al., NSDI '09) collects votes via approximate max-flow
//! from voters to a collector over the social graph with adaptive link
//! capacities. This module provides the residual flow network it pushes
//! votes through, and the exact max-flow that pins the network's arc
//! bookkeeping in tests.

/// A residual flow network over dense node indices with integer
/// capacities, in CSR form: the arcs leaving node `u` are the contiguous
/// range [`arcs_from`](Self::arcs_from)`(u)`, forward and residual arcs
/// alike, in the order the arcs were given.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    first: Vec<u32>, // per node: start of its arc range; `first[n]` ends the last
    to: Vec<u32>,
    cap: Vec<i64>,
    rev: Vec<u32>, // per arc: its paired residual arc
}

impl FlowNetwork {
    /// A network with `n` nodes and, for every `(u, v, c, r)` in `arcs`,
    /// an arc `u → v` of capacity `c` paired with its reverse `v → u` of
    /// capacity `r`; pushing a unit along either arc of a pair gives the
    /// other one more unit. `(u, v, c, 0)` is a directed arc with its
    /// residual; `(u, v, c, c)` is an undirected link of capacity `c`,
    /// whose residuals after a net push of `x` from `u` are `c − x` and
    /// `c + x`, as for two opposite arcs of capacity `c`. Node `u`'s range
    /// holds, in `arcs` order, the arc of every `(u, ·, ·, ·)` and the
    /// reverse of every `(·, u, ·, ·)`. `arcs` is read twice (once to
    /// count, once to place), hence `Clone`. Panics on out-of-range nodes
    /// or a negative capacity.
    pub fn from_arcs<I>(n: usize, arcs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, i64, i64)>,
        I::IntoIter: Clone,
    {
        // Both passes run `for_each`, not a `for` loop: a caller's `map`
        // or `flat_map` folds each edge's arcs in one step that way, where
        // pulling them one by one through `next` is slower.
        let arcs = arcs.into_iter();
        let mut first = vec![0u32; n + 1];
        arcs.clone().for_each(|(u, v, c, r)| {
            assert!(u < n && v < n, "arc endpoint out of range");
            assert!(c >= 0 && r >= 0, "negative capacity");
            first[u + 1] += 1;
            first[v + 1] += 1;
        });
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let len = first[n] as usize;
        let mut net = FlowNetwork {
            to: vec![0; len],
            cap: vec![0; len],
            rev: vec![0; len],
            first,
        };
        let mut cursor = net.first.clone();
        arcs.for_each(|(u, v, c, r)| {
            let fwd = cursor[u];
            cursor[u] += 1;
            let back = cursor[v];
            cursor[v] += 1;
            let (f, b) = (fwd as usize, back as usize);
            (net.to[f], net.cap[f], net.rev[f]) = (v as u32, c, back);
            (net.to[b], net.cap[b], net.rev[b]) = (u as u32, r, fwd);
        });
        net
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Maximum flow from `s` to `t` (Dinic's algorithm). Consumes residual
    /// capacities in place; call on a clone to preserve the network.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let n = self.num_nodes();
        assert!(s < n && t < n);
        if s == t {
            return 0;
        }
        let mut flow = 0i64;
        let mut level = vec![-1i32; n];
        let mut it = vec![0u32; n];
        loop {
            // BFS to build level graph.
            for l in level.iter_mut() {
                *l = -1;
            }
            level[s] = 0;
            let mut q = std::collections::VecDeque::new();
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for a in self.arcs_from(u) {
                    let v = self.arc_to(a);
                    if self.arc_cap(a) > 0 && level[v] < 0 {
                        level[v] = level[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            if level[t] < 0 {
                return flow;
            }
            it.copy_from_slice(&self.first[..n]);
            // DFS blocking flow.
            loop {
                let pushed = self.dfs(s, t, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[i32], it: &mut [u32]) -> i64 {
        if u == t {
            return limit;
        }
        while it[u] < self.first[u + 1] {
            let a = it[u] as usize;
            let v = self.to[a] as usize;
            if self.cap[a] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[a]), level, it);
                if pushed > 0 {
                    self.cap[a] -= pushed;
                    self.cap[self.rev[a] as usize] += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }

    /// Arc ids leaving `u` (forward and residual arcs alike).
    pub fn arcs_from(&self, u: usize) -> std::ops::Range<u32> {
        debug_assert!(u < self.num_nodes(), "node out of range");
        self.first[u]..self.first[u + 1]
    }

    /// Head (destination) node of arc `a`.
    pub fn arc_to(&self, a: u32) -> usize {
        self.to[a as usize] as usize
    }

    /// Residual capacity of arc `a`.
    pub fn arc_cap(&self, a: u32) -> i64 {
        self.cap[a as usize]
    }

    /// Tail (origin) node of arc `a` — the head of its paired reverse arc.
    pub fn arc_from_endpoint(&self, a: usize) -> usize {
        self.to[self.reverse_arc(a)] as usize
    }

    /// The arc paired with `a` in the residual network (`a`'s reverse;
    /// pushing along it cancels flow pushed along `a`).
    pub fn reverse_arc(&self, a: usize) -> usize {
        self.rev[a] as usize
    }

    /// Push one unit of flow along arc `a`, updating the residual pair.
    /// Panics if the arc has no remaining capacity.
    pub fn push_unit(&mut self, a: usize) {
        assert!(self.cap[a] > 0, "push on saturated arc");
        self.cap[a] -= 1;
        self.cap[self.rev[a] as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::from_arcs(2, [(0, 1, 5, 0)]);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn series_takes_min() {
        let mut net = FlowNetwork::from_arcs(3, [(0, 1, 7, 0), (1, 2, 3, 0)]);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_adds() {
        let mut net =
            FlowNetwork::from_arcs(4, [(0, 1, 2, 0), (1, 3, 2, 0), (0, 2, 3, 0), (2, 3, 3, 0)]);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1 network, max flow 23.
        let mut net = FlowNetwork::from_arcs(
            6,
            [
                (0, 1, 16, 0),
                (0, 2, 13, 0),
                (1, 2, 10, 0),
                (2, 1, 4, 0),
                (1, 3, 12, 0),
                (3, 2, 9, 0),
                (2, 4, 14, 0),
                (4, 3, 7, 0),
                (3, 5, 20, 0),
                (4, 5, 4, 0),
            ],
        );
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_zero_flow() {
        let mut net = FlowNetwork::from_arcs(3, [(0, 1, 10, 0)]);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn pushing_along_the_reverse_arc_cancels_a_push() {
        let mut net = FlowNetwork::from_arcs(2, [(0, 1, 2, 0)]);
        let arc = net.arcs_from(0).start as usize;
        let reverse = net.reverse_arc(arc);
        assert_eq!(net.arc_from_endpoint(reverse), 1);
        net.push_unit(arc);
        assert_eq!(
            (net.arc_cap(arc as u32), net.arc_cap(reverse as u32)),
            (1, 1)
        );
        net.push_unit(reverse);
        assert_eq!(
            (net.arc_cap(arc as u32), net.arc_cap(reverse as u32)),
            (2, 0)
        );
    }

    #[test]
    fn same_source_sink() {
        let mut net = FlowNetwork::from_arcs(2, [(0, 1, 1, 0)]);
        assert_eq!(net.max_flow(0, 0), 0);
    }

    #[test]
    fn undirected_edge_flows_both_ways() {
        let net =
            FlowNetwork::from_arcs(3, [(0, 1, 4, 0), (1, 0, 4, 0), (1, 2, 4, 0), (2, 1, 4, 0)]);
        assert_eq!(net.clone_flow(0, 2), 4);
        // And the reverse direction on a fresh network.
        let mut net2 =
            FlowNetwork::from_arcs(3, [(0, 1, 4, 0), (1, 0, 4, 0), (1, 2, 4, 0), (2, 1, 4, 0)]);
        assert_eq!(net2.max_flow(2, 0), 4);
        // And as one arc pair per link, each way.
        let links = FlowNetwork::from_arcs(3, [(0, 1, 4, 4), (1, 2, 4, 4)]);
        assert_eq!(links.clone_flow(0, 2), 4);
        assert_eq!(links.clone_flow(2, 0), 4);
    }

    impl FlowNetwork {
        fn clone_flow(&self, s: usize, t: usize) -> i64 {
            self.clone().max_flow(s, t)
        }
    }
}
