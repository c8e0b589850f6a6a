//! Dinic max-flow on an explicit arc list.
//!
//! SumUp (Tran et al., NSDI '09) collects votes via approximate max-flow
//! from voters to a collector over the social graph with adaptive link
//! capacities. This module provides the exact max-flow primitive it (and
//! min-cut diagnostics) builds on.

/// A flow network over dense node indices with integer capacities.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    // Arcs stored pairwise: arc 2k is forward, 2k+1 its residual reverse.
    to: Vec<u32>,
    cap: Vec<i64>,
    head: Vec<Vec<u32>>, // per node: indices into `to`/`cap`
}

impl FlowNetwork {
    /// Create a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.head.len()
    }

    /// Add a directed arc `u → v` with capacity `c` (and a zero-capacity
    /// residual arc). Panics on out-of-range nodes or negative capacity.
    pub fn add_arc(&mut self, u: usize, v: usize, c: i64) {
        assert!(u < self.head.len() && v < self.head.len(), "arc endpoint out of range");
        assert!(c >= 0, "negative capacity");
        let id = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(c);
        self.to.push(u as u32);
        self.cap.push(0);
        self.head[u].push(id);
        self.head[v].push(id + 1);
    }

    /// Add an undirected edge as two opposing arcs of capacity `c` each.
    pub fn add_undirected(&mut self, u: usize, v: usize, c: i64) {
        self.add_arc(u, v, c);
        self.add_arc(v, u, c);
    }

    /// Maximum flow from `s` to `t` (Dinic's algorithm). Consumes residual
    /// capacities in place; call on a clone to preserve the network.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert!(s < self.head.len() && t < self.head.len());
        if s == t {
            return 0;
        }
        let n = self.head.len();
        let mut flow = 0i64;
        let mut level = vec![-1i32; n];
        let mut it = vec![0usize; n];
        loop {
            // BFS to build level graph.
            for l in level.iter_mut() {
                *l = -1;
            }
            level[s] = 0;
            let mut q = std::collections::VecDeque::new();
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for &a in &self.head[u] {
                    let v = self.to[a as usize] as usize;
                    if self.cap[a as usize] > 0 && level[v] < 0 {
                        level[v] = level[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            if level[t] < 0 {
                return flow;
            }
            for i in it.iter_mut() {
                *i = 0;
            }
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

    fn dfs(&mut self, u: usize, t: usize, limit: i64, level: &[i32], it: &mut [usize]) -> i64 {
        if u == t {
            return limit;
        }
        while it[u] < self.head[u].len() {
            let a = self.head[u][it[u]] as usize;
            let v = self.to[a] as usize;
            if self.cap[a] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[a]), level, it);
                if pushed > 0 {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }

    /// Arc ids leaving `u` (forward and residual arcs alike).
    pub fn arcs_from(&self, u: usize) -> &[u32] {
        &self.head[u]
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
        a ^ 1
    }

    /// Push one unit of flow along arc `a`, updating the residual pair.
    /// Panics if the arc has no remaining capacity.
    pub fn push_unit(&mut self, a: usize) {
        assert!(self.cap[a] > 0, "push on saturated arc");
        self.cap[a] -= 1;
        self.cap[a ^ 1] += 1;
    }

    /// Nodes on the source side of the min cut after [`Self::max_flow`] has
    /// saturated the network.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.head.len()];
        let mut q = std::collections::VecDeque::new();
        side[s] = true;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &a in &self.head[u] {
                let v = self.to[a as usize] as usize;
                if self.cap[a as usize] > 0 && !side[v] {
                    side[v] = true;
                    q.push_back(v);
                }
            }
        }
        side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 5);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn series_takes_min() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 7);
        net.add_arc(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_adds() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(0, 2, 3);
        net.add_arc(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1 network, max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 10);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn pushing_along_the_reverse_arc_cancels_a_push() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 2);
        let arc = net.arcs_from(0)[0] as usize;
        let reverse = net.reverse_arc(arc);
        assert_eq!(net.arc_from_endpoint(reverse), 1);
        net.push_unit(arc);
        assert_eq!((net.arc_cap(arc as u32), net.arc_cap(reverse as u32)), (1, 1));
        net.push_unit(reverse);
        assert_eq!((net.arc_cap(arc as u32), net.arc_cap(reverse as u32)), (2, 0));
    }

    #[test]
    fn same_source_sink() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        assert_eq!(net.max_flow(0, 0), 0);
    }

    #[test]
    fn undirected_edge_flows_both_ways() {
        let mut net = FlowNetwork::new(3);
        net.add_undirected(0, 1, 4);
        net.add_undirected(1, 2, 4);
        assert_eq!(net.clone_flow(0, 2), 4);
        // And the reverse direction on a fresh network.
        let mut net2 = FlowNetwork::new(3);
        net2.add_undirected(0, 1, 4);
        net2.add_undirected(1, 2, 4);
        assert_eq!(net2.max_flow(2, 0), 4);
    }

    impl FlowNetwork {
        fn clone_flow(&self, s: usize, t: usize) -> i64 {
            self.clone().max_flow(s, t)
        }
    }

    #[test]
    fn min_cut_separates_bottleneck() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 100);
        net.add_arc(1, 2, 1); // bottleneck
        net.add_arc(2, 3, 100);
        assert_eq!(net.max_flow(0, 3), 1);
        let side = net.min_cut_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }
}
