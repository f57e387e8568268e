//! CSR graph representation.

/// Node identifier: a dense index in `0..graph.num_nodes()`.
///
/// The Chaco files the thesis uses number nodes from 1; the
/// [`crate::chaco`] module converts at the boundary.
pub type NodeId = u32;

/// An undirected graph in compressed-sparse-row form with integer node and
/// edge weights and optional planar coordinates.
///
/// Unit edge weights are implicit, as Metis's missing `adjwgt` is \[KK98\]:
/// when every edge weighs 1 — the thesis's `fmt=0` "uniform weighted
/// program graph" — no per-edge weight is stored, and
/// [`edge_weights`](Self::edge_weights) slices one shared run of
/// `max_degree` ones. Every constructor decides this once and stores the
/// same canonical form, so `==` still means "same graph".
///
/// Invariants (checked by [`GraphBuilder::build`], [`Graph::from_csr`] and
/// [`Graph::validate`]):
/// adjacency is symmetric with matching edge weights, there are no
/// self-loops or parallel edges, and `xadj` is monotone.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    xadj: Vec<usize>,
    adj: Vec<NodeId>,
    vwgt: Vec<i64>,
    /// Edge weights aligned with `adj`; empty when every edge weighs 1.
    ewgt: Vec<i64>,
    /// `max_degree` ones when `ewgt` is empty, else nothing.
    ones: Vec<i64>,
    coords: Option<Vec<(f64, f64)>>,
}

impl Graph {
    /// A graph straight from CSR arrays: node `v`'s neighbours are
    /// `adj[xadj[v]..xadj[v + 1]]`, weighted by the same range of `ewgt`,
    /// and its weight is `vwgt[v]`. No coordinates.
    ///
    /// An empty `ewgt` means every edge weighs 1; so does an `ewgt` of all
    /// ones, which is dropped rather than stored.
    ///
    /// Makes the same release-mode checks as [`GraphBuilder::build`] —
    /// neighbours in range, no self-loops, positive edge weights, each run
    /// strictly ascending (so no parallel edges) — and leaves symmetry to
    /// [`validate`](Self::validate) in debug builds, as `build` does.
    ///
    /// # Panics
    /// Panics on any of those violations or on mismatched array lengths.
    pub fn from_csr(
        xadj: Vec<usize>,
        adj: Vec<NodeId>,
        mut ewgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Graph {
        let n = vwgt.len();
        assert!(
            xadj.len() == n + 1
                && xadj[n] == adj.len()
                && (ewgt.is_empty() || ewgt.len() == adj.len()),
            "CSR array lengths disagree"
        );
        for v in 0..n {
            let run = &adj[xadj[v]..xadj[v + 1]];
            for (i, &w) in run.iter().enumerate() {
                assert!(
                    (w as usize) < n,
                    "edge ({v},{w}) out of range for {n} nodes"
                );
                assert_ne!(w as usize, v, "self loop at node {v}");
                assert!(
                    i == 0 || run[i - 1] < w,
                    "node {v}: neighbours not strictly ascending"
                );
            }
        }
        if !ewgt.is_empty() {
            for v in 0..n {
                let range = xadj[v]..xadj[v + 1];
                for (&w, &ew) in adj[range.clone()].iter().zip(&ewgt[range]) {
                    assert!(ew > 0, "edge ({v},{w}) has non-positive weight {ew}");
                }
            }
            if ewgt.iter().all(|&ew| ew == 1) {
                ewgt = Vec::new();
            }
        }
        let g = Graph::assemble(xadj, adj, vwgt, ewgt, None);
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// The one place a `Graph` is put together: fills `ones` when `ewgt`
    /// is empty, so every constructor stores the canonical form.
    fn assemble(
        xadj: Vec<usize>,
        adj: Vec<NodeId>,
        vwgt: Vec<i64>,
        ewgt: Vec<i64>,
        coords: Option<Vec<(f64, f64)>>,
    ) -> Graph {
        let ones = if ewgt.is_empty() {
            let max_degree = xadj.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            vec![1; max_degree]
        } else {
            Vec::new()
        };
        Graph {
            xadj,
            adj,
            vwgt,
            ewgt,
            ones,
            coords,
        }
    }

    /// Attach planar coordinates, one per node.
    pub(crate) fn with_coords(mut self, coords: Vec<(f64, f64)>) -> Graph {
        debug_assert_eq!(coords.len(), self.num_nodes());
        self.coords = Some(coords);
        self
    }

    /// Whether every edge weighs 1, so that no edge weight is stored.
    pub fn has_unit_edge_weights(&self) -> bool {
        self.ewgt.is_empty()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of `v`, in sorted order.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Edge weights aligned with [`neighbors`](Self::neighbors).
    pub fn edge_weights(&self, v: NodeId) -> &[i64] {
        let range = self.xadj[v as usize]..self.xadj[v as usize + 1];
        if self.ewgt.is_empty() {
            &self.ones[..range.len()]
        } else {
            &self.ewgt[range]
        }
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Computational weight of node `v`.
    pub fn vertex_weight(&self, v: NodeId) -> i64 {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[i64] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Weight of the edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<i64> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| self.edge_weights(u)[i])
    }

    /// Whether `(u, v)` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Planar coordinates, if the generator attached them.
    pub fn coords(&self) -> Option<&[(f64, f64)]> {
        self.coords.as_deref()
    }

    /// Coordinate of one node, if coordinates exist.
    pub fn coord(&self, v: NodeId) -> Option<(f64, f64)> {
        self.coords.as_ref().map(|c| c[v as usize])
    }

    /// Iterate over every node id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterate over each undirected edge once, as `(u, v, weight)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, i64)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.edge_weights(u))
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the graph is connected (empty graphs count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Check all structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.vwgt.len() != n {
            return Err(format!("vwgt length {} != n {}", self.vwgt.len(), n));
        }
        if self.ewgt.is_empty() {
            if self.ones.len() != self.max_degree() || self.ones.iter().any(|&w| w != 1) {
                return Err("unit-weight run is not max_degree ones".into());
            }
        } else if self.ewgt.len() != self.adj.len() {
            return Err("ewgt length != adjacency length".into());
        }
        if let Some(c) = &self.coords {
            if c.len() != n {
                return Err("coords length != n".into());
            }
        }
        for v in self.nodes() {
            let nbrs = self.neighbors(v);
            for window in nbrs.windows(2) {
                if window[0] >= window[1] {
                    return Err(format!("node {v}: neighbours not strictly sorted"));
                }
            }
            for (&w, &ew) in nbrs.iter().zip(self.edge_weights(v)) {
                if w as usize >= n {
                    return Err(format!("node {v}: neighbour {w} out of range"));
                }
                if w == v {
                    return Err(format!("node {v}: self loop"));
                }
                match self.edge_weight(w, v) {
                    Some(back) if back == ew => {}
                    Some(back) => {
                        return Err(format!("edge ({v},{w}): asymmetric weights {ew} vs {back}"))
                    }
                    None => return Err(format!("edge ({v},{w}) missing reverse direction")),
                }
            }
        }
        Ok(())
    }
}

/// Incremental graph construction from an edge list.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, i64)>,
    vwgt: Option<Vec<i64>>,
    coords: Option<Vec<(f64, f64)>>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            ..Default::default()
        }
    }

    /// Add an undirected edge of weight 1.
    pub fn edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.weighted_edge(u, v, 1)
    }

    /// Add an undirected edge with an explicit weight.
    pub fn weighted_edge(&mut self, u: NodeId, v: NodeId, w: i64) -> &mut Self {
        self.edges.push((u, v, w));
        self
    }

    /// Set all vertex weights (defaults to uniform 1).
    pub fn vertex_weights(&mut self, vwgt: Vec<i64>) -> &mut Self {
        self.vwgt = Some(vwgt);
        self
    }

    /// Attach planar coordinates.
    pub fn coords(&mut self, coords: Vec<(f64, f64)>) -> &mut Self {
        self.coords = Some(coords);
        self
    }

    /// Build the CSR graph.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, duplicate edges, or
    /// mismatched weight/coordinate vector lengths.
    pub fn build(&self) -> Graph {
        let n = self.n;
        for &(u, v, w) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for {n} nodes"
            );
            assert_ne!(u, v, "self loop at node {u}");
            assert!(w > 0, "edge ({u},{v}) has non-positive weight {w}");
        }
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        // Unit weights are decided here, before the weight array would be
        // allocated: a unit graph never has one.
        let unit = self.edges.iter().all(|&(_, _, w)| w == 1);
        let mut adj = vec![0 as NodeId; xadj[n]];
        let mut ewgt = if unit {
            Vec::new()
        } else {
            vec![0i64; xadj[n]]
        };
        let mut cursor = xadj.clone();
        for &(u, v, w) in &self.edges {
            let (cu, cv) = (cursor[u as usize], cursor[v as usize]);
            adj[cu] = v;
            adj[cv] = u;
            if !unit {
                ewgt[cu] = w;
                ewgt[cv] = w;
            }
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency run that is not already strictly ascending and
        // detect duplicates. A unit run sorts its ids in place; a weighted
        // one sorts (id, weight) pairs in a buffer of its own.
        for v in 0..n {
            let range = xadj[v]..xadj[v + 1];
            if adj[range.clone()].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            if unit {
                adj[range.clone()].sort_unstable();
            } else {
                let mut pairs: Vec<(NodeId, i64)> = adj[range.clone()]
                    .iter()
                    .copied()
                    .zip(ewgt[range.clone()].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(w, _)| w);
                for (i, (w, ew)) in pairs.into_iter().enumerate() {
                    adj[xadj[v] + i] = w;
                    ewgt[xadj[v] + i] = ew;
                }
            }
            for window in adj[range].windows(2) {
                assert_ne!(window[0], window[1], "duplicate edge ({v},{})", window[0]);
            }
        }
        let vwgt = match &self.vwgt {
            Some(v) => {
                assert_eq!(v.len(), n, "vertex weight vector length mismatch");
                v.clone()
            }
            None => vec![1; n],
        };
        if let Some(c) = &self.coords {
            assert_eq!(c.len(), n, "coordinate vector length mismatch");
        }
        let g = Graph::assemble(xadj, adj, vwgt, ewgt, self.coords.clone());
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).weighted_edge(0, 2, 5);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.edge_weight(0, 2), Some(5));
        assert_eq!(g.edge_weight(2, 0), Some(5));
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert!(g.has_edge(1, 2));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_vertex_weight(), 3);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 5), (1, 2, 1)]);
    }

    #[test]
    fn connectivity_detection() {
        let g = triangle();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(2, 3);
        assert!(!b.build().is_connected());
        assert!(GraphBuilder::new(0).build().is_connected());
        assert!(GraphBuilder::new(1).build().is_connected());
    }

    #[test]
    fn custom_vertex_weights() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).vertex_weights(vec![3, 4]);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 3);
        assert_eq!(g.total_vertex_weight(), 7);
    }

    #[test]
    fn coords_attach() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).coords(vec![(0.0, 0.0), (1.0, 0.5)]);
        let g = b.build();
        assert_eq!(g.coord(1), Some((1.0, 0.5)));
        assert_eq!(triangle().coord(0), None);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1);
        b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).edge(1, 0);
        b.build();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 2);
        b.build();
    }

    #[test]
    fn from_csr_equals_the_built_graph() {
        let g = Graph::from_csr(
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 2, 0, 1],
            vec![1, 5, 1, 1, 5, 1],
            vec![1; 3],
        );
        assert_eq!(g, triangle());
    }

    #[test]
    fn build_sorts_runs_given_out_of_order() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 3).weighted_edge(0, 1, 2).edge(2, 0).edge(3, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.edge_weights(0), &[2, 1, 1]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_csr_rejects_an_unsorted_run() {
        Graph::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![1; 4], vec![1; 3]);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn from_csr_rejects_a_self_loop() {
        Graph::from_csr(vec![0, 1, 2], vec![0, 0], vec![1; 2], vec![1; 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_csr_rejects_an_out_of_range_neighbour() {
        Graph::from_csr(vec![0, 1, 2], vec![1, 2], vec![1; 2], vec![1; 2]);
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn from_csr_rejects_a_zero_weight() {
        Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![0; 2], vec![1; 2]);
    }

    #[test]
    fn validate_passes_for_built_graphs() {
        assert_eq!(triangle().validate(), Ok(()));
    }

    /// A 2 × 3 grid with one diagonal, listed out of order.
    const MESH: [(NodeId, NodeId); 8] = [
        (0, 1),
        (1, 2),
        (3, 4),
        (4, 5),
        (0, 3),
        (1, 4),
        (2, 5),
        (4, 0),
    ];

    /// [`MESH`] with edge `(u, v)` weighing `weight(u, v)`.
    fn mesh(weight: impl Fn(NodeId, NodeId) -> i64) -> Graph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in MESH {
            b.weighted_edge(u, v, weight(u, v));
        }
        b.build()
    }

    #[test]
    fn explicit_unit_weights_build_the_unit_form() {
        let mut b = GraphBuilder::new(6);
        for (u, v) in MESH {
            b.edge(u, v);
        }
        let explicit = mesh(|_, _| 1);
        assert_eq!(explicit, b.build());
        assert!(explicit.has_unit_edge_weights());
        assert_eq!(explicit.ones, vec![1; 4]);
    }

    #[test]
    fn one_heavier_edge_keeps_the_stored_array() {
        let g = triangle();
        assert!(!g.has_unit_edge_weights());
        assert_eq!(g.ewgt.len(), 2 * g.num_edges());
        assert!(g.ones.is_empty());
        let g = mesh(|u, v| if (u, v) == (4, 0) { 2 } else { 1 });
        assert!(!g.has_unit_edge_weights());
        assert_eq!(g.edge_weights(4), &[2, 1, 1, 1]);
        assert_eq!(g.edge_weights(0), &[1, 1, 2]);
    }

    #[test]
    fn stored_and_implicit_unit_weights_read_alike() {
        let implicit = mesh(|_, _| 1);
        let stored = Graph {
            ewgt: vec![1; implicit.adj.len()],
            ones: Vec::new(),
            ..implicit.clone()
        };
        for v in implicit.nodes() {
            assert_eq!(implicit.edge_weights(v), stored.edge_weights(v));
            for w in implicit.nodes() {
                assert_eq!(implicit.edge_weight(v, w), stored.edge_weight(v, w));
            }
        }
        assert_eq!(
            implicit.edges().collect::<Vec<_>>(),
            stored.edges().collect::<Vec<_>>()
        );
        assert_eq!(implicit.validate(), Ok(()));
        assert_eq!(stored.validate(), Ok(()));
        for fmt in [0u8, 1, 10, 11] {
            let text = crate::chaco::render(&implicit, fmt);
            assert_eq!(text, crate::chaco::render(&stored, fmt), "fmt {fmt}");
            assert_eq!(crate::chaco::parse(&text).unwrap(), implicit, "fmt {fmt}");
        }
    }

    #[test]
    fn from_csr_takes_an_empty_ewgt_as_unit_weights() {
        let edgeless = Graph::from_csr(vec![0, 0, 0], Vec::new(), Vec::new(), vec![1; 2]);
        assert_eq!(edgeless, GraphBuilder::new(2).build());
        let xadj = vec![0, 2, 4, 6];
        let adj = vec![1, 2, 0, 2, 0, 1];
        let empty = Graph::from_csr(xadj.clone(), adj.clone(), Vec::new(), vec![1; 3]);
        let ones = Graph::from_csr(xadj, adj, vec![1; 6], vec![1; 3]);
        assert_eq!(empty, ones);
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(0, 2);
        assert_eq!(empty, b.build());
        assert_eq!(empty.edge_weights(2), &[1, 1]);
    }

    #[test]
    fn a_unit_graph_holds_no_edge_weight_storage() {
        let g = crate::generators::hex_grid(32, 32);
        assert!(g.has_unit_edge_weights());
        assert_eq!(g.ewgt.capacity(), 0);
        assert_eq!(g.ones.len(), g.max_degree());
        let built = mesh(|_, _| 1);
        assert_eq!(built.ewgt.capacity(), 0);
        let from_ones = Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![1; 2], vec![1; 2]);
        assert_eq!(from_ones.ewgt.capacity(), 0);
    }
}
