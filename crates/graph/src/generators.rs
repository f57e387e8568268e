//! Deterministic workload generators for every graph the thesis evaluates.

use crate::graph::{Graph, GraphBuilder, NodeId};
use ic2_rng::SplitMix64;

/// A hexagonal grid of `rows × cols` cells in "odd-r" offset layout: every
/// interior cell has six neighbours (E, W, NE, NW, SE, SW). This is the
/// topology of both the thesis's generic hex-grid workloads and the
/// battlefield terrain.
///
/// Coordinates are attached (odd rows shifted half a cell right, rows
/// √3/2 apart) so band partitioners can slice the domain geometrically.
///
/// The sorted CSR is written directly, with unit edge weights implicit:
/// cell `(r, c)` is node `r * cols + c`, and its run lists NW/NE, W, E,
/// SW/SE, where the diagonals of an even row are columns `c - 1` and `c`
/// and those of an odd row columns `c` and `c + 1`.
///
/// # Panics
/// Panics if a dimension is zero or the grid has more cells than a
/// [`NodeId`] can number.
pub fn hex_grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "hex grid needs positive dimensions");
    let n = grid_cells("hex grid", rows, cols);
    // Every row has cols - 1 horizontal edges, and every pair of adjacent
    // rows 2 * cols - 1 diagonal ones; each edge is listed from both ends.
    let entries = 2 * (rows * (cols - 1) + (rows - 1) * (2 * cols - 1));
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adj: Vec<NodeId> = Vec::with_capacity(entries);
    let mut coords = Vec::with_capacity(n);
    xadj.push(0);
    for r in 0..rows {
        let odd = r % 2;
        for c in 0..cols {
            // The diagonal columns in the rows above and below.
            let diagonals = (c + odd).saturating_sub(1)..(c + odd + 1).min(cols);
            if r > 0 {
                let base = (r - 1) * cols;
                adj.extend(diagonals.clone().map(|d| (base + d) as NodeId));
            }
            let id = r * cols + c;
            if c > 0 {
                adj.push((id - 1) as NodeId);
            }
            if c + 1 < cols {
                adj.push((id + 1) as NodeId);
            }
            if r + 1 < rows {
                let base = (r + 1) * cols;
                adj.extend(diagonals.map(|d| (base + d) as NodeId));
            }
            xadj.push(adj.len());
            coords.push((c as f64 + 0.5 * odd as f64, r as f64 * 0.866));
        }
    }
    debug_assert_eq!(adj.len(), entries);
    Graph::from_csr(xadj, adj, Vec::new(), vec![1; n]).with_coords(coords)
}

/// `rows * cols`, refused before anything is allocated when the ids of
/// that many cells would not fit a [`NodeId`].
fn grid_cells(kind: &str, rows: usize, cols: usize) -> usize {
    match rows.checked_mul(cols) {
        Some(n) if n <= NodeId::MAX as usize => n,
        _ => panic!(
            "{kind} of {rows} x {cols} cells exceeds the {} nodes a NodeId can number",
            NodeId::MAX
        ),
    }
}

/// The hex-grid sizes the thesis reports: 32, 64 and 96 nodes
/// (4×8, 8×8 and 8×12). Other sizes are factored as close to square as
/// possible.
pub fn hex_grid_n(n: usize) -> Graph {
    let (rows, cols) = match n {
        32 => (4, 8),
        64 => (8, 8),
        96 => (8, 12),
        1024 => (32, 32),
        _ => squarish_dims(n),
    };
    hex_grid(rows, cols)
}

/// The thesis's battlefield terrain: a 32 × 32 hex grid (1024 cells).
pub fn battlefield_mesh() -> Graph {
    hex_grid(32, 32)
}

fn squarish_dims(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

/// A connected random graph on `n` nodes with roughly `avg_degree` average
/// degree and per-node degree capped at `max_degree` (the thesis's node
/// structures hold at most 10 neighbours).
///
/// Construction: a random spanning tree (guaranteeing connectivity, as an
/// iterative computation must reach every node), then random extra edges
/// until the target edge count or the degree cap blocks progress.
/// Deterministic in `seed`.
pub fn random_connected(n: usize, avg_degree: f64, max_degree: usize, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!(max_degree >= 2 || n <= 2, "degree cap too small to connect");
    let mut rng = SplitMix64::new(seed);
    let mut degree = vec![0usize; n];
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut has_edge = std::collections::HashSet::new();

    // Random spanning tree: attach each node (in shuffled order) to a
    // uniformly random, not-yet-saturated earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for i in 1..n {
        // Candidates: previously placed nodes with spare degree.
        let candidates: Vec<usize> = order[..i]
            .iter()
            .copied()
            .filter(|&v| degree[v] < max_degree)
            .collect();
        let parent = *rng
            .choose(&candidates)
            .expect("tree always has a candidate");
        let (u, v) = (
            order[i].min(parent) as NodeId,
            order[i].max(parent) as NodeId,
        );
        has_edge.insert((u, v));
        edges.push((u, v));
        degree[order[i]] += 1;
        degree[parent] += 1;
    }

    let target_edges = ((n as f64 * avg_degree) / 2.0).round() as usize;
    let mut attempts = 0;
    while edges.len() < target_edges && attempts < 50 * target_edges.max(1) {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b || degree[a] >= max_degree || degree[b] >= max_degree {
            continue;
        }
        let key = (a.min(b) as NodeId, a.max(b) as NodeId);
        if has_edge.insert(key) {
            edges.push(key);
            degree[a] += 1;
            degree[b] += 1;
        }
    }

    let mut builder = GraphBuilder::new(n);
    for (u, v) in edges {
        builder.edge(u, v);
    }
    builder.build()
}

/// The thesis's random-graph workloads: 32- and 64-node connected random
/// graphs, average degree ≈ 4, degree cap 10 (the `neighboring_nodes[10]`
/// arrays in Appendix D). The seed selects one of the "five different
/// graphs" the thesis averages over.
pub fn thesis_random_graph(n: usize, seed: u64) -> Graph {
    random_connected(n, 4.0, 10, 0x1C2_0000 + seed)
}

/// A 2D torus (wrap-around mesh), used as an extra topology in tests and
/// ablations.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs dimensions >= 3");
    let n = grid_cells("torus", rows, cols);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            b.edge(id(r, c), id(r, (c + 1) % cols));
            b.edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_grid_has_expected_structure() {
        let g = hex_grid(4, 8);
        assert_eq!(g.num_nodes(), 32);
        assert!(g.is_connected());
        assert_eq!(g.validate(), Ok(()));
        assert!(g.max_degree() <= 6);
        // Interior cells have exactly 6 neighbours.
        let interior_deg = g.degree(8 + 4); // row 1, col 4
        assert_eq!(interior_deg, 6);
        assert!(g.coords().is_some());
    }

    #[test]
    fn hex_grid_neighbor_counts_match_hex_topology() {
        // In a big grid the degree histogram should be dominated by 6s.
        let g = hex_grid(10, 10);
        let sixes = g.nodes().filter(|&v| g.degree(v) == 6).count();
        assert!(sixes >= 8 * 8, "interior should be all degree 6");
    }

    #[test]
    fn thesis_sizes_have_right_node_counts() {
        for n in [32, 64, 96] {
            let g = hex_grid_n(n);
            assert_eq!(g.num_nodes(), n);
            assert!(g.is_connected());
        }
        assert_eq!(battlefield_mesh().num_nodes(), 1024);
    }

    #[test]
    fn random_graph_is_connected_and_capped() {
        for seed in 0..5 {
            let g = thesis_random_graph(64, seed);
            assert_eq!(g.num_nodes(), 64);
            assert!(g.is_connected(), "seed {seed} disconnected");
            assert!(g.max_degree() <= 10, "seed {seed} exceeds cap");
            assert_eq!(g.validate(), Ok(()));
            let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
            assert!((3.0..=5.0).contains(&avg), "avg degree {avg}");
        }
    }

    #[test]
    fn random_graph_is_deterministic_in_seed() {
        let a = thesis_random_graph(32, 3);
        let b = thesis_random_graph(32, 3);
        assert_eq!(a, b);
        let c = thesis_random_graph(32, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 5);
        assert_eq!(g.num_nodes(), 20);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
    }

    #[test]
    fn squarish_dims_factors() {
        assert_eq!(squarish_dims(12), (3, 4));
        assert_eq!(squarish_dims(7), (1, 7));
        assert_eq!(squarish_dims(36), (6, 6));
    }

    #[test]
    fn single_cell_grid() {
        let g = hex_grid(1, 1);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    /// The edge-list construction `hex_grid` replaced, kept as the
    /// reference its direct CSR must equal.
    fn hex_grid_reference(rows: usize, cols: usize) -> Graph {
        let id = |r: usize, c: usize| (r * cols + c) as NodeId;
        let mut b = GraphBuilder::new(rows * cols);
        let mut coords = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                coords.push((c as f64 + 0.5 * (r % 2) as f64, r as f64 * 0.866));
                // East edge.
                if c + 1 < cols {
                    b.edge(id(r, c), id(r, c + 1));
                }
                // Southern diagonals (northern ones are added by the row above).
                if r + 1 < rows {
                    if r % 2 == 0 {
                        // even row: SE = (r+1, c), SW = (r+1, c-1)
                        b.edge(id(r, c), id(r + 1, c));
                        if c > 0 {
                            b.edge(id(r, c), id(r + 1, c - 1));
                        }
                    } else {
                        // odd row: SE = (r+1, c+1), SW = (r+1, c)
                        if c + 1 < cols {
                            b.edge(id(r, c), id(r + 1, c + 1));
                        }
                        b.edge(id(r, c), id(r + 1, c));
                    }
                }
            }
        }
        b.coords(coords);
        b.build()
    }

    fn assert_matches_reference(rows: usize, cols: usize) {
        assert!(
            hex_grid(rows, cols) == hex_grid_reference(rows, cols),
            "hex_grid({rows}, {cols}) differs from the edge-list reference"
        );
    }

    #[test]
    fn hex_grid_equals_the_reference_on_every_small_grid() {
        for rows in 1..=12 {
            for cols in 1..=12 {
                assert_matches_reference(rows, cols);
            }
        }
    }

    #[test]
    fn hex_grid_equals_the_reference_on_the_workload_shapes() {
        for (rows, cols) in [
            (4, 8),
            (8, 8),
            (8, 12),
            (32, 32),
            (128, 128),
            (200, 150),
            (1, 1000),
            (1000, 1),
        ] {
            assert_matches_reference(rows, cols);
        }
    }

    #[test]
    #[ignore = "the benchmark's paged grid; run in release"]
    fn hex_grid_equals_the_reference_at_512_squared() {
        assert_matches_reference(512, 512);
    }

    #[test]
    #[ignore = "the benchmark's million-node grid; run in release"]
    fn hex_grid_equals_the_reference_at_1000_squared() {
        assert_matches_reference(1000, 1000);
    }

    #[test]
    #[should_panic(expected = "hex grid of 65536 x 65537 cells exceeds")]
    fn hex_grid_refuses_more_cells_than_node_ids() {
        hex_grid(1 << 16, (1 << 16) + 1);
    }

    #[test]
    #[should_panic(expected = "torus of 65536 x 65537 cells exceeds")]
    fn torus_refuses_more_cells_than_node_ids() {
        torus(1 << 16, (1 << 16) + 1);
    }
}
