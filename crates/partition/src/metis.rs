//! Multilevel k-way partitioner in the style of Metis \[KK98\].
//!
//! Structure follows the classic multilevel recipe the thesis relies on:
//!
//! 1. **Coarsening** — heavy-edge matching contracts the graph until it is
//!    small, or until a level keeps more than 85 % of its nodes (Metis's
//!    `COARSEN_FRACTION`; a star merges one leaf a level);
//! 2. **Initial partitioning** — greedy graph-growing bisection from
//!    several seeds, best cut kept;
//! 3. **Uncoarsening** — the bisection is projected back level by level
//!    and refined at each level by boundary Fiduccia–Mattheyses passes,
//!    rolled back to the best prefix;
//! 4. k-way partitions come from recursive bisection with proportional
//!    weight targets, finished by a greedy k-way boundary refinement pass.
//!
//! Deterministic in [`Metis::seed`].
//!
//! # Exactness
//!
//! The partition is a function of the graph, `k` and the four fields of
//! [`Metis`]; `tests/pinned.rs` holds its hashes. Each kernel is checked
//! against a plain reference under `#[cfg(test)]`: contraction against a
//! `HashMap` of coarse edges, FM against a scan that moves the best
//! feasible `(gain, Reverse(v))` among the queued vertices.
//!
//! FM starts from the boundary, as Metis does: a pass queues the vertices
//! with an edge to the other side, a vertex joins when a neighbour's move
//! gives it one, and a pass stops after `max(15, n/100)` moves that bring
//! no new best prefix. Unlike Metis's `FM_2WayCutRefine`, which dequeues a
//! vertex whose last edge to the other side goes away, a vertex stays
//! queued for the rest of the pass once it joins, so an interior vertex can
//! still be picked as a negative-gain move. That is not output-preserving. The full-graph FM it
//! replaced moved every vertex once a pass and rolled most of the moves
//! back, yet each of those moves decided which vertex moved next; boundary
//! FM never makes the interior moves nor the tail past its early exit, so
//! it ends on other sides. Coarse vertices are numbered in fine-id order,
//! as Metis numbers its coarse map, so every level keeps the fine graph's
//! locality. The hashes were regenerated once for both changes, and
//! `tests/pinned.rs` also holds each case's cut and heaviest part from
//! before them as a floor: a later speed-up cannot trade the cut for time
//! unnoticed.

use crate::StaticPartitioner;
use ic2_graph::{Graph, NodeId, Partition};
use ic2_rng::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Multilevel recursive-bisection partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Metis {
    /// Seed for matching order and growing seeds.
    pub seed: u64,
    /// Allowed imbalance ε: part loads may reach `(1 + ε) ×` ideal.
    pub imbalance: f64,
    /// Stop coarsening below this many nodes.
    pub coarsen_to: usize,
    /// Seeds tried for the initial growing bisection.
    pub init_tries: usize,
}

impl Default for Metis {
    fn default() -> Self {
        Metis {
            seed: 0x1C2,
            imbalance: 0.05,
            coarsen_to: 48,
            init_tries: 6,
        }
    }
}

impl StaticPartitioner for Metis {
    fn name(&self) -> &'static str {
        "metis"
    }

    fn partition(&self, graph: &Graph, nparts: usize) -> Partition {
        assert!(nparts > 0);
        let n = graph.num_nodes();
        let mut assignment = vec![0u32; n];
        if nparts > 1 && n > 0 {
            let nodes: Vec<NodeId> = graph.nodes().collect();
            let mut rng = SplitMix64::new(self.seed);
            // Per-level balance windows compound over log2(k) bisection
            // levels, so shrink each level's ε to keep the final k-way
            // imbalance near the configured budget.
            let levels = (nparts as f64).log2().ceil().max(1.0);
            let eps = self.imbalance / levels;
            let mut fm = FmQueues::default();
            self.split(
                graph,
                &nodes,
                0,
                nparts,
                eps,
                &mut assignment,
                &mut rng,
                &mut fm,
            );
        }
        let mut part = Partition::new(assignment, nparts);
        self.kway_refine(graph, &mut part);
        part
    }
}

impl Metis {
    /// Recursively bisect the subgraph induced by `nodes` (ascending) into
    /// parts `first_part..first_part + k`.
    #[allow(clippy::too_many_arguments)]
    fn split(
        &self,
        graph: &Graph,
        nodes: &[NodeId],
        first_part: u32,
        k: usize,
        eps: f64,
        assignment: &mut [u32],
        rng: &mut SplitMix64,
        fm: &mut FmQueues,
    ) {
        if k == 1 || nodes.is_empty() {
            for &v in nodes {
                assignment[v as usize] = first_part;
            }
            return;
        }
        let k_left = k / 2;
        let frac = k_left as f64 / k as f64;
        // Each side must receive at least one node per part it will host
        // (when enough nodes exist), or downstream parts end up empty.
        let ml = k_left.min(nodes.len());
        let mr = (k - k_left).min(nodes.len() - ml);
        // The whole graph is its own induced subgraph, not copied; any other
        // is freed at the end of the block, before the halves induce theirs.
        let side = {
            let induced;
            let sub = if nodes.len() == graph.num_nodes() {
                graph
            } else {
                induced = induce(graph, nodes);
                &induced
            };
            let mut side = self.bisect(sub, frac, eps, ml, mr, rng, fm);
            meet_floors(sub, &mut side, ml, mr);
            side
        };
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (&v, &s) in nodes.iter().zip(&side) {
            if s {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        self.split(graph, &left, first_part, k_left, eps, assignment, rng, fm);
        self.split(
            graph,
            &right,
            first_part + k_left as u32,
            k - k_left,
            eps,
            assignment,
            rng,
            fm,
        );
    }

    /// Multilevel bisection: returns `true` for nodes on the "left" side,
    /// whose weight targets `frac` of the total, aiming for at least `ml`
    /// nodes on the left and `mr` on the right (hosting floors from the
    /// recursive split). FM keeps floors it starts on, but a projected coarse
    /// bisection may miss them, so `split` settles them with [`meet_floors`].
    #[allow(clippy::too_many_arguments)]
    fn bisect(
        &self,
        graph: &Graph,
        frac: f64,
        eps: f64,
        ml: usize,
        mr: usize,
        rng: &mut SplitMix64,
        fm: &mut FmQueues,
    ) -> Vec<bool> {
        let n = graph.num_nodes();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![ml >= 1];
        }
        if n > self.coarsen_to {
            // Coarsen one level and recurse. Node-count floors only bind on
            // tiny graphs, so the coarse level just needs feasible values.
            let (coarse, map) = coarsen(graph, rng);
            let cn = coarse.num_nodes();
            if cn * 20 <= n * 17 {
                let cml = ml.min(cn / 2);
                let cmr = mr.min(cn - cml);
                let coarse_side = self.bisect(&coarse, frac, eps, cml, cmr, rng, fm);
                let mut side: Vec<bool> = map.iter().map(|&c| coarse_side[c as usize]).collect();
                fm_refine(graph, &mut side, frac, eps, ml, mr, fm);
                return side;
            }
            // Matching kept more than 85 % of the nodes (a star merges one
            // leaf a level, and would recurse about n levels deep); fall
            // through to direct initial partitioning.
        }
        let mut best: Option<(i64, f64, Vec<bool>)> = None;
        for _ in 0..self.init_tries.max(1) {
            let mut side = grow_bisection(graph, frac, ml, mr, rng);
            fm_refine(graph, &mut side, frac, eps, ml, mr, fm);
            let cut = cut_of(graph, &side);
            let dev = balance_deviation(graph, &side, frac);
            if best
                .as_ref()
                .is_none_or(|(bc, bd, _)| (cut, dev) < (*bc, *bd))
            {
                best = Some((cut, dev, side));
            }
        }
        best.expect("at least one try").2
    }

    /// Greedy k-way boundary refinement: move boundary nodes to adjacent
    /// parts when it reduces the cut without breaking balance.
    ///
    /// A node's edge weight into each part (`conn`) is summed once per
    /// visit, so each candidate's gain, `conn[home] - conn[p]`, is O(1).
    fn kway_refine(&self, graph: &Graph, part: &mut Partition) {
        let k = part.num_parts();
        if k < 2 || graph.num_nodes() < 2 {
            return;
        }
        let total = graph.total_vertex_weight();
        let ideal = total as f64 / k as f64;
        let cap = (ideal * (1.0 + self.imbalance)).ceil() as i64;
        let mut loads = part.loads(graph);
        let mut counts = part.counts();
        let mut conn = vec![0i64; k];
        for _pass in 0..4 {
            let mut moved = 0;
            for v in graph.nodes() {
                let home = part.part_of(v);
                // A move must never empty its source part: with k = n every
                // singleton looks tempting to merge, but the mapping must
                // keep all processors occupied.
                if counts[home as usize] <= 1 {
                    continue;
                }
                connectivity(graph, part, v, &mut conn);
                // Candidate parts: those of v's neighbours.
                let vw = graph.vertex_weight(v);
                let mut best: Option<(i64, u32)> = None;
                for &w in graph.neighbors(v) {
                    let p = part.part_of(w);
                    if p == home {
                        continue;
                    }
                    let gain = conn[home as usize] - conn[p as usize];
                    let fits = loads[p as usize] + vw <= cap
                        || loads[p as usize] + vw < loads[home as usize];
                    if gain < 0 && fits && best.is_none_or(|(bg, _)| gain < bg) {
                        best = Some((gain, p));
                    }
                }
                clear_connectivity(graph, part, v, &mut conn);
                if let Some((_, p)) = best {
                    loads[home as usize] -= vw;
                    loads[p as usize] += vw;
                    counts[home as usize] -= 1;
                    counts[p as usize] += 1;
                    part.assign(v, p);
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
        // Balancing phase: drain overloaded parts into their least-loaded
        // neighbouring part, choosing the boundary node whose move hurts
        // the cut least. Bisection drift can otherwise accumulate past the
        // configured budget.
        for _pass in 0..6 {
            let mut moved = false;
            for v in graph.nodes() {
                let home = part.part_of(v);
                if loads[home as usize] <= cap || counts[home as usize] <= 1 {
                    continue;
                }
                connectivity(graph, part, v, &mut conn);
                let vw = graph.vertex_weight(v);
                let mut best: Option<(i64, i64, u32)> = None;
                for &w in graph.neighbors(v) {
                    let p = part.part_of(w);
                    if p == home || loads[p as usize] + vw >= loads[home as usize] {
                        continue;
                    }
                    let gain = conn[home as usize] - conn[p as usize];
                    let key = (gain, loads[p as usize]);
                    if best.is_none_or(|(bg, bl, _)| key < (bg, bl)) {
                        best = Some((gain, loads[p as usize], p));
                    }
                }
                clear_connectivity(graph, part, v, &mut conn);
                if let Some((_, _, p)) = best {
                    loads[home as usize] -= vw;
                    loads[p as usize] += vw;
                    counts[home as usize] -= 1;
                    counts[p as usize] += 1;
                    part.assign(v, p);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

/// Move to the side that lacks nodes for its floor (`ml` left, `mr` right)
/// as many nodes of the other side as it lacks: those whose move cuts
/// least, by `(gain, Reverse(v))` as FM orders them. A no-op whenever the
/// floors hold, as they do for every pinned partition.
fn meet_floors(graph: &Graph, side: &mut [bool], ml: usize, mr: usize) {
    let n = side.len();
    let left = side.iter().filter(|&&s| s).count();
    let (from, short) = if left < ml {
        (false, ml - left)
    } else if n - left < mr {
        (true, mr - (n - left))
    } else {
        return;
    };
    let mut donors: Vec<(i64, Reverse<NodeId>)> = graph
        .nodes()
        .filter(|&v| side[v as usize] == from)
        .map(|v| {
            let neighbours = graph.neighbors(v).iter().zip(graph.edge_weights(v));
            let gain = neighbours
                .map(|(&w, &ew)| if side[w as usize] == from { -ew } else { ew })
                .sum();
            (gain, Reverse(v))
        })
        .collect();
    donors.sort_unstable_by(|a, b| b.cmp(a));
    for &(_, Reverse(v)) in &donors[..short] {
        side[v as usize] = !from;
    }
}

/// Add `v`'s edge weight into each part to `conn` (all zero on entry).
fn connectivity(graph: &Graph, part: &Partition, v: NodeId, conn: &mut [i64]) {
    for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
        conn[part.part_of(w) as usize] += ew;
    }
}

/// Zero the entries [`connectivity`] wrote for `v`.
fn clear_connectivity(graph: &Graph, part: &Partition, v: NodeId, conn: &mut [i64]) {
    for &w in graph.neighbors(v) {
        conn[part.part_of(w) as usize] = 0;
    }
}

/// The subgraph induced by `nodes` (ascending), its node `i` being
/// `nodes[i]`. Local ids keep the parent's order, so each run of the
/// parent's sorted adjacency, filtered, is already a sorted CSR run. A
/// unit-weight parent gets a unit-weight subgraph, with no weight array.
fn induce(graph: &Graph, nodes: &[NodeId]) -> Graph {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    let mut local = vec![u32::MAX; graph.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let weighted = !graph.has_unit_edge_weights();
    let mut xadj = Vec::with_capacity(nodes.len() + 1);
    xadj.push(0);
    let mut adj = Vec::new();
    let mut ewgt = Vec::new();
    for &v in nodes {
        for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            let lw = local[w as usize];
            if lw != u32::MAX {
                adj.push(lw);
                if weighted {
                    ewgt.push(ew);
                }
            }
        }
        xadj.push(adj.len());
    }
    let vwgt = nodes.iter().map(|&v| graph.vertex_weight(v)).collect();
    Graph::from_csr(xadj, adj, ewgt, vwgt)
}

/// One level of heavy-edge matching coarsening. Returns the coarse graph
/// and the fine-to-coarse vertex map.
///
/// Matching visits the vertices in shuffled order; coarse vertices are then
/// numbered in the order of their lowest fine id, as Metis numbers its
/// coarse map, so a coarse level keeps the fine graph's locality.
/// Contraction writes CSR directly, as Metis does: coarse vertex `c`'s run
/// merges the neighbour runs of its one or two members through `slot`, a
/// per-coarse-vertex marker holding a neighbour's position in the run, and
/// is then sorted in place in one reused buffer.
fn coarsen(graph: &Graph, rng: &mut SplitMix64) -> (Graph, Vec<u32>) {
    let n = graph.num_nodes();
    let mut order: Vec<NodeId> = graph.nodes().collect();
    rng.shuffle(&mut order);
    let mut matched = vec![u32::MAX; n];
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(i64, NodeId)> = None;
        for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            if matched[w as usize] == u32::MAX
                && best.is_none_or(|(bw, bn)| (ew, Reverse(w)) > (bw, Reverse(bn)))
            {
                best = Some((ew, w));
            }
        }
        let mate = best.map_or(v, |(_, w)| w);
        matched[v as usize] = mate;
        matched[mate as usize] = v;
    }
    // A coarse vertex's founder is its lower fine id.
    let founder = |v: NodeId| matched[v as usize] >= v;
    let mut coarse_id = vec![u32::MAX; n];
    let mut cn = 0;
    for v in graph.nodes().filter(|&v| founder(v)) {
        coarse_id[v as usize] = cn;
        coarse_id[matched[v as usize] as usize] = cn;
        cn += 1;
    }
    let cn = cn as usize;
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0);
    // At most the fine adjacency survives contraction, less the two entries
    // of each matched edge; the excess is returned below.
    let bound = 2 * graph.num_edges() - 2 * (n - cn);
    let mut adj = Vec::with_capacity(bound);
    let mut ewgt = Vec::with_capacity(bound);
    let mut vwgt = Vec::with_capacity(cn);
    let mut slot = vec![u32::MAX; cn];
    let mut run: Vec<(u32, i64)> = Vec::new();
    for v in graph.nodes().filter(|&v| founder(v)) {
        let c = coarse_id[v as usize];
        let mate = matched[v as usize];
        let members = [v, mate];
        let members = if mate == v {
            &members[..1]
        } else {
            &members[..]
        };
        let mut weight = 0;
        for &u in members {
            weight += graph.vertex_weight(u);
            for (&w, &ew) in graph.neighbors(u).iter().zip(graph.edge_weights(u)) {
                let cw = coarse_id[w as usize];
                if cw == c {
                    continue;
                }
                match slot[cw as usize] {
                    u32::MAX => {
                        slot[cw as usize] = run.len() as u32;
                        run.push((cw, ew));
                    }
                    i => run[i as usize].1 += ew,
                }
            }
        }
        run.sort_unstable_by_key(|&(w, _)| w);
        for &(w, ew) in &run {
            slot[w as usize] = u32::MAX;
            adj.push(w);
            ewgt.push(ew);
        }
        run.clear();
        xadj.push(adj.len());
        vwgt.push(weight);
    }
    adj.shrink_to_fit();
    ewgt.shrink_to_fit();
    (Graph::from_csr(xadj, adj, ewgt, vwgt), coarse_id)
}

/// Greedy graph-growing bisection: BFS-grow a region from a random seed,
/// always absorbing the frontier vertex with the best cut gain, until the
/// region reaches `frac` of the total weight (respecting the `ml`/`mr`
/// node-count floors).
fn grow_bisection(
    graph: &Graph,
    frac: f64,
    ml: usize,
    mr: usize,
    rng: &mut SplitMix64,
) -> Vec<bool> {
    let n = graph.num_nodes();
    let total = graph.total_vertex_weight();
    let target = (total as f64 * frac).round() as i64;
    let mut side = vec![false; n];
    let mut weight = 0i64;
    let mut count = 0usize;
    let mut frontier: Vec<NodeId> = Vec::new();
    let seed = rng.gen_range(0..n) as NodeId;
    let mut next_seed = seed;
    while (weight < target && count < n - mr) || count < ml {
        let v = if side[next_seed as usize] {
            // Pick the best-gain frontier vertex; gain = (edges into the
            // region) - (edges out), higher absorbs first.
            frontier.retain(|&f| !side[f as usize]);
            match frontier.iter().copied().max_by_key(|&f| {
                let mut gain = 0i64;
                for (&w, &ew) in graph.neighbors(f).iter().zip(graph.edge_weights(f)) {
                    gain += if side[w as usize] { ew } else { -ew };
                }
                (gain, Reverse(f))
            }) {
                Some(f) => f,
                None => {
                    // Disconnected remainder: jump to any unassigned node.
                    match (0..n as NodeId).find(|&v| !side[v as usize]) {
                        Some(v) => v,
                        None => break,
                    }
                }
            }
        } else {
            next_seed
        };
        side[v as usize] = true;
        weight += graph.vertex_weight(v);
        count += 1;
        for &w in graph.neighbors(v) {
            if !side[w as usize] {
                frontier.push(w);
            }
        }
        next_seed = v;
    }
    side
}

fn cut_of(graph: &Graph, side: &[bool]) -> i64 {
    graph
        .edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .map(|(_, _, w)| w)
        .sum()
}

fn balance_deviation(graph: &Graph, side: &[bool], frac: f64) -> f64 {
    let total = graph.total_vertex_weight() as f64;
    let left: i64 = graph
        .nodes()
        .filter(|&v| side[v as usize])
        .map(|v| graph.vertex_weight(v))
        .sum();
    (left as f64 - total * frac).abs()
}

/// FM's state, allocated once per [`Metis::partition`] call and reused by
/// every level and initial try; [`fm_refine`] picks a heap key per call.
#[derive(Default)]
struct FmQueues {
    packed: GainHeaps<u64>,
    wide: GainHeaps<(i64, Reverse<NodeId>)>,
    /// Every vertex's gain, queued or not, kept through each neighbour's
    /// move so that a vertex joins the queue at its true gain.
    gains: Vec<i64>,
    history: Vec<NodeId>,
}

/// A heap priority: higher gain first, then the lower vertex id. Both
/// encodings order the same. The packed `u64` holds the gain's 32 bits
/// (sign flipped, so unsigned order is signed order) above the complemented
/// id; it halves the heaps' bytes and serves whenever every weighted degree,
/// and so every gain, fits an `i32`. The pair serves any weights.
trait Key: Copy + Ord {
    fn new(gain: i64, v: NodeId) -> Self;
    fn gain(self) -> i64;
    fn vertex(self) -> NodeId;
}

impl Key for u64 {
    fn new(gain: i64, v: NodeId) -> Self {
        u64::from(gain as i32 as u32 ^ 1 << 31) << 32 | u64::from(!v)
    }
    fn gain(self) -> i64 {
        i64::from(((self >> 32) as u32 ^ 1 << 31) as i32)
    }
    fn vertex(self) -> NodeId {
        !(self as u32)
    }
}

impl Key for (i64, Reverse<NodeId>) {
    fn new(gain: i64, v: NodeId) -> Self {
        (gain, Reverse(v))
    }
    fn gain(self) -> i64 {
        self.0
    }
    fn vertex(self) -> NodeId {
        self.1 .0
    }
}

/// Children per heap node.
const ARITY: usize = 4;

/// `GainHeaps::pos` of a vertex that has moved this pass.
const LOCKED: u32 = u32::MAX;

/// `GainHeaps::pos` of an unmoved vertex not queued: it has had no edge to
/// the other side this pass.
const ABSENT: u32 = u32::MAX - 1;

/// FM's move queue: for each side, an addressable `ARITY`-ary max-heap
/// holding one entry per queued vertex, its key stored inline so a compare
/// reads no gain table.
#[derive(Default)]
struct GainHeaps<K> {
    /// `heaps[1]` holds the left side (`side[v] == true`), `heaps[0]` the
    /// right.
    heaps: [Vec<K>; 2],
    /// `v`'s index in its side's heap, or [`LOCKED`] or [`ABSENT`].
    pos: Vec<u32>,
    /// [`GainHeaps::pick`]'s best-first frontier: `(key, side, index)`.
    frontier: BinaryHeap<(K, usize, usize)>,
}

impl<K: Key> GainHeaps<K> {
    /// Empty both heaps and mark all `n` vertices absent.
    fn clear(&mut self, n: usize) {
        for heap in &mut self.heaps {
            heap.clear();
        }
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    fn place(&mut self, s: usize, i: usize, key: K) {
        self.heaps[s][i] = key;
        self.pos[key.vertex() as usize] = i as u32;
    }

    fn sift_up(&mut self, s: usize, mut i: usize) {
        let key = self.heaps[s][i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.heaps[s][parent];
            if above > key {
                break;
            }
            self.place(s, i, above);
            i = parent;
        }
        self.place(s, i, key);
    }

    fn sift_down(&mut self, s: usize, mut i: usize) {
        let key = self.heaps[s][i];
        let len = self.heaps[s].len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let heap = &self.heaps[s];
            let mut child = first;
            for c in first + 1..(first + ARITY).min(len) {
                if heap[c] > heap[child] {
                    child = c;
                }
            }
            let below = heap[child];
            if below < key {
                break;
            }
            self.place(s, i, below);
            i = child;
        }
        self.place(s, i, key);
    }

    /// Queue `v`, on side `s`, at `gain`.
    fn insert(&mut self, s: usize, v: NodeId, gain: i64) {
        let i = self.heaps[s].len();
        self.heaps[s].push(K::new(gain, v));
        self.sift_up(s, i);
    }

    /// Take `v` (on side `s`) out of the queue and lock it.
    fn lock(&mut self, s: usize, v: NodeId) {
        let i = self.pos[v as usize] as usize;
        self.pos[v as usize] = LOCKED;
        self.heaps[s].swap_remove(i);
        if let Some(&last) = self.heaps[s].get(i) {
            self.place(s, i, last);
            self.sift_up(s, i);
            self.sift_down(s, self.pos[last.vertex() as usize] as usize);
        }
    }

    /// `v`'s gain (on side `s`) is now `gain`: re-key it if queued, and
    /// queue it if it is unlocked and now on the `boundary`.
    fn update(&mut self, s: usize, v: NodeId, gain: i64, boundary: bool) {
        match self.pos[v as usize] {
            LOCKED => {}
            ABSENT => {
                if boundary {
                    self.insert(s, v, gain);
                }
            }
            i => {
                let i = i as usize;
                let up = gain > self.heaps[s][i].gain();
                self.heaps[s][i] = K::new(gain, v);
                if up {
                    self.sift_up(s, i);
                } else {
                    self.sift_down(s, i);
                }
            }
        }
    }

    /// The maximum key among the queued vertices `v` of the sides `s` that
    /// `open` admits with `fits(s, v)`, as `(gain, s, v)`: best-first down
    /// both heap trees, without disturbing them, so `fits` is asked in key
    /// order and the first vertex it admits is the one picked.
    fn pick(
        &mut self,
        open: [bool; 2],
        fits: impl Fn(usize, NodeId) -> bool,
    ) -> Option<(i64, usize, NodeId)> {
        self.frontier.clear();
        for (s, heap) in self.heaps.iter().enumerate() {
            if let Some(&root) = heap.first().filter(|_| open[s]) {
                self.frontier.push((root, s, 0));
            }
        }
        while let Some((key, s, i)) = self.frontier.pop() {
            let v = key.vertex();
            if fits(s, v) {
                return Some((key.gain(), s, v));
            }
            let first = ARITY * i + 1;
            let children = self.heaps[s].iter().enumerate().skip(first).take(ARITY);
            self.frontier.extend(children.map(|(c, &key)| (key, s, c)));
        }
        None
    }
}

/// Boundary Fiduccia–Mattheyses 2-way refinement. A pass queues the
/// vertices with an edge to the other side; a vertex joins when a
/// neighbour's move gives it one and stays queued for the rest of the pass
/// even if a later move leaves it interior (Metis dequeues it then). It
/// moves each queued vertex at most
/// once, always the best-gain movable one, stops after
/// `max(15, n/100)` moves without a new best prefix, and rolls back to the
/// best prefix; passes repeat (at most 8) while a prefix improves. Moves
/// must keep the left side's node count in `[ml, n - mr]` and its weight
/// within the balance window — or strictly improve the weight deviation (so
/// a skewed starting point can be repaired).
///
/// The next mover is the maximum `(gain, Reverse(v))` among movable queued
/// vertices. Each side's queue is a [`GainHeaps`] with packed keys, or with
/// pair keys where the maximum weighted degree, which bounds every gain,
/// passes `i32`. Feasibility depends on a vertex only through its side and
/// weight: where all weights are equal, one test per side decides it and a
/// blocked side is skipped whole; otherwise the heaps offer both sides'
/// vertices in key order until one passes.
fn fm_refine(
    graph: &Graph,
    side: &mut [bool],
    frac: f64,
    eps: f64,
    ml: usize,
    mr: usize,
    queues: &mut FmQueues,
) {
    if graph.num_nodes() < 2 {
        return;
    }
    let FmQueues {
        packed,
        wide,
        gains,
        history,
    } = queues;
    if max_weighted_degree(graph) <= i64::from(i32::MAX) {
        fm_passes(graph, side, frac, eps, ml, mr, packed, gains, history);
    } else {
        fm_passes(graph, side, frac, eps, ml, mr, wide, gains, history);
    }
}

/// The largest sum of one vertex's edge weights, which bounds every gain.
fn max_weighted_degree(graph: &Graph) -> i64 {
    graph
        .nodes()
        .map(|v| graph.edge_weights(v).iter().sum::<i64>())
        .max()
        .unwrap_or(0)
}

/// Moves without a new best prefix after which an FM pass on `n` vertices
/// stops.
fn fm_patience(n: usize) -> usize {
    (n / 100).max(15)
}

/// [`fm_refine`]'s passes, over `heaps`.
#[allow(clippy::too_many_arguments)]
fn fm_passes<K: Key>(
    graph: &Graph,
    side: &mut [bool],
    frac: f64,
    eps: f64,
    ml: usize,
    mr: usize,
    heaps: &mut GainHeaps<K>,
    gains: &mut Vec<i64>,
    history: &mut Vec<NodeId>,
) {
    let n = graph.num_nodes();
    let vwgt = graph.vertex_weights();
    let total = graph.total_vertex_weight();
    let target = total as f64 * frac;
    // Bookmarked (final) states must sit in this tight window...
    let slack = (total as f64 * eps).max(0.5);
    // ...but individual moves may excurse one max-weight vertex beyond it,
    // which classic FM needs to escape local minima (rollback repairs it).
    let max_vw = vwgt.iter().copied().max().unwrap_or(1);
    let move_slack = slack.max(max_vw as f64);
    let uniform = vwgt.iter().all(|&w| w == vwgt[0]);
    let patience = fm_patience(n);

    let mut left_weight: i64 = graph
        .nodes()
        .filter(|&v| side[v as usize])
        .map(|v| graph.vertex_weight(v))
        .sum();
    let mut left_count = side.iter().filter(|&&s| s).count();

    for _pass in 0..8 {
        // gain(v) = cut reduction if v switches sides; the cut is half the
        // sum of every vertex's external weight, and `v` is on the boundary
        // when its own is positive.
        heaps.clear(n);
        gains.clear();
        let mut external = 0i64;
        for v in graph.nodes() {
            let (mut g, mut ext) = (0i64, 0i64);
            for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                if side[v as usize] != side[w as usize] {
                    ext += ew;
                } else {
                    g -= ew;
                }
            }
            g += ext;
            external += ext;
            gains.push(g);
            if ext > 0 {
                heaps.insert(side[v as usize] as usize, v, g);
            }
        }
        history.clear();
        let mut cur_cut = external / 2;
        let mut best_cut = cur_cut;
        let mut best_dev = (left_weight as f64 - target).abs();
        let mut best_len = 0usize;
        let mut cur_weight = left_weight;
        let mut cur_count = left_count;

        while history.len() - best_len < patience {
            let cur_dev = (cur_weight as f64 - target).abs();
            // Whether moving a vertex of weight `vw` off side `s` keeps the
            // balance window (or improves an out-of-window deviation)...
            let weight_ok = |s: usize, vw: i64| {
                let new_left = if s == 1 {
                    cur_weight - vw
                } else {
                    cur_weight + vw
                };
                let new_dev = (new_left as f64 - target).abs();
                new_dev <= move_slack || new_dev < cur_dev
            };
            // ...and the node-count floors.
            let count_ok = |s: usize| {
                let new_count = cur_count as isize + if s == 1 { -1 } else { 1 };
                new_count >= ml as isize && new_count <= (n - mr) as isize
            };
            let open = [0, 1].map(|s| count_ok(s) && (!uniform || weight_ok(s, vwgt[0])));
            let fits = |s: usize, v: NodeId| uniform || weight_ok(s, vwgt[v as usize]);
            let Some((g, s, v)) = heaps.pick(open, fits) else {
                break;
            };
            // Apply the move.
            heaps.lock(s, v);
            let vw = vwgt[v as usize];
            if s == 1 {
                cur_weight -= vw;
                cur_count -= 1;
            } else {
                cur_weight += vw;
                cur_count += 1;
            }
            let to = s == 0;
            side[v as usize] = to;
            cur_cut -= g;
            history.push(v);
            for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                // After v switched: same-side neighbours gain, others lose
                // and now have an edge to the other side.
                let ws = side[w as usize];
                let gain = &mut gains[w as usize];
                *gain += if ws == to { -2 * ew } else { 2 * ew };
                heaps.update(ws as usize, w, *gain, ws != to);
            }
            let dev = (cur_weight as f64 - target).abs();
            // Prefer any in-window cut improvement; when both states are
            // outside the window, prefer the better deviation.
            let in_window = dev <= slack;
            let best_in_window = best_dev <= slack;
            let better = match (in_window, best_in_window) {
                (true, true) => cur_cut < best_cut,
                (true, false) => true,
                (false, false) => dev < best_dev,
                (false, true) => false,
            };
            if better {
                best_cut = cur_cut;
                best_dev = dev;
                best_len = history.len();
            }
        }
        // Roll back past the best prefix.
        for &v in history[best_len..].iter().rev() {
            let vw = vwgt[v as usize];
            if side[v as usize] {
                cur_weight -= vw;
                cur_count -= 1;
            } else {
                cur_weight += vw;
                cur_count += 1;
            }
            side[v as usize] = !side[v as usize];
        }
        left_weight = cur_weight;
        left_count = cur_count;
        if best_len == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic2_graph::generators::{hex_grid, random_connected, thesis_random_graph, torus};
    use ic2_graph::{metrics, GraphBuilder};

    // Reference implementations: the contraction and refinement kernels in
    // their plainest form. The tuned kernels must reproduce them exactly.

    /// The contraction `coarsen` must equal: a `HashMap` of coarse edges,
    /// sorted and built through `GraphBuilder`, over a matching made in
    /// shuffled order and numbered in fine-id order.
    fn coarsen_hashmap(graph: &Graph, rng: &mut SplitMix64) -> (Graph, Vec<u32>) {
        let n = graph.num_nodes();
        let mut order: Vec<NodeId> = graph.nodes().collect();
        rng.shuffle(&mut order);
        let mut matched = vec![u32::MAX; n];
        for &v in &order {
            if matched[v as usize] != u32::MAX {
                continue;
            }
            // Heaviest unmatched neighbour.
            let mut best: Option<(i64, NodeId)> = None;
            for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                if matched[w as usize] == u32::MAX
                    && best.is_none_or(|(bw, bn)| {
                        (ew, std::cmp::Reverse(w)) > (bw, std::cmp::Reverse(bn))
                    })
                {
                    best = Some((ew, w));
                }
            }
            match best {
                Some((_, w)) => {
                    matched[v as usize] = w;
                    matched[w as usize] = v;
                }
                None => matched[v as usize] = v,
            }
        }
        let mut coarse_id = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n {
            if coarse_id[v] == u32::MAX {
                coarse_id[v] = next;
                coarse_id[matched[v] as usize] = next;
                next += 1;
            }
        }
        // Accumulate coarse vertex weights and combined edges.
        let cn = next as usize;
        let mut vwgt = vec![0i64; cn];
        for v in graph.nodes() {
            vwgt[coarse_id[v as usize] as usize] += graph.vertex_weight(v);
        }
        let mut edge_acc: std::collections::HashMap<(u32, u32), i64> =
            std::collections::HashMap::new();
        for (u, v, w) in graph.edges() {
            let cu = coarse_id[u as usize];
            let cv = coarse_id[v as usize];
            if cu != cv {
                let key = (cu.min(cv), cu.max(cv));
                *edge_acc.entry(key).or_insert(0) += w;
            }
        }
        let mut b = GraphBuilder::new(cn);
        let mut keys: Vec<_> = edge_acc.into_iter().collect();
        keys.sort_unstable();
        for ((u, v), w) in keys {
            b.weighted_edge(u, v, w);
        }
        b.vertex_weights(vwgt);
        (b.build(), coarse_id)
    }

    /// The refinement `fm_refine` must equal: boundary FM by scan. Each step
    /// scans every vertex for the best feasible `(gain, Reverse(v))` among
    /// the unlocked ones that have had an edge to the other side this pass,
    /// and a pass stops after `max(15, n/100)` moves without a new best.
    fn fm_refine_scan(graph: &Graph, side: &mut [bool], frac: f64, eps: f64, ml: usize, mr: usize) {
        let n = graph.num_nodes();
        if n < 2 {
            return;
        }
        let total = graph.total_vertex_weight();
        let target = total as f64 * frac;
        let slack = (total as f64 * eps).max(0.5);
        let max_vw = graph.vertex_weights().iter().copied().max().unwrap_or(1);
        let move_slack = slack.max(max_vw as f64);

        let mut left_weight: i64 = graph
            .nodes()
            .filter(|&v| side[v as usize])
            .map(|v| graph.vertex_weight(v))
            .sum();
        let mut left_count = side.iter().filter(|&&s| s).count();

        for _pass in 0..8 {
            let mut gain = vec![0i64; n];
            let mut queued = vec![false; n];
            for v in graph.nodes() {
                for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                    if side[v as usize] != side[w as usize] {
                        gain[v as usize] += ew;
                        queued[v as usize] = true;
                    } else {
                        gain[v as usize] -= ew;
                    }
                }
            }
            let mut locked = vec![false; n];
            let mut history: Vec<NodeId> = Vec::new();
            let mut cur_cut = cut_of(graph, side);
            let mut best_cut = cur_cut;
            let mut best_dev = (left_weight as f64 - target).abs();
            let mut best_len = 0usize;
            let mut cur_weight = left_weight;
            let mut cur_count = left_count;

            while history.len() - best_len < (n / 100).max(15) {
                let cur_dev = (cur_weight as f64 - target).abs();
                let mut pick: Option<(i64, Reverse<NodeId>)> = None;
                for v in graph.nodes() {
                    if !queued[v as usize] || locked[v as usize] {
                        continue;
                    }
                    let vw = graph.vertex_weight(v);
                    let (new_left, new_count) = if side[v as usize] {
                        (cur_weight - vw, cur_count - 1)
                    } else {
                        (cur_weight + vw, cur_count + 1)
                    };
                    let new_dev = (new_left as f64 - target).abs();
                    let feasible = new_count >= ml
                        && new_count <= n - mr
                        && (new_dev <= move_slack || new_dev < cur_dev);
                    let key = (gain[v as usize], Reverse(v));
                    if feasible && pick.is_none_or(|p| key > p) {
                        pick = Some(key);
                    }
                }
                let Some((g, Reverse(v))) = pick else { break };
                let vw = graph.vertex_weight(v);
                if side[v as usize] {
                    cur_weight -= vw;
                    cur_count -= 1;
                } else {
                    cur_weight += vw;
                    cur_count += 1;
                }
                side[v as usize] = !side[v as usize];
                locked[v as usize] = true;
                cur_cut -= g;
                history.push(v);
                for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                    if side[w as usize] == side[v as usize] {
                        gain[w as usize] -= 2 * ew;
                    } else {
                        gain[w as usize] += 2 * ew;
                        queued[w as usize] = true;
                    }
                }
                let dev = (cur_weight as f64 - target).abs();
                let better = match (dev <= slack, best_dev <= slack) {
                    (true, true) => cur_cut < best_cut,
                    (true, false) => true,
                    (false, false) => dev < best_dev,
                    (false, true) => false,
                };
                if better {
                    best_cut = cur_cut;
                    best_dev = dev;
                    best_len = history.len();
                }
            }
            for &v in history[best_len..].iter().rev() {
                let vw = graph.vertex_weight(v);
                if side[v as usize] {
                    cur_weight -= vw;
                    cur_count -= 1;
                } else {
                    cur_weight += vw;
                    cur_count += 1;
                }
                side[v as usize] = !side[v as usize];
            }
            left_weight = cur_weight;
            left_count = cur_count;
            if best_len == 0 {
                break;
            }
        }
    }

    /// A `random_connected` graph with edge weights in `scale × 1..=max_ew`
    /// and vertex weights in `1..=max_vw`: the shape of a coarse level, which
    /// the pinned hashes reach only through contraction.
    fn weighted_random(n: usize, seed: u64, max_ew: usize, max_vw: usize, scale: i64) -> Graph {
        let base = random_connected(n, 3.5, 10, seed);
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let mut b = GraphBuilder::new(n);
        for (u, v, _) in base.edges() {
            b.weighted_edge(u, v, scale * rng.gen_range_incl(1..=max_ew) as i64);
        }
        b.vertex_weights(
            (0..n)
                .map(|_| rng.gen_range_incl(1..=max_vw) as i64)
                .collect(),
        );
        b.build()
    }

    #[test]
    fn csr_contraction_equals_the_hashmap_one() {
        let mut rng = SplitMix64::new(0xC0A);
        for round in 0..24 {
            let n = rng.gen_range(2..600);
            let mut g = weighted_random(n, rng.next_u64(), 9, 5, 1);
            // Follow a few levels down, so coarse graphs are inputs too.
            for _level in 0..3 {
                let seed = rng.next_u64();
                let (coarse, map) = coarsen(&g, &mut SplitMix64::new(seed));
                let (want, want_map) = coarsen_hashmap(&g, &mut SplitMix64::new(seed));
                assert_eq!(map, want_map, "round {round}: maps differ");
                assert!(coarse == want, "round {round}: coarse graphs differ");
                g = coarse;
            }
        }
    }

    /// Refine `rounds` drawn graphs and starts with [`fm_refine`], one
    /// [`FmQueues`] reused throughout as [`Metis::partition`] reuses it, and
    /// with the scan; both must end on the same sides. Returns how many
    /// rounds ran on packed keys and how many on pair keys.
    fn refine_like_the_scan(seed: u64, rounds: usize, max_n: usize) -> [usize; 2] {
        let mut rng = SplitMix64::new(seed);
        let mut queues = FmQueues::default();
        let mut keys = [0; 2];
        for round in 0..rounds {
            let n = rng.gen_range(2..max_n);
            let seed = rng.next_u64();
            let g = match round % 7 {
                0 => weighted_random(n, seed, 9, 5, 1),
                // A contracted level: weights that sum members.
                1 => coarsen(&weighted_random(n, seed, 9, 5, 1), &mut rng).0,
                // Equal vertex weights: feasibility is one test per side.
                2 => weighted_random(n, seed, 9, 1, 1),
                // Gains beyond `i32`: the pair key.
                3 => weighted_random(n, seed, 9, 5, 1 << 32),
                // Narrow gains under unequal vertex weights: the heaps
                // walked in key order.
                4 => weighted_random(n, seed, 1, 3, 1),
                // Narrow gains, equal vertex weights.
                5 => weighted_random(n, seed, 2, 1, 1),
                // The first contraction of a unit graph.
                _ => coarsen(&weighted_random(n, seed, 1, 1, 1), &mut rng).0,
            };
            let n = g.num_nodes();
            keys[usize::from(max_weighted_degree(&g) > i64::from(i32::MAX))] += 1;
            let frac = [0.5, 1.0 / 3.0, 0.25, 3.0 / 8.0, 0.625][rng.gen_range(0..5)];
            let eps = [0.0, 0.01, 0.025, 0.05, 0.2][rng.gen_range(0..5)];
            let ml = rng.gen_range(0..n.min(9) + 1);
            let mr = rng.gen_range(0..(n - ml).min(9) + 1);
            let start: Vec<bool> = if round / 7 % 2 == 0 {
                (0..n).map(|_| rng.gen_range(0..2) == 1).collect()
            } else {
                grow_bisection(&g, frac, ml, mr, &mut rng)
            };
            let mut got = start.clone();
            fm_refine(&g, &mut got, frac, eps, ml, mr, &mut queues);
            let mut want = start;
            fm_refine_scan(&g, &mut want, frac, eps, ml, mr);
            assert_eq!(
                got, want,
                "round {round}: n={n} frac={frac} eps={eps} ml={ml} mr={mr}"
            );
        }
        keys
    }

    #[test]
    fn heap_refinement_equals_the_scan_one() {
        let [packed, pairs] = refine_like_the_scan(0xF3, 280, 400);
        assert!(
            packed >= 200 && pairs >= 30,
            "{packed} rounds on packed keys, {pairs} on pairs"
        );
    }

    #[test]
    #[ignore = "thousands of graphs, some of 8 000 nodes: run in release"]
    fn heap_refinement_equals_the_scan_one_at_scale() {
        let [packed, pairs] = refine_like_the_scan(0xB0C, 4_200, 600);
        assert!(
            packed >= 3_000 && pairs >= 500,
            "{packed} rounds on packed keys, {pairs} on pairs"
        );
        let [packed, pairs] = refine_like_the_scan(0xB1C, 35, 8_000);
        assert!(
            packed >= 25 && pairs >= 4,
            "{packed} rounds on packed keys, {pairs} on pairs"
        );
    }

    #[test]
    fn a_pass_stops_after_its_patience() {
        // A path split in the middle: the cut is already 1, so no move makes
        // a new best, and the pass stops after `fm_patience` moves.
        let n = 4_000;
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.edge(i, i + 1);
        }
        let g = b.build();
        let mut side: Vec<bool> = (0..n).map(|v| v < n / 2).collect();
        let start = side.clone();
        let mut queues = FmQueues::default();
        fm_refine(&g, &mut side, 0.5, 0.05, 1, 1, &mut queues);
        assert_eq!(side, start);
        assert_eq!(queues.history.len(), fm_patience(n));
        assert_eq!(fm_patience(n), 40);
        assert_eq!(fm_patience(1_000), 15);
    }

    #[test]
    fn packed_keys_order_like_pairs() {
        let mut rng = SplitMix64::new(0x4E7);
        let mut draw = || {
            let gain = match rng.gen_range(0..4) {
                0 => i64::from(i32::MAX) - rng.gen_range(0..3) as i64,
                1 => -i64::from(i32::MAX) + rng.gen_range(0..3) as i64,
                _ => rng.gen_range(0..41) as i64 - 20,
            };
            let v = match rng.gen_range(0..3) {
                0 => u32::MAX - rng.gen_range(0..3) as u32,
                _ => rng.gen_range(0..50) as u32,
            };
            (gain, v)
        };
        for _ in 0..10_000 {
            let ((ga, va), (gb, vb)) = (draw(), draw());
            let (pa, pb) = (<u64 as Key>::new(ga, va), <u64 as Key>::new(gb, vb));
            assert_eq!((pa.gain(), pa.vertex()), (ga, va));
            assert_eq!(pa.cmp(&pb), (ga, Reverse(va)).cmp(&(gb, Reverse(vb))));
        }
    }

    fn check_quality(graph: &Graph, k: usize, max_imbalance: f64) -> i64 {
        let part = Metis::default().partition(graph, k);
        assert_eq!(part.len(), graph.num_nodes());
        let imb = metrics::imbalance(graph, &part);
        assert!(
            imb <= max_imbalance,
            "k={k}: imbalance {imb} > {max_imbalance}, counts {:?}",
            part.counts()
        );
        metrics::edge_cut(graph, &part)
    }

    #[test]
    fn hex_grids_partition_well() {
        for (n, k) in [(32, 2), (32, 4), (64, 4), (64, 8), (96, 8), (96, 16)] {
            let g = ic2_graph::generators::hex_grid_n(n);
            let cut = check_quality(&g, k, 1.26);
            // A k-way split of a hex grid should cut far fewer edges than
            // round-robin interleaving.
            let rr = metrics::edge_cut(&g, &crate::simple::RoundRobin.partition(&g, k));
            assert!(cut * 3 < rr * 2, "n={n} k={k}: cut {cut} vs rr {rr}");
        }
    }

    #[test]
    fn bisection_of_even_path_is_perfect() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.edge(i, i + 1);
        }
        let g = b.build();
        let p = Metis::default().partition(&g, 2);
        assert_eq!(metrics::edge_cut(&g, &p), 1);
        assert_eq!(p.counts(), vec![4, 4]);
    }

    #[test]
    fn large_mesh_quality_beats_block() {
        let g = hex_grid(32, 32);
        let metis_cut = check_quality(&g, 16, 1.11);
        let band = metrics::edge_cut(&g, &crate::bands::RowBand.partition(&g, 16));
        assert!(
            metis_cut < band,
            "metis {metis_cut} should beat 16 thin row bands {band}"
        );
    }

    #[test]
    fn random_graphs_stay_balanced() {
        for seed in 0..3 {
            let g = thesis_random_graph(64, seed);
            for k in [2, 4, 8, 16] {
                check_quality(&g, k, 1.3);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = thesis_random_graph(64, 0);
        let a = Metis::default().partition(&g, 8);
        let b = Metis::default().partition(&g, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_can_change_result() {
        let g = thesis_random_graph(64, 0);
        let a = Metis::default().partition(&g, 8);
        let b = Metis {
            seed: 99,
            ..Default::default()
        }
        .partition(&g, 8);
        // Not guaranteed different, but cut quality must hold for both.
        assert!(metrics::imbalance(&g, &b) <= 1.3);
        let _ = a;
    }

    #[test]
    fn k_equal_one_is_trivial() {
        let g = hex_grid(4, 4);
        let p = Metis::default().partition(&g, 1);
        assert!(p.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn k_equal_n_spreads_out() {
        let g = hex_grid(2, 2);
        let p = Metis::default().partition(&g, 4);
        let mut counts = p.counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    fn assert_no_part_empty(graph: &Graph, k: usize, name: &str) {
        let counts = Metis::default().partition(graph, k).counts();
        assert!(
            counts.iter().all(|&c| c > 0),
            "{name}, k = {k}: counts {counts:?}"
        );
    }

    /// A star of `leaves` leaves around node 0.
    fn star(leaves: u32) -> Graph {
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for leaf in 1..=leaves {
            b.edge(0, leaf);
        }
        b.build()
    }

    #[test]
    fn a_3000_leaf_star_partitions_into_four_parts() {
        // Heavy-edge matching merges one leaf a level: without the 85 %
        // stop, `bisect` recursed about n levels deep.
        assert_no_part_empty(&star(3_000), 4, "3 000-leaf star");
    }

    #[test]
    #[ignore = "a second or more in release: run in release"]
    fn a_10000_leaf_star_partitions_without_overflowing_the_stack() {
        assert_no_part_empty(&star(10_000), 4, "10 000-leaf star");
    }

    #[test]
    fn near_k_equal_n_no_part_is_empty() {
        // A projected coarse bisection left 2 of these parts empty, and one
        // of the star's.
        assert_no_part_empty(
            &random_connected(50, 3.0, 10, 1),
            50,
            "random_connected(50)",
        );
        assert_no_part_empty(&star(200), 200, "200-leaf star");
    }

    #[test]
    #[ignore = "7 038 partitions: run in release"]
    fn no_small_graph_leaves_a_part_empty() {
        for n in 2..70 {
            for seed in 0..3 {
                let g = random_connected(n, 3.0, 10, seed);
                for k in 2..=n {
                    assert_no_part_empty(&g, k, &format!("random_connected({n}, 3.0, 10, {seed})"));
                }
            }
        }
    }

    #[test]
    fn odd_k_gets_proportional_targets() {
        let g = hex_grid(8, 9);
        let p = Metis::default().partition(&g, 3);
        let imb = metrics::imbalance(&g, &p);
        assert!(imb <= 1.15, "imbalance {imb}: {:?}", p.counts());
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.edge(i, i + 1);
        }
        b.vertex_weights(vec![10, 1, 1, 1, 1, 10]);
        let g = b.build();
        let p = Metis::default().partition(&g, 2);
        let loads = p.loads(&g);
        assert!((loads[0] - loads[1]).abs() <= 4, "weighted loads {loads:?}");
    }

    #[test]
    fn torus_partitions_are_sane() {
        let g = torus(8, 8);
        let cut = check_quality(&g, 4, 1.11);
        assert!(cut <= 40, "torus cut {cut}");
    }

    #[test]
    fn coarsening_halves_and_preserves_weight() {
        let g = hex_grid(8, 8);
        let mut rng = SplitMix64::new(1);
        let (coarse, map) = coarsen(&g, &mut rng);
        assert!(coarse.num_nodes() < g.num_nodes());
        assert!(coarse.num_nodes() >= g.num_nodes() / 2);
        assert_eq!(coarse.total_vertex_weight(), g.total_vertex_weight());
        assert_eq!(map.len(), g.num_nodes());
        assert!(map.iter().all(|&c| (c as usize) < coarse.num_nodes()));
    }

    #[test]
    fn large_meshes_refine_in_reasonable_time() {
        // 14 400 nodes. With a full-rescan move selection each FM pass is
        // O(n²) per level and this test does not finish in useful time in
        // debug builds; the gain queues make it routine.
        let g = hex_grid(120, 120);
        let cut = check_quality(&g, 8, 1.11);
        let rr = metrics::edge_cut(&g, &crate::simple::RoundRobin.partition(&g, 8));
        assert!(cut * 3 < rr, "cut {cut} vs round-robin {rr}");
    }

    #[test]
    fn fm_refine_fixes_a_bad_split() {
        // Two 4-cliques joined by one edge, split the worst way.
        let mut b = GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.edge(i, j);
                b.edge(i + 4, j + 4);
            }
        }
        b.edge(3, 4);
        let g = b.build();
        // Interleaved start: cut = everything.
        let mut side = vec![true, false, true, false, true, false, true, false];
        fm_refine(&g, &mut side, 0.5, 0.05, 1, 1, &mut FmQueues::default());
        assert_eq!(cut_of(&g, &side), 1, "sides {side:?}");
    }
}
