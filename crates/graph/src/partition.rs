//! Node-to-processor assignments.

use crate::graph::{Graph, NodeId};
use std::sync::{Arc, OnceLock};

/// A mapping of every node to a processor (part) in `0..num_parts`.
///
/// This is the thesis's "output array": the node-to-processor mapping a
/// static graph partitioner yields and the dynamic load balancer mutates
/// during task migration. The array is reference-counted, so the ranks of
/// one process read one copy until somebody writes ([`Self::shared`]).
#[derive(Debug, Clone)]
pub struct Partition {
    assignment: Arc<Vec<u32>>,
    num_parts: usize,
    /// The membership index behind [`Self::members`]: built on first use,
    /// dropped by [`Self::assign`], never part of equality.
    members: OnceLock<Members>,
}

/// The assignment counting-sorted by part: part `p`'s nodes are
/// `ids[start[p]..start[p + 1]]`, ascending.
#[derive(Debug, Clone)]
struct Members {
    start: Vec<usize>,
    ids: Vec<NodeId>,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.num_parts == other.num_parts && self.assignment == other.assignment
    }
}

impl Eq for Partition {}

impl Partition {
    /// Wrap an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any entry is `>= num_parts` or `num_parts == 0`.
    pub fn new(assignment: Vec<u32>, num_parts: usize) -> Self {
        Partition::from_shared(Arc::new(assignment), num_parts)
    }

    /// [`Self::new`] over an assignment that is already shared: no copy.
    pub fn from_shared(assignment: Arc<Vec<u32>>, num_parts: usize) -> Self {
        assert!(num_parts > 0, "partition needs at least one part");
        for (node, &p) in assignment.iter().enumerate() {
            assert!(
                (p as usize) < num_parts,
                "node {node} assigned to part {p} >= {num_parts}"
            );
        }
        Partition {
            assignment,
            num_parts,
            members: OnceLock::new(),
        }
    }

    /// Everything on part 0.
    pub fn all_on_one(n: usize, num_parts: usize) -> Self {
        Partition::new(vec![0; n], num_parts)
    }

    /// Number of parts (processors).
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the partition covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Part of node `v`.
    pub fn part_of(&self, v: NodeId) -> u32 {
        self.assignment[v as usize]
    }

    /// Reassign node `v` (used by task migration).
    pub fn assign(&mut self, v: NodeId, part: u32) {
        assert!((part as usize) < self.num_parts);
        Arc::make_mut(&mut self.assignment)[v as usize] = part;
        self.members.take();
    }

    /// The raw assignment slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.assignment
    }

    /// The assignment itself, for a reader that outlives the borrow (a
    /// rank's owner map): a reference-count bump, copied on first write.
    pub fn shared(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.assignment)
    }

    /// Nodes assigned to `part`, ascending (none for a part that does not
    /// exist). The first call sorts the whole assignment by part once, for
    /// every part and every caller.
    pub fn members(&self, part: u32) -> &[NodeId] {
        let index = self.members.get_or_init(|| {
            let mut start = vec![0usize; self.num_parts + 1];
            for (p, count) in self.counts().into_iter().enumerate() {
                start[p + 1] = start[p] + count;
            }
            let mut next = start.clone();
            let mut ids = vec![0; self.assignment.len()];
            for (v, &p) in self.assignment.iter().enumerate() {
                ids[next[p as usize]] = v as NodeId;
                next[p as usize] += 1;
            }
            Members { start, ids }
        });
        match index.start.get(part as usize..part as usize + 2) {
            Some(span) => &index.ids[span[0]..span[1]],
            None => &[],
        }
    }

    /// Vertex-weight load of each part under `graph`'s weights.
    pub fn loads(&self, graph: &Graph) -> Vec<i64> {
        assert_eq!(graph.num_nodes(), self.len());
        let mut loads = vec![0i64; self.num_parts];
        for v in graph.nodes() {
            loads[self.part_of(v) as usize] += graph.vertex_weight(v);
        }
        loads
    }

    /// Number of nodes on each part.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_parts];
        for &p in self.assignment.iter() {
            counts[p as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn basic_partition_queries() {
        let p = Partition::new(vec![0, 1, 1, 0], 2);
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.len(), 4);
        assert_eq!(p.part_of(1), 1);
        assert_eq!(p.members(0), [0, 3]);
        assert_eq!(p.counts(), vec![2, 2]);
    }

    #[test]
    fn loads_respect_vertex_weights() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).vertex_weights(vec![5, 1, 2]);
        let g = b.build();
        let p = Partition::new(vec![0, 0, 1], 2);
        assert_eq!(p.loads(&g), vec![6, 2]);
    }

    #[test]
    fn assign_moves_a_node() {
        let mut p = Partition::new(vec![0, 0], 2);
        p.assign(1, 1);
        assert_eq!(p.part_of(1), 1);
    }

    #[test]
    fn the_membership_index_follows_assign_and_stays_out_of_equality() {
        let mut p = Partition::new(vec![1, 0, 1, 0], 2);
        let fresh = p.clone();
        assert_eq!(p.members(1), [0, 2]);
        // One side indexed, the other not: still the same partition.
        assert_eq!(p, fresh);
        let reader = p.shared();
        p.assign(0, 0);
        assert_eq!(p.members(0), [0, 1, 3]);
        assert_eq!(p.members(1), [2]);
        assert_ne!(p, fresh);
        // The write copied; whoever shared the old array still reads it.
        assert_eq!(*reader, [1, 0, 1, 0]);
        assert_eq!(fresh.members(1), [0, 2]);
        assert_ne!(Partition::new(vec![0, 0], 2), Partition::new(vec![0, 0], 3));
    }

    #[test]
    #[should_panic(expected = ">= 2")]
    fn out_of_range_part_rejected() {
        Partition::new(vec![0, 2], 2);
    }

    #[test]
    fn empty_parts_allowed() {
        let p = Partition::new(vec![0, 0], 4);
        assert_eq!(p.counts(), vec![2, 0, 0, 0]);
        assert!(p.members(3).is_empty());
        assert!(p.members(4).is_empty());
    }
}
