//! The application plug-in surface: node data + node computation function.

use crate::imbalance::GrainSchedule;
use ic2_graph::{Graph, NodeId};
use mpisim::Wire;

/// Context handed to the node computation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeCtx {
    /// 1-based iteration (time step) number.
    pub iter: u32,
    /// Sub-phase within the iteration, `0..NodeProgram::phases()`. The
    /// battlefield application interleaves several compute/communicate
    /// rounds per time step (thesis §2.2).
    pub phase: u32,
    /// Executing rank.
    pub rank: u32,
    /// Total node count of the application graph.
    pub num_nodes: usize,
}

/// One neighbour's identity and current data, as an element of the list
/// the platform passes to the node function (the thesis's "list with the
/// current node's data as the head followed by the data of its
/// neighbours").
#[derive(Debug)]
pub struct NeighborData<'a, D> {
    /// The neighbour's global node id.
    pub id: NodeId,
    /// The neighbour's data from the previous iteration (own nodes) or the
    /// last received shadow copy (remote nodes).
    pub data: &'a D,
}

/// A graph-structured iterative computation, plugged into the platform
/// without any MPI code — the thesis's central promise (Goal 2a).
///
/// The platform owns the data between iterations; the program only sees a
/// node with its neighbourhood and returns the node's next value (Jacobi
/// update). `cost` reports the node's *grain size*, charged to the rank's
/// virtual clock — the thesis's "dummy for loop" load injection.
pub trait NodeProgram: Sync {
    /// Per-node application data (the thesis's `struct node_data`).
    /// `PartialEq` is what delta shadow exchange tests dirtiness with: a
    /// node whose newly computed value equals its current one is clean and
    /// its shadow update can be suppressed.
    type Data: Clone + PartialEq + Wire + Send + 'static;

    /// Initial data of `node` (the thesis initialises `data = globalID`).
    fn init(&self, node: NodeId, graph: &Graph) -> Self::Data;

    /// Compute `node`'s next value from its own data and its neighbours'.
    fn compute(
        &self,
        node: NodeId,
        own: &Self::Data,
        neighbors: &[NeighborData<'_, Self::Data>],
        ctx: &ComputeCtx,
    ) -> Self::Data;

    /// Grain size of computing `node` this iteration, in seconds.
    fn cost(&self, _node: NodeId, _own: &Self::Data, _ctx: &ComputeCtx) -> f64 {
        0.0
    }

    /// Compute/communicate rounds per iteration (default 1; the
    /// battlefield simulation uses more, thesis §2.2).
    fn phases(&self) -> u32 {
        1
    }
}

impl<P: NodeProgram> NodeProgram for &P {
    type Data = P::Data;
    fn init(&self, node: NodeId, graph: &Graph) -> Self::Data {
        (*self).init(node, graph)
    }
    fn compute(
        &self,
        node: NodeId,
        own: &Self::Data,
        neighbors: &[NeighborData<'_, Self::Data>],
        ctx: &ComputeCtx,
    ) -> Self::Data {
        (*self).compute(node, own, neighbors, ctx)
    }
    fn cost(&self, node: NodeId, own: &Self::Data, ctx: &ComputeCtx) -> f64 {
        (*self).cost(node, own, ctx)
    }
    fn phases(&self) -> u32 {
        (*self).phases()
    }
}

/// The thesis's generic workload: each node takes the average of its own
/// and its neighbours' data, with an injected grain size (0.3 ms fine,
/// 3 ms coarse, or the Figure-23 shifting schedule).
#[derive(Debug, Clone, Copy)]
pub struct AvgProgram {
    /// Grain-size schedule.
    pub grain: GrainSchedule,
}

impl AvgProgram {
    /// Fine-grained nodes: 0.3 ms each.
    pub fn fine() -> Self {
        AvgProgram {
            grain: GrainSchedule::Uniform(300e-6),
        }
    }

    /// Coarse-grained nodes: 3 ms each.
    pub fn coarse() -> Self {
        AvgProgram {
            grain: GrainSchedule::Uniform(3e-3),
        }
    }

    /// The Figure-23 shifting-window imbalance (coarse hot window moving
    /// across the domain every 10 iterations).
    pub fn shifting() -> Self {
        AvgProgram {
            grain: GrainSchedule::Shifting(crate::imbalance::ShiftingWindowLoad::default()),
        }
    }

    /// A persistent runtime hot region (half the id space at the 100:1
    /// coarse/fine ratio) — the companion workload that isolates the
    /// migration machinery from window drift.
    pub fn persistent() -> Self {
        AvgProgram {
            grain: GrainSchedule::Persistent {
                coarse: 3e-3,
                fine: 30e-6,
                hot_fraction: 0.5,
            },
        }
    }
}

impl NodeProgram for AvgProgram {
    type Data = i64;

    fn init(&self, node: NodeId, _graph: &Graph) -> i64 {
        // The thesis initialises node data to the (1-based) global id.
        node as i64 + 1
    }

    fn compute(
        &self,
        _node: NodeId,
        own: &i64,
        neighbors: &[NeighborData<'_, i64>],
        _ctx: &ComputeCtx,
    ) -> i64 {
        let sum: i64 = *own + neighbors.iter().map(|n| *n.data).sum::<i64>();
        sum / (neighbors.len() as i64 + 1)
    }

    fn cost(&self, node: NodeId, _own: &i64, ctx: &ComputeCtx) -> f64 {
        self.grain.cost(node, ctx.num_nodes, ctx.iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic2_graph::generators::hex_grid;

    fn ctx() -> ComputeCtx {
        ComputeCtx {
            iter: 1,
            phase: 0,
            rank: 0,
            num_nodes: 4,
        }
    }

    #[test]
    fn avg_program_initialises_to_one_based_id() {
        let g = hex_grid(2, 2);
        let p = AvgProgram::fine();
        assert_eq!(p.init(0, &g), 1);
        assert_eq!(p.init(3, &g), 4);
    }

    #[test]
    fn avg_program_averages_with_truncation() {
        let p = AvgProgram::fine();
        let (a, b) = (10i64, 5i64);
        let nbrs = [
            NeighborData { id: 1, data: &a },
            NeighborData { id: 2, data: &b },
        ];
        // (3 + 10 + 5) / 3 = 6
        assert_eq!(p.compute(0, &3, &nbrs, &ctx()), 6);
        // Isolated node keeps its value.
        assert_eq!(p.compute(0, &7, &[], &ctx()), 7);
    }

    #[test]
    fn grain_presets_match_the_thesis() {
        let fine = AvgProgram::fine();
        let coarse = AvgProgram::coarse();
        assert!((fine.cost(0, &0, &ctx()) - 300e-6).abs() < 1e-12);
        assert!((coarse.cost(0, &0, &ctx()) - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn default_phase_count_is_one() {
        assert_eq!(AvgProgram::fine().phases(), 1);
    }
}
