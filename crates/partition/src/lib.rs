//! # ic2-partition — static graph partitioners for iC2mpi
//!
//! The thesis treats static partitioners as third-party plug-ins (Goal 3):
//! Metis and PaGrid are run on the application program graph to obtain the
//! initial node-to-processor mapping, and the battlefield study adds four
//! domain-decomposition schemes (gray-code embedding, row/column/rectangular
//! bands). This crate implements all of them behind one trait,
//! [`StaticPartitioner`], so they can be swapped without touching
//! application code — exactly the experiment the thesis's Section 5.3 runs.
//!
//! * [`metis::Metis`] — multilevel k-way partitioner in the style of Metis
//!   4's `kmetis` \[KK98\]: one heavy-edge-matching coarsening hierarchy,
//!   recursive multilevel bisection of the coarsest graph (greedy graph
//!   growing, boundary Fiduccia–Mattheyses), and greedy k-way boundary
//!   refinement at every level on the way back up.
//! * [`pagrid::PaGrid`] — grid-aware mapper in the style of PaGrid
//!   \[WA04, HAB06\]: starts from a Metis partition and refines against an
//!   estimated-execution-time objective over a weighted
//!   [`procgraph::ProcessorGraph`], with the thesis's `Rref`
//!   communication/computation ratio.
//! * [`bands`] — row, column and rectangular band decompositions of
//!   coordinate-bearing meshes.
//! * [`graycode::GrayCodeBf`] — the battlefield simulator's original
//!   gray-code mesh-to-hypercube *fine-grained* embedding (a hex and its
//!   neighbours land on different processors).
//! * [`simple`] — round-robin, random and contiguous-block baselines.

pub mod bands;
pub mod graycode;
pub mod metis;
pub mod pagrid;
pub mod procgraph;
pub mod simple;

use ic2_graph::{Graph, Partition};

/// A static graph partitioner: application program graph in,
/// node-to-processor mapping out.
///
/// Implementations must return a partition covering every node with parts
/// in `0..nparts`; they should aim to balance vertex weight and minimise
/// edge-cut, but no quality is *required* — the platform runs any valid
/// mapping (that is the point of the plug-in architecture).
pub trait StaticPartitioner {
    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Partition `graph` into `nparts` parts.
    fn partition(&self, graph: &Graph, nparts: usize) -> Partition;
}

impl<T: StaticPartitioner + ?Sized> StaticPartitioner for &T {
    fn name(&self) -> &'static str {
        (*self).name()
    }
    fn partition(&self, graph: &Graph, nparts: usize) -> Partition {
        (*self).partition(graph, nparts)
    }
}

impl<T: StaticPartitioner + ?Sized> StaticPartitioner for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn partition(&self, graph: &Graph, nparts: usize) -> Partition {
        (**self).partition(graph, nparts)
    }
}
