//! Platform overhead cost model.
//!
//! The thesis measures five kinds of platform overhead (§5.4, Figures
//! 21–22): initialization, computation overhead (building the node+
//! neighbour list handed to the node function, updating the data lists),
//! communication overhead (packing/unpacking buffers), the communication
//! itself, and load balancing / task migration. In virtual-time mode those
//! CPU costs must be *charged* to the rank's clock explicitly; this model
//! holds the per-operation constants. They are calibrated so the overhead
//! breakdown for fine-grained 64-node graphs lands in the thesis's
//! 0.01–0.04 s band over 35 iterations.

/// Per-operation virtual CPU costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Building one entry of the node+neighbours list passed to the
    /// application node function (computation overhead).
    pub per_list_item: f64,
    /// Writing one node's updated data back into the data-node list
    /// (computation overhead).
    pub per_node_update: f64,
    /// Packing one shadow entry into a communication buffer
    /// (communication overhead).
    pub per_shadow_pack: f64,
    /// Unpacking one received shadow entry and updating the data-node list
    /// through the hash table (communication overhead).
    pub per_shadow_unpack: f64,
    /// Initialization-phase cost per locally stored node (owned + shadow).
    pub init_per_node: f64,
    /// Load-balancing bookkeeping cost per processor in the runtime
    /// processor graph.
    pub lb_per_proc: f64,
    /// Task-migration cost per migrated data entry (list surgery on the
    /// busy/idle processors).
    pub migrate_per_entry: f64,
    /// Checkpointing cost per snapshot entry staged, mirrored, or restored
    /// (crash-recovery bookkeeping).
    pub checkpoint_per_entry: f64,
    /// State-audit cost per entry: digest upkeep per node a promote sweeps
    /// and per shadow an unpack writes, plus the recompute at an audit
    /// boundary (integrity bookkeeping).
    pub audit_per_entry: f64,
    /// Fixed virtual seconds per disk operation issued by the out-of-core
    /// pager (seek + request overhead).
    pub disk_seek: f64,
    /// Virtual seconds per byte transferred to or from the virtual disk.
    pub disk_byte: f64,
    /// Base backoff charged when the pager retries a failed disk operation;
    /// doubles per attempt (bounded exponential backoff).
    pub disk_retry_backoff: f64,
}

/// The model every run charges, fitted as the module documentation says.
pub const COSTS: CostModel = CostModel {
    per_list_item: 0.9e-6,
    per_node_update: 0.7e-6,
    per_shadow_pack: 2.2e-6,
    per_shadow_unpack: 3.0e-6,
    init_per_node: 110e-6,
    lb_per_proc: 18e-6,
    migrate_per_entry: 25e-6,
    checkpoint_per_entry: 4e-6,
    audit_per_entry: 1.0e-6,
    disk_seek: 1.0e-4,
    disk_byte: 1.0e-8,
    disk_retry_backoff: 2.0e-4,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_positive_and_small() {
        let c = COSTS;
        for v in [
            c.per_list_item,
            c.per_node_update,
            c.per_shadow_pack,
            c.per_shadow_unpack,
            c.init_per_node,
            c.lb_per_proc,
            c.migrate_per_entry,
            c.checkpoint_per_entry,
            c.audit_per_entry,
            c.disk_seek,
            c.disk_byte,
            c.disk_retry_backoff,
        ] {
            assert!(v > 0.0 && v < 1e-3, "cost {v} out of range");
        }
    }
}
