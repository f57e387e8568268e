//! Dynamic load-imbalance generation (thesis §5.5, Figure 23).
//!
//! The static-vs-dynamic experiments need load a static partitioner cannot
//! capture: the thesis varies each node's grain size over time, moving a
//! coarse-grained "hot window" across the global-id space every ten
//! iterations — 0–50 % first, then 25–75 %, then 50–100 %, repeating.

/// Grain size per node per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrainSchedule {
    /// Every node costs the same every iteration.
    Uniform(f64),
    /// The Figure-23 shifting hot window.
    Shifting(ShiftingWindowLoad),
    /// A hot region that appears at run time and stays put: the first
    /// `hot_fraction` of the id space costs `coarse`, the rest `fine`.
    /// A static partitioner with uniform weights cannot see it, but —
    /// unlike the shifting window — a periodic balancer's corrections
    /// stay valid, so this isolates the migration machinery's benefit.
    Persistent {
        /// Grain of hot nodes.
        coarse: f64,
        /// Grain of cold nodes.
        fine: f64,
        /// Fraction of the id space that is hot.
        hot_fraction: f64,
    },
}

impl GrainSchedule {
    /// Cost of `node` (of `num_nodes`) at 1-based `iter`.
    pub fn cost(&self, node: u32, num_nodes: usize, iter: u32) -> f64 {
        match self {
            GrainSchedule::Uniform(g) => *g,
            GrainSchedule::Shifting(s) => s.cost(node, num_nodes, iter),
            GrainSchedule::Persistent {
                coarse,
                fine,
                hot_fraction,
            } => {
                let frac = node as f64 / num_nodes.max(1) as f64;
                if frac < *hot_fraction {
                    *coarse
                } else {
                    *fine
                }
            }
        }
    }
}

/// The thesis's shifting-window imbalance: within each window of
/// `window_iters` iterations, nodes whose global id falls inside the hot
/// band get `coarse` grain, the rest `fine`. The band cycles
/// `[0,50%] → [25%,75%] → [50%,100%]`.
///
/// The grain ratio is 100:1, matching the appendix's `SimulatorFunction`
/// (dummy loops of 100000 vs 1000 iterations), not the 10:1 ratio of the
/// §5.1 static-speedup experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftingWindowLoad {
    /// Grain of cold nodes (thesis: the 1000-iteration dummy loop,
    /// 1/100th of the hot grain).
    pub fine: f64,
    /// Grain of hot nodes (thesis: the 100000-iteration dummy loop
    /// ≈ the 3 ms coarse grain).
    pub coarse: f64,
    /// Iterations per window (thesis: 10).
    pub window_iters: u32,
}

impl Default for ShiftingWindowLoad {
    fn default() -> Self {
        ShiftingWindowLoad {
            fine: 30e-6,
            coarse: 3e-3,
            window_iters: 10,
        }
    }
}

impl ShiftingWindowLoad {
    /// The hot band `(lo, hi)` as node-fraction bounds for 1-based `iter`.
    pub fn hot_band(&self, iter: u32) -> (f64, f64) {
        let window = (iter.saturating_sub(1) / self.window_iters) % 3;
        match window {
            0 => (0.0, 0.50),
            1 => (0.25, 0.75),
            _ => (0.50, 1.0),
        }
    }

    /// Whether `node` is hot at `iter`.
    pub fn is_hot(&self, node: u32, num_nodes: usize, iter: u32) -> bool {
        let (lo, hi) = self.hot_band(iter);
        let frac = node as f64 / num_nodes.max(1) as f64;
        frac >= lo && frac < hi
    }

    /// Grain of `node` at `iter`.
    pub fn cost(&self, node: u32, num_nodes: usize, iter: u32) -> f64 {
        if self.is_hot(node, num_nodes, iter) {
            self.coarse
        } else {
            self.fine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_rotate_every_ten_iterations() {
        let s = ShiftingWindowLoad::default();
        assert_eq!(s.hot_band(1), (0.0, 0.5));
        assert_eq!(s.hot_band(10), (0.0, 0.5));
        assert_eq!(s.hot_band(11), (0.25, 0.75));
        assert_eq!(s.hot_band(20), (0.25, 0.75));
        assert_eq!(s.hot_band(21), (0.5, 1.0));
        assert_eq!(s.hot_band(30), (0.5, 1.0));
        // Cycles back.
        assert_eq!(s.hot_band(31), (0.0, 0.5));
    }

    #[test]
    fn hot_nodes_get_coarse_grain() {
        let s = ShiftingWindowLoad::default();
        // First window: node 0 of 64 is hot, node 63 is cold.
        assert_eq!(s.cost(0, 64, 1), s.coarse);
        assert_eq!(s.cost(63, 64, 1), s.fine);
        // Third window: reversed.
        assert_eq!(s.cost(0, 64, 25), s.fine);
        assert_eq!(s.cost(63, 64, 25), s.coarse);
    }

    #[test]
    fn half_the_domain_is_hot_in_each_window() {
        let s = ShiftingWindowLoad::default();
        for iter in [1, 11, 21] {
            let hot = (0..64).filter(|&v| s.is_hot(v, 64, iter)).count();
            assert_eq!(hot, 32, "iter {iter}");
        }
    }

    #[test]
    fn uniform_schedule_ignores_node_and_iter() {
        let g = GrainSchedule::Uniform(1e-3);
        assert_eq!(g.cost(0, 64, 1), 1e-3);
        assert_eq!(g.cost(63, 64, 99), 1e-3);
    }
}
