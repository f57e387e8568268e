//! Network and timing models.
//!
//! Virtual time follows the LogP tradition: a message of `b` bytes sent at
//! (sender) time `t` arrives at `t + o_send + latency + b * per_byte`; the
//! receiver pays `o_recv` on top of the arrival time. A barrier synchronises
//! all clocks to the maximum plus `barrier_cost`.

/// LogP-style cost parameters, all in (virtual) seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// One-way wire latency per message (α).
    pub latency: f64,
    /// Transfer cost per payload byte (1/β).
    pub per_byte: f64,
    /// CPU overhead charged to the sender per message (o_s).
    pub send_overhead: f64,
    /// CPU overhead charged to the receiver per message (o_r).
    pub recv_overhead: f64,
    /// Cost of a barrier, charged after clock synchronisation.
    pub barrier_cost: f64,
}

impl NetModel {
    /// Calibrated to reproduce the *shape* of the thesis's SGI Origin-2000
    /// numbers (Section 5): sub-millisecond message cost, growing barrier
    /// cost with rank count absorbed in `barrier_cost`, fine-grained 64-node
    /// graphs flattening between 8 and 16 processors.
    pub fn origin2000() -> Self {
        NetModel {
            latency: 160e-6,
            per_byte: 9e-9,
            send_overhead: 18e-6,
            recv_overhead: 42e-6,
            barrier_cost: 70e-6,
        }
    }

    /// An idealised zero-cost network; useful in tests that only check
    /// message delivery semantics.
    pub fn zero() -> Self {
        NetModel {
            latency: 0.0,
            per_byte: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            barrier_cost: 0.0,
        }
    }

    /// A deliberately slow network (grid/WAN-like); used to widen the gap
    /// between partition qualities in tests and ablations.
    pub fn wan() -> Self {
        NetModel {
            latency: 2e-3,
            per_byte: 100e-9,
            send_overhead: 50e-6,
            recv_overhead: 80e-6,
            barrier_cost: 500e-6,
        }
    }

    /// Arrival time at the receiver for a `bytes`-byte message whose send
    /// started at sender-clock `send_clock` (after the send overhead).
    pub fn arrival(&self, send_clock: f64, bytes: usize) -> f64 {
        send_clock + self.latency + bytes as f64 * self.per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_accounts_for_latency_and_size() {
        let m = NetModel {
            latency: 1.0,
            per_byte: 0.5,
            ..NetModel::zero()
        };
        assert_eq!(m.arrival(10.0, 4), 10.0 + 1.0 + 2.0);
    }

    #[test]
    fn zero_model_is_free() {
        let m = NetModel::zero();
        assert_eq!(m.arrival(3.0, 1000), 3.0);
    }

    #[test]
    fn presets_are_ordered_by_cost() {
        let fast = NetModel::origin2000();
        let slow = NetModel::wan();
        assert!(slow.latency > fast.latency);
        assert!(slow.per_byte > fast.per_byte);
    }
}
