//! Per-phase time accounting (the thesis's §5.4 overhead breakdown).

/// The six phases the thesis reports in Figures 21–22, plus the
/// robustness phases added on top: checkpointing, rollback/re-execution
/// overhead, and message-integrity (retransmission) overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Setting up node lists, data lists, hash tables, buffer plans.
    Initialization,
    /// Building the node+neighbour lists and updating data lists around
    /// the actual node computation.
    ComputationOverhead,
    /// The application node function itself.
    Compute,
    /// Packing and unpacking communication buffers.
    CommunicationOverhead,
    /// Sending/receiving the shadow buffers.
    Communicate,
    /// Gathering load statistics, planning, and migrating tasks.
    LoadBalancing,
    /// Taking coordinated snapshots and mirroring them to buddy ranks.
    Checkpoint,
    /// Rolling back after a crash: restoring state, adopting orphaned
    /// nodes, and rebuilding the directory (re-run iterations are charged
    /// to their own phases).
    Recovery,
    /// Message-integrity overhead: virtual time spent in reliable-send
    /// retry windows and NACK/retransmit exponential backoff. Split out of
    /// `Communicate` so corruption-recovery cost is visible on its own.
    Integrity,
    /// Out-of-core storage: virtual disk transfer time plus I/O retry
    /// backoff charged by the paged node store's buffer pool.
    Storage,
}

impl Phase {
    /// Number of phases. Everything that sizes per-phase storage
    /// (`PhaseTimers::totals`, merge loops) derives from this, so adding a
    /// phase to [`Phase::ALL`] can never silently truncate accounting.
    pub const COUNT: usize = Phase::ALL.len();

    /// All phases, in report order.
    pub const ALL: [Phase; 10] = [
        Phase::Initialization,
        Phase::ComputationOverhead,
        Phase::Compute,
        Phase::CommunicationOverhead,
        Phase::Communicate,
        Phase::LoadBalancing,
        Phase::Checkpoint,
        Phase::Recovery,
        Phase::Integrity,
        Phase::Storage,
    ];

    /// Human-readable label matching the thesis figures.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Initialization => "Initialization",
            Phase::ComputationOverhead => "Computation Overhead",
            Phase::Compute => "Compute",
            Phase::CommunicationOverhead => "Communication Overhead",
            Phase::Communicate => "Communicate",
            Phase::LoadBalancing => "Load Balancing & Task Migration",
            Phase::Checkpoint => "Checkpointing",
            Phase::Recovery => "Crash Recovery",
            Phase::Integrity => "Message Integrity",
            Phase::Storage => "Out-of-core Storage",
        }
    }

    const fn index(self) -> usize {
        match self {
            Phase::Initialization => 0,
            Phase::ComputationOverhead => 1,
            Phase::Compute => 2,
            Phase::CommunicationOverhead => 3,
            Phase::Communicate => 4,
            Phase::LoadBalancing => 5,
            Phase::Checkpoint => 6,
            Phase::Recovery => 7,
            Phase::Integrity => 8,
            Phase::Storage => 9,
        }
    }
}

// `index()` must be a bijection onto `0..Phase::COUNT` that enumerates
// `ALL` in order; a phase added to one but not the other fails the build.
const _: () = {
    let mut i = 0;
    while i < Phase::COUNT {
        assert!(
            Phase::ALL[i].index() == i,
            "Phase::index() must enumerate Phase::ALL in order"
        );
        i += 1;
    }
};

/// Tolerance below which a negative duration is floating-point noise from
/// subtracting two nearby clock readings, not a sign-flipped window.
const NEGATIVE_NOISE: f64 = 1e-9;

/// Accumulated seconds per phase for one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimers {
    totals: [f64; Phase::COUNT],
    negative_clamps: u64,
}

impl PhaseTimers {
    /// Fresh, all-zero timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to `phase`.
    ///
    /// Negative durations are clamped to zero, but a duration more negative
    /// than rounding noise is counted in [`PhaseTimers::negative_clamps`]
    /// instead of silently vanishing from the §5.4 breakdown: a sign-flipped
    /// clock window is an accounting bug the report must surface.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        if seconds < -NEGATIVE_NOISE {
            self.negative_clamps += 1;
        }
        self.totals[phase.index()] += seconds.max(0.0);
    }

    /// Accumulated seconds in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.totals[phase.index()]
    }

    /// Sum over all phases.
    pub fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// How many [`PhaseTimers::add`] calls clamped a genuinely negative
    /// duration (beyond rounding noise) up to zero. Anything non-zero means
    /// a clock window somewhere was measured backwards.
    pub fn negative_clamps(&self) -> u64 {
        self.negative_clamps
    }

    /// Element-wise sum with another rank's timers.
    pub fn merged(&self, other: &PhaseTimers) -> PhaseTimers {
        let mut out = self.clone();
        for i in 0..Phase::COUNT {
            out.totals[i] += other.totals[i];
        }
        out.negative_clamps += other.negative_clamps;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let mut t = PhaseTimers::new();
        t.add(Phase::Compute, 1.0);
        t.add(Phase::Compute, 0.5);
        t.add(Phase::Communicate, 0.25);
        assert_eq!(t.get(Phase::Compute), 1.5);
        assert_eq!(t.get(Phase::Communicate), 0.25);
        assert_eq!(t.get(Phase::Initialization), 0.0);
        assert!((t.total() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_elementwise() {
        let mut a = PhaseTimers::new();
        a.add(Phase::Compute, 1.0);
        let mut b = PhaseTimers::new();
        b.add(Phase::Compute, 2.0);
        b.add(Phase::LoadBalancing, 3.0);
        let m = a.merged(&b);
        assert_eq!(m.get(Phase::Compute), 3.0);
        assert_eq!(m.get(Phase::LoadBalancing), 3.0);
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.label()));
        }
    }

    #[test]
    fn index_is_a_bijection_onto_all() {
        let mut seen = [false; Phase::COUNT];
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?} out of order");
            assert!(!seen[p.index()], "{p:?} index collides");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(Phase::COUNT, Phase::ALL.len());
    }

    #[test]
    fn negative_durations_are_clamped_and_counted() {
        let mut t = PhaseTimers::new();
        t.add(Phase::Compute, -0.5);
        assert_eq!(t.get(Phase::Compute), 0.0, "clamped to zero");
        assert_eq!(t.negative_clamps(), 1);
        // Rounding noise from subtracting nearby clock readings is not a
        // sign-flipped window and must not trip the counter.
        t.add(Phase::Compute, -1e-12);
        assert_eq!(t.negative_clamps(), 1);
        t.add(Phase::Compute, 2.0);
        assert_eq!(t.get(Phase::Compute), 2.0);

        let mut other = PhaseTimers::new();
        other.add(Phase::Recovery, -1.0);
        let m = t.merged(&other);
        assert_eq!(m.negative_clamps(), 2, "merge sums the clamp counter");
    }
}
