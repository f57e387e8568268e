//! The integration suites' shared harness (the suites are in `tests/`):
//! the simulated world every run uses and the fault-plan seed CI sweeps.

use mpisim::{FaultPlan, NetModel};
use std::time::Duration;

/// The Origin-2000 virtual-time world under `plan`, with a 30 s watchdog
/// so a deadlock reports its blocked ranks instead of hanging.
pub fn world(plan: FaultPlan) -> mpisim::Config {
    clean_world().with_faults(plan)
}

/// [`world`] without faults.
pub fn clean_world() -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

/// Fault-plan seed, overridable via `CHAOS_SEED` so CI can sweep the whole
/// package under several fixed seeds. Every assertion that reads it is
/// seed-agnostic (determinism is always checked pairwise under the *same*
/// seed), so any override must pass.
pub fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
