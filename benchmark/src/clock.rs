//! The benchmark's only wall-clock read. Timing never feeds a simulated
//! outcome: every digest the benchmark checks is computed from simulator
//! state alone.

use std::time::Instant;

/// The current wall-clock instant.
#[inline]
pub fn now() -> Instant {
    // lint:allow(wallclock): benchmark timing; never feeds simulation state
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}
