//! A cycle-accounting CPU meter.
//!
//! Every packet and message a host processes charges cycles to its
//! [`CpuMeter`]; tests and scenarios read the cumulative busy cycles. The
//! victim's *mining rate* of Figures 6–7 and Table III comes from the
//! calibrated contention curve in `banscore::contention`; the companion
//! real-hardware benches time an actual `sha256d` hashing loop.

/// Default CPU capacity: the paper's testbed CPU (Intel i7 @ 4 GHz).
pub const DEFAULT_CAPACITY_HZ: u64 = 4_000_000_000;

/// Cycle cost of one `sha256d` attempt in the mining loop, calibrated so an
/// idle node mines at the paper's ≈9.5·10⁵ h/s on a 4 GHz budget.
///
/// This is a *paper-testbed* calibration constant, not a property of this
/// repository's hash implementation: the reproduction must mine at the
/// paper's rate regardless of how fast the local `sha256d` is. The local
/// cost is measured by the `fig6_mining` bench and recorded in
/// `results/BENCH_hashpath.json`; convert a measured per-attempt time to a
/// model constant with [`cycles_per_hash`]. For scale, the pre-overhaul
/// software loop measured ≈928 ns/attempt (≈3 700 cycles at 4 GHz, close to
/// this default), while the midstate + SHA-NI loop measures ≈140 ns/attempt,
/// 6.6× cheaper — see EXPERIMENTS.md.
pub const DEFAULT_CYCLES_PER_HASH: u64 = 4_210;

/// Converts a measured per-hash wall time into the model's cycles/hash at a
/// given CPU capacity: `cycles = capacity_hz · ns_per_hash / 1e9`, floored
/// at 1 cycle.
///
/// Use this to re-derive a per-hash cost from `fig6_mining` bench output
/// (`median_ns / throughput_per_iter` of the `sha256d_mining_loop_1k`
/// record).
pub fn cycles_per_hash(capacity_hz: u64, ns_per_hash: f64) -> u64 {
    let cycles = (capacity_hz as f64 * ns_per_hash / 1e9).round();
    (cycles as u64).max(1)
}

/// Tracks busy cycles on a simulated host.
#[derive(Clone, Debug)]
pub struct CpuMeter {
    capacity_hz: u64,
    cum_busy: u64,
}

impl CpuMeter {
    /// Creates a meter with the given capacity in cycles/second.
    pub fn new(capacity_hz: u64) -> Self {
        CpuMeter {
            capacity_hz,
            cum_busy: 0,
        }
    }

    /// Capacity in cycles per second.
    pub fn capacity_hz(&self) -> u64 {
        self.capacity_hz
    }

    /// Charges `cycles` of processing work.
    pub fn charge(&mut self, cycles: u64) {
        self.cum_busy = self.cum_busy.saturating_add(cycles);
    }

    /// Total busy cycles charged since start.
    pub fn cum_busy(&self) -> u64 {
        self.cum_busy
    }
}

impl Default for CpuMeter {
    fn default() -> Self {
        CpuMeter::new(DEFAULT_CAPACITY_HZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_node_mines_at_capacity() {
        // The paper-testbed calibration: an idle 4 GHz host mines at the
        // paper's ≈9.5e5 h/s.
        let rate = DEFAULT_CAPACITY_HZ as f64 / DEFAULT_CYCLES_PER_HASH as f64;
        assert!((9.0e5..10.0e5).contains(&rate), "rate {rate}");
    }

    #[test]
    fn cycles_per_hash_rederivation() {
        // The paper-calibrated default corresponds to ≈1052.5 ns/hash at
        // 4 GHz; converting that measurement back must reproduce it.
        assert_eq!(cycles_per_hash(DEFAULT_CAPACITY_HZ, 1052.5), DEFAULT_CYCLES_PER_HASH);
        // A midstate-mined attempt at ~60 ns maps to a few hundred cycles.
        let fast = cycles_per_hash(DEFAULT_CAPACITY_HZ, 60.0);
        assert_eq!(fast, 240);
        // Degenerate measurements still yield a usable (nonzero) cost.
        assert_eq!(cycles_per_hash(DEFAULT_CAPACITY_HZ, 0.0), 1);
    }
}
