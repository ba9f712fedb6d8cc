//! Wall-clock measurement rescaled to reference speed.
//!
//! On a shared machine the speed a process gets swings by up to half as
//! neighbours go busy and quiet, for seconds to minutes at a time. The
//! [`Meter`] runs the fixed reference kernel ([`crate::calib`]) after
//! every chunk of measured work (and once up front), and credits each
//! chunk with its wall time multiplied by `nominal / reference`, the
//! reference being the mean of the two kernel times that bracket it. A
//! chunk run in a slow phase is bracketed by slow kernel times, so its
//! rescaled time holds still while its wall time does not. The kernel
//! never calls the program, so a change to the program moves rescaled
//! and wall times alike.

use crate::calib;
use crate::clock;
use crate::report;
use std::ops::AddAssign;

/// Wall, reference-speed and process-CPU seconds of some measured work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds rescaled to reference speed.
    pub scaled_s: f64,
    /// Process CPU seconds (every thread).
    pub cpu_s: f64,
}

impl AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        self.wall_s += o.wall_s;
        self.scaled_s += o.scaled_s;
        self.cpu_s += o.cpu_s;
    }
}

/// Reference-kernel seconds at one moment.
#[derive(Clone, Copy, Debug, Default)]
pub struct Speed {
    /// The kernel on one thread.
    pub serial_s: f64,
    /// The kernel on `nproc` threads at once (the slowest thread).
    pub parallel_s: f64,
}

impl Speed {
    fn measure(parallel: bool) -> Speed {
        let serial_s = calib::reference_s(1);
        let parallel_s = if parallel {
            calib::reference_s(report::nproc())
        } else {
            serial_s
        };
        Speed {
            serial_s,
            parallel_s,
        }
    }
}

/// How a chunk of work uses the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Threads {
    /// One thread: rescaled by the one-thread kernel.
    Serial,
    /// `nproc` threads: rescaled by the `nproc`-thread kernel.
    Parallel,
}

/// A stopwatch that brackets every measured chunk with reference-kernel
/// runs. A disabled meter runs no kernel and rescales nothing.
pub struct Meter {
    enabled: bool,
    parallel: bool,
    last: Speed,
    /// Every reference measurement taken, in order.
    pub speeds: Vec<Speed>,
}

impl Meter {
    /// A meter whose chunks are all serial (`parallel` false) or that may
    /// also time `nproc`-thread chunks.
    pub fn new(parallel: bool) -> Meter {
        let last = Speed::measure(parallel);
        Meter {
            enabled: true,
            parallel,
            last,
            speeds: vec![last],
        }
    }

    /// A meter that only reads the clock (traced runs).
    pub fn disabled() -> Meter {
        Meter {
            enabled: false,
            parallel: false,
            last: Speed::default(),
            speeds: Vec::new(),
        }
    }

    /// Whether the meter also runs the `nproc`-thread kernel.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Times `f` as one chunk.
    ///
    /// # Panics
    ///
    /// A `Parallel` chunk on a meter made without `parallel`.
    pub fn chunk<R>(&mut self, threads: Threads, f: impl FnOnce() -> R) -> (Cost, R) {
        assert!(
            !self.enabled || self.parallel || threads == Threads::Serial,
            "a parallel chunk needs a parallel meter"
        );
        let c0 = report::process_cpu_s();
        let t0 = clock::now();
        let out = f();
        let wall_s = clock::secs_since(t0);
        let cpu_s = report::process_cpu_s() - c0;
        if !self.enabled {
            return (
                Cost {
                    wall_s,
                    scaled_s: wall_s,
                    cpu_s,
                },
                out,
            );
        }
        let after = Speed::measure(self.parallel);
        let factor = match threads {
            Threads::Serial => 2.0 * calib::NOMINAL_S / (self.last.serial_s + after.serial_s),
            Threads::Parallel => {
                2.0 * calib::NOMINAL_PARALLEL_S / (self.last.parallel_s + after.parallel_s)
            }
        };
        self.last = after;
        self.speeds.push(after);
        (
            Cost {
                wall_s,
                scaled_s: wall_s * factor,
                cpu_s,
            },
            out,
        )
    }
}
