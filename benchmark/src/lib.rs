//! The repository benchmark: four workloads that time the workspace's
//! layers from outside, through their public API.
//!
//! * [`trace`] — the [`App`](btc_netsim::sim::App) decorator and the span
//!   recorder of traced runs;
//! * [`sim`] — the swarm and testbed builders the simulator workloads run;
//! * [`detect`] — the `detect-replay` recording, training and trace tiling;
//! * [`layers`] — the wire and strike replays behind per-layer metrics;
//! * [`meter`], [`calib`] — wall-clock measurement rescaled to reference
//!   speed by a fixed kernel timed around every measured chunk;
//! * [`workloads`] — sizes, the round loop, output checks and metric lists;
//! * [`report`] — statistics, `/proc` readings, the stamp and the JSON line.
//!
//! `README.md` beside this crate documents every metric.

pub mod calib;
pub mod clock;
pub mod detect;
pub mod layers;
pub mod meter;
pub mod report;
pub mod sim;
pub mod trace;
pub mod workloads;
