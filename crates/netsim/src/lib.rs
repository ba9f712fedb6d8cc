//! # btc-netsim
//!
//! A deterministic discrete-event network simulator purpose-built for the
//! reproduction of *"The Security Investigation of Ban Score and Misbehavior
//! Tracking in Bitcoin Network"* (ICDCS 2022):
//!
//! * [`sim`] — the event loop (one, shared by both drivers), hosts, apps,
//!   timers, promiscuous **taps** (sniffing) and raw packet **injection**
//!   (spoofing), plus the serial driver [`Simulator`] that runs a single
//!   region of it;
//! * [`tcp`] — a TCP-lite transport with a real three-way handshake,
//!   sequence/acknowledgment tracking and transport checksums, so the
//!   paper's post-connection Defamation attack has genuine state to steal;
//! * [`packet`] — TCP segments and ICMP echos (the network-layer flooding
//!   baseline of Table III);
//! * [`cpu`] — a cycle-accounting CPU meter charged by packet and message
//!   processing;
//! * [`faults`] — seeded, deterministic fault injection: per-link loss,
//!   latency jitter and reordering plus a scheduled [`FaultPlan`] of
//!   partitions and link flaps (the adverse-network model of the
//!   detector-robustness sweep);
//! * [`shard`] — the sharded driver [`ShardedSim`]: the same event loop
//!   run per region under conservative-lookahead synchronization,
//!   bit-identical at any worker count, for 100k+ host swarm topologies;
//! * [`rng`] / [`time`] — deterministic randomness and virtual time.
//!
//! ## Example: two hosts, one tap
//!
//! ```
//! use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator, TapFilter};
//! use btc_netsim::time::SECS;
//! use std::any::Any;
//!
//! struct Quiet;
//! impl App for Quiet {
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! sim.add_host([10, 0, 0, 1], Box::new(Quiet), HostConfig::default());
//! let tap = sim.add_tap(TapFilter::All);
//! sim.run_for(SECS);
//! assert!(tap.is_empty()); // nobody talked
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod faults;
pub mod packet;
pub mod prop;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod tcp;
pub mod time;

pub use faults::{FaultKind, FaultPlan, FaultStats, LinkFaults};
pub use packet::{Ipv4, Packet, SockAddr};
pub use shard::{ShardConfig, ShardTap, ShardedSim};
pub use sim::{App, Ctx, HostConfig, SimConfig, Simulator, TapFilter, TapHandle};
pub use tcp::{CloseReason, ConnId};
