//! A fixed reference kernel the benchmark times between rounds, to tell
//! how fast the machine ran at that moment.
//!
//! The kernel is the benchmark's own code and never changes with the
//! program under test: a small discrete-event loop over a binary heap,
//! an ordered map of per-connection state and short-lived byte buffers,
//! folded into a checksum — the same kinds of work (heap events,
//! ordered-map lookups, allocation, byte handling) the simulator does.

use crate::clock;
use crate::report::{fnv, FNV_BASIS};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

/// Seconds one kernel pass takes on the reference machine: a 2-vCPU
/// Sapphire Rapids KVM guest in a quiet phase (the fastest passes seen
/// there took 0.049–0.058 s). Rescaled times are "seconds at the speed
/// at which the kernel takes this long".
pub const NOMINAL_S: f64 = 0.05;

/// Seconds the slowest of `nproc` concurrent kernel passes takes on the
/// reference machine in a quiet phase (two concurrent passes there run
/// at about half speed each).
pub const NOMINAL_PARALLEL_S: f64 = 0.1;

/// Events one kernel pass executes.
const EVENTS: u64 = 200_000;
/// Connections the kernel's map holds.
const CONNS: u64 = 4_096;

/// Runs the kernel once on each of `threads` threads at the same time and
/// returns the slowest thread's wall seconds (a workload spread over
/// several cores is held up by its slowest one).
pub fn reference_s(threads: usize) -> f64 {
    let one = || {
        let t0 = clock::now();
        black_box(kernel(EVENTS));
        clock::secs_since(t0)
    };
    if threads <= 1 {
        return one();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread"))
            .fold(0.0, f64::max)
    })
}

/// The kernel: returns a checksum so nothing is optimised away.
pub fn kernel(events: u64) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut conns: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..256 {
        heap.push(Reverse((next() % 1_000, i)));
    }
    let mut h = FNV_BASIS;
    for _ in 0..events {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let conn = id % CONNS;
        let len = 16 + (next() % 240) as usize;
        let buf: Vec<u8> = (0..len).map(|b| (b as u64 ^ t) as u8).collect();
        let entry = conns.entry(conn).or_default();
        entry.extend_from_slice(&buf[..len / 2]);
        if entry.len() > 512 {
            h = fnv(h, entry.iter().map(|&b| u64::from(b)).sum());
            entry.clear();
        }
        heap.push(Reverse((t + 1 + next() % 1_000, next() % (CONNS * 4))));
    }
    h
}
