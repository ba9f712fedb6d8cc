//! Determinism contract of the event loop, through both of its drivers.
//!
//! 1. **Pinned traces.** Each scenario reduces to a digest of its tap
//!    captures, host counters, TCP drops, CPU time and fault statistics.
//!    The scenarios are the echo pair (clean, under loss + jitter, under a
//!    fault plan) and a random workload at eight fixed generator seeds.
//!    The constants were recorded from the original serial engine;
//!    [`Simulator`] and a one-region [`ShardedSim`] must both still
//!    reproduce them, and the workload at its own region count its
//!    recorded sharded digest. The digest hashes the `Debug` rendering, so
//!    a field added to a traced type (`Packet`, `HostCounters`,
//!    `TcpDropStats`, `FaultStats`) changes it too: re-record only for
//!    such a change, never for a changed event order.
//! 2. **Worker-count invariance.** On a random topology with random ICMP +
//!    TCP traffic (and sometimes random link faults) the trace is
//!    bit-identical at workers ∈ {1, 2, 7}. Driven by the in-repo
//!    [`btc_netsim::prop`] harness: fixed-seed replay via
//!    `BANSCORE_PROP_SEED`, halving shrink on failure.
//! 3. **Late registration.** A packet sent to an address before its host
//!    registers is delivered once the host exists.

use btc_netsim::faults::{FaultKind, FaultPlan, FaultStats, LinkFaults};
use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::prop::{check_sized, Gen};
use btc_netsim::shard::{ShardConfig, ShardedSim};
use btc_netsim::sim::{
    App, Ctx, HostConfig, HostCounters, SimConfig, Simulator, Sniffed, TapFilter,
};
use btc_netsim::tcp::{ConnId, TcpDropStats};
use btc_netsim::time::{Nanos, MICROS, MILLIS, SECS};
use std::any::Any;

const SRV: Ipv4 = [10, 0, 0, 1];
const CLI: Ipv4 = [10, 0, 0, 2];

/// Echo server on port 8333.
struct Echo;

impl App for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(8333);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, data: &[u8]) {
        ctx.send(conn, data);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Client: connects at start, then every `period` sends an RNG-dependent
/// payload and a ping.
struct Client {
    dst: SockAddr,
    period: Nanos,
    conn: Option<ConnId>,
    sent: u32,
}

impl Client {
    fn new(dst: SockAddr, period: Nanos) -> Self {
        Client {
            dst,
            period,
            conn: None,
            sent: 0,
        }
    }
}

impl App for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.dst);
        ctx.set_timer(self.period, 1);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        ctx.send(conn, b"hello over tcp");
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(conn) = self.conn {
            // A payload whose bytes depend on the app RNG stream: any
            // draw-order change shows up in the capture bytes, not just
            // in counts.
            let b = ctx.rng().next_u64().to_le_bytes();
            if ctx.send(conn, &b) {
                self.sent += 1;
            }
        }
        ctx.send_icmp(self.dst.ip, 7, self.sent as u16, 56);
        ctx.set_timer(self.period, 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Periodic pinger: every `period` it pings one of its targets
/// (round-robin) and burns an RNG draw, so traces depend on the app
/// stream.
struct Pinger {
    targets: Vec<Ipv4>,
    period: Nanos,
    next: usize,
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let dst = self.targets[self.next % self.targets.len()];
        self.next += 1;
        let seq = (ctx.rng().next_u64() & 0xFFFF) as u16;
        ctx.send_icmp(dst, 9, seq, 56);
        ctx.set_timer(self.period, 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One randomly generated workload, rebuildable any number of times.
struct Workload {
    ips: Vec<Ipv4>,
    /// Per-pinger: (targets, period).
    pingers: Vec<(Vec<Ipv4>, Nanos)>,
    /// TCP pair: (server index, client index, period) into `ips`.
    tcp: Option<(usize, usize, Nanos)>,
    faults: LinkFaults,
    seed: u64,
    regions: u32,
    dur: Nanos,
}

fn gen_workload(g: &mut Gen) -> Workload {
    // Distinct addresses: index-derived, order-independent of the RNG.
    let n = g.len_in(2, 24);
    let ips: Vec<Ipv4> = (0..n).map(|i| [10, 1, (i / 200) as u8, (i % 200) as u8]).collect();
    let pingers = ips
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let k = g.usize_in(1, 4.min(n));
            let targets: Vec<Ipv4> = (0..k)
                .map(|_| {
                    // Sometimes a black-hole destination: unknown-dst
                    // delivery must also be invariant.
                    if g.f64() < 0.1 {
                        [99, 99, 99, (i % 200) as u8]
                    } else {
                        *g.choose(&ips)
                    }
                })
                .collect();
            let period = g.u64_in(20 * MILLIS, 400 * MILLIS);
            (targets, period)
        })
        .collect();
    let tcp = (n >= 2 && g.bool()).then(|| {
        let srv = g.usize_in(0, n);
        let mut cli = g.usize_in(0, n);
        if cli == srv {
            cli = (cli + 1) % n;
        }
        (srv, cli, g.u64_in(30 * MILLIS, 300 * MILLIS))
    });
    let faults = if g.f64() < 0.3 {
        LinkFaults {
            loss: g.f64_in(0.0, 0.2),
            jitter: g.u64_in(0, 3 * MILLIS),
            ..LinkFaults::NONE
        }
    } else {
        LinkFaults::NONE
    };
    Workload {
        ips,
        pingers,
        tcp,
        faults,
        seed: g.u64(),
        regions: g.u64_in(1, 5) as u32,
        dur: g.u64_in(SECS, 3 * SECS),
    }
}

/// The scenario's hosts, in registration order.
fn workload_hosts(w: &Workload) -> Vec<(Ipv4, Box<dyn App>)> {
    w.ips
        .iter()
        .enumerate()
        .map(|(i, ip)| {
            let app: Box<dyn App> = match w.tcp {
                Some((srv, _, _)) if i == srv => Box::new(Echo),
                Some((srv, cli, period)) if i == cli => {
                    Box::new(Client::new(SockAddr::new(w.ips[srv], 8333), period))
                }
                _ => Box::new(Pinger {
                    targets: w.pingers[i].0.clone(),
                    period: w.pingers[i].1,
                    next: 0,
                }),
            };
            (*ip, app)
        })
        .collect()
}

fn echo_pair() -> Vec<(Ipv4, Box<dyn App>)> {
    vec![
        (SRV, Box::new(Echo)),
        (CLI, Box::new(Client::new(SockAddr::new(SRV, 8333), 50 * MILLIS))),
    ]
}

/// Everything a run reduces to.
#[derive(Debug, PartialEq)]
struct Trace {
    captures: Vec<Sniffed>,
    counters: Vec<HostCounters>,
    drops: Vec<TcpDropStats>,
    busy: Vec<u64>,
    delivered: u64,
    faults: FaultStats,
}

/// Which driver runs the event loop.
#[derive(Clone, Copy)]
enum Driver {
    Serial,
    Sharded { regions: u32, workers: usize },
}

/// The network and run length a scenario uses.
struct Setup {
    seed: u64,
    faults: LinkFaults,
    plan: FaultPlan,
    dur: Nanos,
}

/// Registers `hosts`, runs the network and reduces the run (both drivers
/// expose the same method names).
macro_rules! reduce {
    ($sim:expr, $setup:expr, $hosts:expr) => {{
        let (mut sim, setup, hosts) = ($sim, $setup, $hosts);
        if !setup.plan.is_none() {
            sim.set_fault_plan(setup.plan.clone());
        }
        let ips: Vec<Ipv4> = hosts.iter().map(|h| h.0).collect();
        for (ip, app) in hosts {
            sim.add_host(ip, app, HostConfig::default());
        }
        let tap = sim.add_tap(TapFilter::All);
        sim.run_for(setup.dur);
        Trace {
            captures: tap.drain(),
            counters: ips.iter().map(|ip| sim.host_counters(*ip)).collect(),
            drops: ips.iter().map(|ip| sim.host_tcp_drops(*ip)).collect(),
            busy: ips.iter().map(|ip| sim.host_cpu(*ip).cum_busy()).collect(),
            delivered: sim.delivered_packets(),
            faults: sim.fault_stats(),
        }
    }};
}

fn run(driver: Driver, setup: &Setup, hosts: Vec<(Ipv4, Box<dyn App>)>) -> Trace {
    let (seed, faults) = (setup.seed, setup.faults);
    match driver {
        Driver::Serial => reduce!(
            Simulator::new(SimConfig {
                seed,
                faults,
                ..SimConfig::default()
            }),
            setup,
            hosts
        ),
        Driver::Sharded { regions, workers } => reduce!(
            ShardedSim::new(ShardConfig {
                regions,
                workers,
                seed,
                faults,
                ..ShardConfig::default()
            }),
            setup,
            hosts
        ),
    }
}

/// FNV-1a over the trace's debug rendering.
fn digest(t: &Trace) -> u64 {
    format!("{t:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

const ONE_REGION: Driver = Driver::Sharded {
    regions: 1,
    workers: 1,
};

/// Runs the echo pair on `Simulator` and `ShardedSim { regions: 1 }`,
/// asserts both match `want`, and returns the trace for sanity checks.
fn assert_echo_pair(faults: LinkFaults, plan: FaultPlan, dur: Nanos, want: u64) -> Trace {
    let setup = Setup {
        seed: SimConfig::default().seed,
        faults,
        plan,
        dur,
    };
    let serial = run(Driver::Serial, &setup, echo_pair());
    let sharded = run(ONE_REGION, &setup, echo_pair());
    assert_eq!(digest(&serial), want, "Simulator trace drifted");
    assert_eq!(digest(&sharded), want, "ShardedSim {{ regions: 1 }} trace drifted");
    serial
}

/// Recorded echo-pair digests (see the module docs).
const PIN_CLEAN: u64 = 0xb30b_26dc_dc77_a15e;
const PIN_FAULTS: u64 = 0xcb44_e069_a269_0184;
const PIN_PLAN: u64 = 0x6dad_9b4e_be6a_8be3;

#[test]
fn pinned_trace_clean() {
    let t = assert_echo_pair(LinkFaults::NONE, FaultPlan::none(), 3 * SECS, PIN_CLEAN);
    assert!(!t.captures.is_empty(), "fixture produced traffic");
}

#[test]
fn pinned_trace_under_loss_and_jitter() {
    // Loss + jitter force the reliable transport and exercise the fault
    // RNG stream.
    let faults = LinkFaults {
        loss: 0.05,
        jitter: 2 * MILLIS,
        ..LinkFaults::NONE
    };
    let t = assert_echo_pair(faults, FaultPlan::none(), 3 * SECS, PIN_FAULTS);
    assert!(t.faults.dropped_loss > 0, "loss fired in the fixture");
    assert!(t.faults.jittered > 0, "jitter fired in the fixture");
}

#[test]
fn pinned_trace_with_a_fault_plan() {
    let plan = FaultPlan::none()
        .with(SECS, 2 * SECS, FaultKind::HostDown(SRV))
        .with(2 * SECS + 500 * MILLIS, 3 * SECS, FaultKind::Partition(SRV, CLI));
    let t = assert_echo_pair(LinkFaults::NONE, plan, 4 * SECS, PIN_PLAN);
    assert!(t.faults.dropped_partition > 0, "plan fired in the fixture");
}

fn workload_setup(w: &Workload) -> Setup {
    Setup {
        seed: w.seed,
        faults: w.faults,
        plan: FaultPlan::none(),
        dur: w.dur,
    }
}

/// `(generator seed, one-region digest, own-region-count digest)`, recorded
/// with `Gen::new(seed, 24)`.
const PINNED: [(u64, u64, u64); 8] = [
    (1, 0x08bd_eda3_7063_8e5b, 0xdf2f_5eb4_7d44_323b),
    (2, 0x4868_eef6_c92f_c16e, 0x0240_7bc7_5289_ecda),
    (3, 0x9fbc_4618_4a16_1d4a, 0x9fbc_4618_4a16_1d4a),
    (4, 0xb91d_904b_cbcc_3787, 0xb91d_904b_cbcc_3787),
    (5, 0xc085_96a8_16e0_6139, 0xc085_96a8_16e0_6139),
    (6, 0x9df0_9280_d302_8e3b, 0x9df0_9280_d302_8e3b),
    (7, 0x9f82_7a08_de42_8007, 0xe95a_f2ba_3fd1_b0ea),
    (8, 0xeb8c_2011_4ff4_19a3, 0x8b6c_6992_8d31_fada),
];

#[test]
fn pinned_workloads_replay_on_both_drivers() {
    for (seed, one_region, own_regions) in PINNED {
        let w = gen_workload(&mut Gen::new(seed, 24));
        let setup = workload_setup(&w);
        let own = Driver::Sharded {
            regions: w.regions,
            workers: 1,
        };
        let got = [
            digest(&run(Driver::Serial, &setup, workload_hosts(&w))),
            digest(&run(ONE_REGION, &setup, workload_hosts(&w))),
            digest(&run(own, &setup, workload_hosts(&w))),
        ];
        assert_eq!(
            got,
            [one_region, one_region, own_regions],
            "seed {seed} (regions={}): [Simulator, regions=1, regions=n]",
            w.regions
        );
    }
}

#[test]
fn worker_count_never_changes_results() {
    check_sized("shard worker-count invariance", 24, |g| {
        let w = gen_workload(g);
        let setup = workload_setup(&w);
        let on = |workers| Driver::Sharded {
            regions: w.regions,
            workers,
        };
        let base = run(on(1), &setup, workload_hosts(&w));
        for workers in [2usize, 7] {
            let other = run(on(workers), &setup, workload_hosts(&w));
            assert_eq!(
                base, other,
                "trace diverged at workers={workers} (regions={})",
                w.regions
            );
        }
    });
}

/// The client dials at 0, the server registers at 10 µs, and the SYN lands
/// at 100 µs: the in-flight packet must reach the late host.
#[test]
fn host_registered_while_a_packet_is_in_flight_receives_it() {
    let client = || Box::new(Client::new(SockAddr::new(SRV, 8333), 50 * MILLIS));
    let server = || Box::new(Echo);
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(CLI, client(), HostConfig::default());
    sim.run_for(10 * MICROS);
    sim.add_host(SRV, server(), HostConfig::default());
    sim.run_for(SECS);
    assert!(sim.app::<Client>(CLI).unwrap().conn.is_some(), "Simulator");
    // One region, and two with the late host in the sender's region.
    for (regions, region) in [(1, 0), (2, 1)] {
        let mut sim = ShardedSim::new(ShardConfig {
            regions,
            ..ShardConfig::default()
        });
        sim.add_host_pinned(CLI, client(), HostConfig::default(), region);
        sim.run_for(10 * MICROS);
        sim.add_host_pinned(SRV, server(), HostConfig::default(), region);
        sim.run_for(SECS);
        let connected = sim.app::<Client>(CLI).unwrap().conn.is_some();
        assert!(connected, "ShardedSim {{ regions: {regions} }}");
    }
}
