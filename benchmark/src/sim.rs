//! The three simulator workloads: their topology builders (every app
//! wrapped in the [`Timed`] decorator), the sliced measured phase, the
//! post-run drain and the reduction to digests, operation counts and
//! per-layer counters.
//!
//! The builders replay the repository's own construction order — the
//! swarm scenario's (`banscore::scenario::swarm::run_swarm`) and the
//! testbed's (`banscore::Testbed::build`) — so the benchmark measures the
//! program `repro` runs; `tests/fidelity.rs` pins both.

use crate::report::{fnv, FNV_BASIS};
use crate::trace::{self, Class, Timed};
use banscore::mainnet::MainnetPeer;
use banscore::scenario::serve::peer_key;
use banscore::scenario::swarm::swarm_ip;
use banscore::testbed::addrs;
use btc_attack::defamation::PostConnDefamer;
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::packet::{IcmpEcho, Ipv4, SockAddr};
use btc_netsim::rng::SimRng;
use btc_netsim::shard::{ShardConfig, ShardedSim};
use btc_netsim::sim::{
    App, Ctx, HostConfig, HostCounters, SimConfig, Simulator, TapFilter, TapHandle,
};
use btc_netsim::tcp::TcpDropStats;
use btc_netsim::time::{Nanos, MILLIS};
use btc_node::metrics::Telemetry;
use btc_node::node::{Node, NodeConfig};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::RawMessage;
use btc_wire::types::Network;
use std::any::Any;

/// The benchmark's swarm pinger: the swarm scenario's background host
/// (staggered periodic ICMP probes to two fixed peers), plus a send
/// counter and an optional stop time so every echo request of a measured
/// run can be answered before the run ends.
pub struct Pinger {
    targets: [Ipv4; 2],
    period: Nanos,
    next: usize,
    /// Echo replies received.
    pub replies: u64,
    /// Echo requests sent.
    pub sent: u64,
    stop_at: Option<Nanos>,
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let phase = self.period / 2 + (u64::from(self.targets[0][3]) + 1) * 7 * MILLIS;
        ctx.set_timer(phase, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.stop_at.is_some_and(|stop| ctx.now() >= stop) {
            return;
        }
        let dst = self.targets[self.next % self.targets.len()];
        self.next += 1;
        ctx.send_icmp(dst, 4, (self.next & 0xFFFF) as u16, 56);
        self.sent += 1;
        ctx.set_timer(self.period, 0);
    }
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, echo: &IcmpEcho) {
        if !echo.request {
            self.replies += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Borrows the app behind a decorated host of a serial simulator.
fn app<A: App>(sim: &Simulator, ip: Ipv4) -> &A {
    &sim.app::<Timed<A>>(ip)
        .expect("decorated app of the expected type")
        .inner
}

/// Borrows the decorator of a host of a serial simulator.
fn wrapper_mut<A: App>(sim: &mut Simulator, ip: Ipv4) -> &mut Timed<A> {
    sim.app_mut::<Timed<A>>(ip)
        .expect("decorated app of the expected type")
}

/// Drives `run` for `count` sim-time steps of `step`; each step is a
/// top-level trace span when the thread records.
pub fn run_sliced(step: Nanos, count: u64, mut run: impl FnMut(Nanos)) {
    for _ in 0..count {
        trace::top_level("netsim.run_for", || run(step));
    }
}

// ---------------------------------------------------------------- swarm

/// One swarm run: the swarm scenario's `bm-dos` case.
#[derive(Clone, Copy, Debug)]
pub struct SwarmSpec {
    /// Background pinger hosts.
    pub swarm_hosts: usize,
    /// Regions.
    pub regions: u32,
    /// Worker threads.
    pub workers: usize,
    /// Measured sim time.
    pub dur: Nanos,
    /// Innocent peers of the attack core.
    pub innocents: usize,
    /// Simulator seed.
    pub seed: u64,
    /// Index offset of the swarm address block.
    pub swarm_offset: usize,
    /// First Sybil port of the flooder.
    pub sybil_port: u16,
    /// Pingers send no request at or after this sim time.
    pub ping_stop: Option<Nanos>,
    /// Whether callbacks are timed.
    pub traced: bool,
}

/// A built swarm.
pub struct Swarm {
    /// The simulator.
    pub sim: ShardedSim,
    /// The spec it was built from.
    pub spec: SwarmSpec,
    /// Hosts simulated.
    pub hosts: usize,
}

/// Builds the swarm in the swarm scenario's order: innocents, target and
/// feeders pinned to region 0, the flooder, then the pingers.
pub fn build_swarm(spec: SwarmSpec) -> Swarm {
    let mut sim = ShardedSim::new(ShardConfig {
        regions: spec.regions,
        workers: spec.workers,
        seed: spec.seed,
        ..ShardConfig::default()
    });
    let t = spec.traced;
    let mut hosts = 0usize;
    let innocent_ips: Vec<Ipv4> = (0..spec.innocents).map(addrs::innocent).collect();
    for ip in &innocent_ips {
        let node = Timed::boxed(Node::new(NodeConfig::default()), Class::Node, t);
        sim.add_host_pinned(*ip, node, HostConfig::default(), 0);
        hosts += 1;
    }
    let node_cfg = NodeConfig {
        target_outbound: 2.min(spec.innocents),
        outbound_targets: innocent_ips
            .iter()
            .map(|ip| SockAddr::new(*ip, 8333))
            .collect(),
        ..NodeConfig::default()
    };
    let target_addr = SockAddr::new(addrs::TARGET, node_cfg.listen_port);
    let target = Timed::boxed(Node::new(node_cfg), Class::Node, t);
    sim.add_host_pinned(addrs::TARGET, target, HostConfig::default(), 0);
    hosts += 1;
    for i in 0..3 {
        let feeder = Timed::boxed(MainnetPeer::new(target_addr), Class::Feeder, t);
        sim.add_host_pinned(addrs::feeder(i), feeder, HostConfig::default(), 0);
        hosts += 1;
    }
    let flooder = Flooder::new(FloodConfig {
        target: target_addr,
        payload: FloodPayload::Ping,
        reconnect_on_ban: true,
        sybil_port_start: spec.sybil_port,
        ..FloodConfig::default()
    });
    sim.add_host_pinned(
        addrs::ATTACKER,
        Timed::boxed(flooder, Class::Attack, t),
        HostConfig::default(),
        0,
    );
    hosts += 1;
    let n = spec.swarm_hosts;
    let ip = |i: usize| swarm_ip(spec.swarm_offset + i);
    for i in 0..n {
        let pinger = Pinger {
            targets: [ip((i + 1) % n), ip((i * 7 + 3) % n)],
            period: 250 * MILLIS + (i as u64 % 64) * 25 * MILLIS,
            next: 0,
            replies: 0,
            sent: 0,
            stop_at: spec.ping_stop,
        };
        sim.add_host(
            ip(i),
            Timed::boxed(pinger, Class::Swarm, t),
            HostConfig::default(),
        );
        hosts += 1;
    }
    Swarm { sim, spec, hosts }
}

/// What a swarm run reduces to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwarmOutcome {
    /// The swarm scenario's digest, computed the same way.
    pub digest: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Messages the target accepted.
    pub target_msgs: u64,
    /// Bans the target issued.
    pub target_bans: u64,
    /// Flood messages sent.
    pub flood_msgs: u64,
    /// Echo requests every pinger sent.
    pub echo_sent: u64,
    /// Echo replies every pinger received.
    pub echo_replies: u64,
}

impl Swarm {
    /// Runs `count` sim-time steps of `step` (the measured phase is
    /// `spec.dur` in total).
    pub fn run(&mut self, step: Nanos, count: u64) {
        let sim = &mut self.sim;
        run_sliced(step, count, |d| sim.run_for(d));
    }

    /// Reduces the run exactly as the swarm scenario does for `bm-dos`,
    /// plus the echo totals over every pinger.
    pub fn outcome(&mut self) -> SwarmOutcome {
        let sim = &mut self.sim;
        let fs = sim.fault_stats();
        let delivered = sim.delivered_packets();
        let (target_msgs, target_bans) = {
            let node: &Node = &sim.app::<Timed<Node>>(addrs::TARGET).expect("target").inner;
            (node.telemetry.messages.len() as u64, node.telemetry.bans)
        };
        let flood_msgs = sim
            .app::<Timed<Flooder>>(addrs::ATTACKER)
            .expect("flooder")
            .inner
            .stats
            .messages_sent;
        let n = self.spec.swarm_hosts;
        let ip = |i: usize| swarm_ip(self.spec.swarm_offset + i);
        let mut h = FNV_BASIS;
        let stride = (n / 32).max(1);
        let mut i = 0;
        while i < n {
            let c = sim.host_counters(ip(i));
            let p = &sim.app::<Timed<Pinger>>(ip(i)).expect("pinger").inner;
            for v in [
                c.rx_packets,
                c.rx_bytes,
                c.tx_packets,
                c.tx_bytes,
                p.replies,
            ] {
                h = fnv(h, v);
            }
            i += stride;
        }
        let tc = sim.host_counters(addrs::TARGET);
        for v in [
            delivered,
            fs.dropped_loss,
            fs.dropped_partition,
            fs.jittered,
            fs.reordered,
            target_msgs,
            target_bans,
            tc.rx_packets,
            tc.rx_bytes,
            tc.tx_packets,
            tc.tx_bytes,
            0, // defamation strikes: none in the bm-dos case
            flood_msgs,
            self.hosts as u64,
        ] {
            h = fnv(h, v);
        }
        let (mut echo_sent, mut echo_replies) = (0, 0);
        for i in 0..n {
            let p = &sim.app::<Timed<Pinger>>(ip(i)).expect("pinger").inner;
            echo_sent += p.sent;
            echo_replies += p.replies;
        }
        SwarmOutcome {
            digest: h,
            delivered,
            target_msgs,
            target_bans,
            flood_msgs,
            echo_sent,
            echo_replies,
        }
    }

    /// The target node.
    pub fn target(&mut self) -> &Node {
        &self
            .sim
            .app::<Timed<Node>>(addrs::TARGET)
            .expect("target")
            .inner
    }

    /// Transport drop and retransmit totals over the attack core.
    pub fn core_tcp(&self) -> TcpDropStats {
        let mut ips = vec![addrs::TARGET, addrs::ATTACKER];
        ips.extend((0..3).map(addrs::feeder));
        ips.extend((0..self.spec.innocents).map(addrs::innocent));
        sum_drops(ips.iter().map(|ip| self.sim.host_tcp_drops(*ip)))
    }
}

fn sum_drops(all: impl Iterator<Item = TcpDropStats>) -> TcpDropStats {
    let mut t = TcpDropStats::default();
    for d in all {
        t.bad_checksum += d.bad_checksum;
        t.bad_seq += d.bad_seq;
        t.no_socket += d.no_socket;
        t.refused_accept += d.refused_accept;
        t.stale_seq += d.stale_seq;
        t.retransmits += d.retransmits;
        t.timeouts += d.timeouts;
    }
    t
}

/// Segments the transport layer discarded.
pub fn tcp_dropped(d: &TcpDropStats) -> u64 {
    d.bad_checksum + d.bad_seq + d.no_socket + d.refused_accept + d.timeouts
}

// -------------------------------------------------------------- testbed

/// Where a testbed's hosts live: the target is always `10.0.0.1`; the
/// feeder and innocent blocks start at seed-chosen offsets of the
/// testbed address plan, and the attackers at a seed-chosen host byte.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Offset into `addrs::feeder`.
    pub feeder_base: usize,
    /// Offset into `addrs::innocent`.
    pub innocent_base: usize,
    /// First attacker host byte in `10.0.9.x`.
    pub attacker_base: u8,
    /// First Sybil port of every flooder.
    pub sybil_port: u16,
}

impl Layout {
    /// The testbed's own address plan (what `Testbed::build` uses).
    pub const TESTBED: Layout = Layout {
        feeder_base: 0,
        innocent_base: 0,
        attacker_base: 9,
        sybil_port: 50_000,
    };

    /// A layout drawn from `seed`.
    pub fn from_seed(seed: u64) -> Layout {
        let mut rng = SimRng::new(seed ^ 0x1A70_u64);
        Layout {
            feeder_base: rng.gen_range(200) as usize,
            innocent_base: rng.gen_range(400) as usize,
            attacker_base: 10 + rng.gen_range(200) as u8,
            sybil_port: 20_000 + rng.gen_range(20_000) as u16,
        }
    }

    /// The `k`-th attacker address.
    pub fn attacker(&self, k: usize) -> Ipv4 {
        [10, 0, 9, self.attacker_base + k as u8]
    }
}

/// A testbed to build.
#[derive(Clone, Debug)]
pub struct BedSpec {
    /// Target configuration.
    pub node: NodeConfig,
    /// Mainnet feeders.
    pub feeders: usize,
    /// Innocent listening nodes.
    pub innocents: usize,
    /// Outbound connections the target keeps.
    pub target_outbound: usize,
    /// Simulator seed.
    pub seed: u64,
    /// Address plan.
    pub layout: Layout,
    /// Whether callbacks are timed.
    pub traced: bool,
}

/// A built testbed.
pub struct Bed {
    /// The simulator.
    pub sim: Simulator,
    /// Target `[IP:Port]`.
    pub target_addr: SockAddr,
    /// Feeder IPs.
    pub feeder_ips: Vec<Ipv4>,
    /// Innocent IPs.
    pub innocent_ips: Vec<Ipv4>,
    /// Attacker IPs.
    pub attacker_ips: Vec<Ipv4>,
    /// The defamer's tap, when there is one.
    pub tap: Option<TapHandle>,
    traced: bool,
}

/// Builds a testbed in `Testbed::build`'s order: innocents, target,
/// feeders.
pub fn build_bed(spec: &BedSpec) -> Bed {
    let mut sim = Simulator::new(SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    });
    let t = spec.traced;
    let target_addr = SockAddr::new(addrs::TARGET, spec.node.listen_port);
    let innocent_ips: Vec<Ipv4> = (0..spec.innocents)
        .map(|i| addrs::innocent(spec.layout.innocent_base + i))
        .collect();
    for ip in &innocent_ips {
        sim.add_host(
            *ip,
            Timed::boxed(Node::new(NodeConfig::default()), Class::Node, t),
            HostConfig::default(),
        );
    }
    let mut node_cfg = spec.node.clone();
    node_cfg.target_outbound = spec.target_outbound;
    node_cfg.outbound_targets = innocent_ips
        .iter()
        .map(|ip| SockAddr::new(*ip, 8333))
        .collect();
    sim.add_host(
        addrs::TARGET,
        Timed::boxed(Node::new(node_cfg), Class::Node, t),
        HostConfig::default(),
    );
    let feeder_ips: Vec<Ipv4> = (0..spec.feeders)
        .map(|i| addrs::feeder(spec.layout.feeder_base + i))
        .collect();
    for ip in &feeder_ips {
        sim.add_host(
            *ip,
            Timed::boxed(MainnetPeer::new(target_addr), Class::Feeder, t),
            HostConfig::default(),
        );
    }
    Bed {
        sim,
        target_addr,
        feeder_ips,
        innocent_ips,
        attacker_ips: Vec::new(),
        tap: None,
        traced: t,
    }
}

/// The wire bytes of `payload` as a replayable frame: the flooder sends
/// the cached frame instead of rebuilding it per message.
pub fn cached_frame(payload: &FloodPayload) -> FloodPayload {
    let bytes = payload.build(
        Network::Regtest,
        SockAddr::default(),
        SockAddr::default(),
        1,
    );
    let mut asm = FrameAssembler::new(Network::Regtest);
    asm.push(&bytes);
    let raw: RawMessage = asm
        .next_frame()
        .expect("a built payload is one whole frame");
    FloodPayload::Custom(raw)
}

impl Bed {
    /// Adds a flooder on the next attacker address.
    pub fn add_flooder(&mut self, layout: &Layout, cfg: FloodConfig) {
        let ip = layout.attacker(self.attacker_ips.len());
        let flooder = Flooder::new(FloodConfig {
            target: self.target_addr,
            sybil_port_start: layout.sybil_port,
            ..cfg
        });
        self.sim.add_host(
            ip,
            Timed::boxed(flooder, Class::Attack, self.traced),
            HostConfig::default(),
        );
        self.attacker_ips.push(ip);
    }

    /// Adds a post-connection defamer on a target tap, striking the
    /// innocents every `poll`.
    pub fn add_defamer(&mut self, layout: &Layout, poll: Nanos) {
        let ip = layout.attacker(self.attacker_ips.len());
        let tap = self.sim.add_tap(TapFilter::Host(addrs::TARGET));
        let mut defamer =
            PostConnDefamer::new(self.target_addr, self.innocent_ips.clone(), tap.clone());
        defamer.poll = poll;
        self.sim.add_host(
            ip,
            Timed::boxed(defamer, Class::Attack, self.traced),
            HostConfig::default(),
        );
        self.attacker_ips.push(ip);
        self.tap = Some(tap);
    }

    /// The target node.
    pub fn target(&self) -> &Node {
        app::<Node>(&self.sim, addrs::TARGET)
    }

    /// The target's decorator (for byte capture).
    pub fn target_wrapper(&mut self) -> &mut Timed<Node> {
        wrapper_mut::<Node>(&mut self.sim, addrs::TARGET)
    }

    /// Runs `count` sim-time steps of `step`.
    pub fn run(&mut self, step: Nanos, count: u64) {
        let sim = &mut self.sim;
        run_sliced(step, count, |d| sim.run_for(d));
    }

    /// Mutes every feeder and attacker (their timers stop, so they send
    /// nothing new) and runs `dur` more so traffic in flight lands.
    pub fn drain(&mut self, dur: Nanos) {
        for ip in self.feeder_ips.clone() {
            wrapper_mut::<MainnetPeer>(&mut self.sim, ip).muted = true;
        }
        for ip in self.attacker_ips.clone() {
            if let Some(f) = self.sim.app_mut::<Timed<Flooder>>(ip) {
                f.muted = true;
            } else if let Some(d) = self.sim.app_mut::<Timed<PostConnDefamer>>(ip) {
                d.muted = true;
            }
        }
        self.sim.run_for(dur);
    }

    /// Flood messages the attackers sent, and defamation strikes.
    pub fn attack_sent(&self) -> (u64, u64) {
        let (mut flood, mut strikes) = (0, 0);
        for ip in &self.attacker_ips {
            if let Some(f) = self.sim.app::<Timed<Flooder>>(*ip) {
                flood += f.inner.stats.messages_sent;
            } else if let Some(d) = self.sim.app::<Timed<PostConnDefamer>>(*ip) {
                strikes += d.inner.records.len() as u64;
            }
        }
        (flood, strikes)
    }

    /// Messages each feeder sent after its handshake.
    pub fn feeder_sent(&self) -> Vec<u64> {
        self.feeder_ips
            .iter()
            .map(|ip| app::<MainnetPeer>(&self.sim, *ip).sent)
            .collect()
    }

    /// Transport drop and retransmit totals over every host.
    pub fn tcp(&self) -> TcpDropStats {
        let mut ips = vec![addrs::TARGET];
        ips.extend(&self.feeder_ips);
        ips.extend(&self.innocent_ips);
        ips.extend(&self.attacker_ips);
        sum_drops(ips.iter().map(|ip| self.sim.host_tcp_drops(*ip)))
    }

    /// Target traffic counters.
    pub fn target_counters(&self) -> HostCounters {
        self.sim.host_counters(addrs::TARGET)
    }

    /// Digest of the target's observable state: its full accepted-message
    /// log, ban/graylist counters and traffic counters, plus the attack
    /// totals and the packet count.
    pub fn digest(&self) -> u64 {
        let tel = &self.target().telemetry;
        let mut h = telemetry_digest(tel);
        let c = self.target_counters();
        let (flood, strikes) = self.attack_sent();
        for v in [
            c.rx_packets,
            c.rx_bytes,
            c.tx_packets,
            c.tx_bytes,
            self.sim.delivered_packets(),
            flood,
            strikes,
        ] {
            h = fnv(h, v);
        }
        h
    }
}

/// Digest of a node's telemetry: every accepted message and reconnection
/// plus the drop, ban and graylist counters.
pub fn telemetry_digest(tel: &Telemetry) -> u64 {
    let mut h = FNV_BASIS;
    for m in &tel.messages {
        h = fnv(h, m.time);
        h = fnv(h, u64::from(m.msg_type) << 32 | u64::from(m.size));
        h = fnv(h, peer_key(m.from));
    }
    for r in &tel.reconnects {
        h = fnv(h, r.time);
        h = fnv(h, peer_key(r.lost));
    }
    for v in [
        tel.bad_checksum_frames,
        tel.undecodable_frames,
        tel.bans,
        tel.refused_banned,
        tel.graylists,
        tel.graylist_dropped,
        tel.tier_changes.len() as u64,
    ] {
        h = fnv(h, v);
    }
    h
}
