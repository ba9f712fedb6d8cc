//! The discrete-event simulator: hosts, links, taps and the event loop.
//!
//! Each host runs an [`App`] (a Bitcoin node, an attacker, a traffic
//! source) above a [`TcpStack`] and a [`CpuMeter`]. The simulator delivers
//! packets with a configurable link latency, fires timers, lets *taps*
//! observe traffic promiscuously (the sniffing required by post-connection
//! Defamation) and lets any app inject raw packets with forged source
//! addresses (spoofing).
//!
//! The event loop is written once, as a region: one event queue over
//! column-major host state. [`Simulator`] drives a single region to each
//! requested time; [`ShardedSim`](crate::shard::ShardedSim) runs many in
//! lookahead-synchronized rounds.

use crate::cpu::CpuMeter;
use crate::faults::{FaultPlan, FaultStats, LinkFaults};
use crate::packet::{IcmpEcho, Ipv4, Packet, PacketBody, SockAddr};
use crate::rng::SimRng;
use crate::shard::{Mail, RegionId, ShardConfig};
use crate::tcp::{CloseReason, ConnId, TcpDropStats, TcpEvent, TcpStack};
use crate::time::{Nanos, MICROS};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default one-way link latency (LAN-scale, like the paper's testbed).
pub const DEFAULT_LATENCY: Nanos = 100 * MICROS;

/// Default kernel-level cycle cost of receiving any packet.
pub const DEFAULT_KERNEL_COST: u64 = 3_000;

/// Default extra cycle cost of answering an ICMP echo in the "kernel"
/// (network-layer processing only — the Table III contrast).
pub const DEFAULT_ICMP_COST: u64 = 4_500;

/// Per-host configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// CPU capacity in cycles/second.
    pub capacity_hz: u64,
    /// Cycles charged for any received packet (interrupt + IP processing).
    pub kernel_cost_per_packet: u64,
    /// Additional cycles charged for an ICMP echo request.
    pub icmp_echo_cost: u64,
    /// Whether the host answers echo requests.
    pub icmp_reply: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            capacity_hz: crate::cpu::DEFAULT_CAPACITY_HZ,
            kernel_cost_per_packet: DEFAULT_KERNEL_COST,
            icmp_echo_cost: DEFAULT_ICMP_COST,
            icmp_reply: true,
        }
    }
}

/// Per-host traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received (wire size).
    pub rx_bytes: u64,
    /// Packets sent.
    pub tx_packets: u64,
    /// Bytes sent (wire size).
    pub tx_bytes: u64,
}

/// An application living on a simulated host.
///
/// All methods default to no-ops so simple apps implement only what they
/// need. `as_any_mut` enables scenario code to downcast and inspect app
/// state after (or during) a run.
///
/// Apps are `Send` so a host (and its boxed app) can be owned by a shard
/// worker thread in the sharded engine ([`crate::shard`]). Callbacks are
/// still strictly serial per host — `Send` is an ownership-transfer
/// requirement, not a concurrency one.
pub trait App: Send + 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Consulted for each new inbound SYN; `false` refuses with RST. This is
    /// where a Bitcoin node consults its ban list.
    fn on_accept(&mut self, _peer: SockAddr) -> bool {
        true
    }
    /// A connection finished its handshake.
    fn on_connected(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _inbound: bool) {
    }
    /// In-order data arrived on a connection.
    fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _data: &[u8]) {}
    /// A connection closed.
    fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _reason: CloseReason) {
    }
    /// An outbound connect was refused.
    fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _dst: SockAddr) {}
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    /// An ICMP echo arrived (after kernel-level accounting).
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, _echo: &IcmpEcho) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Deferred host outputs collected during a callback.
#[derive(Default)]
struct Outbox {
    packets: Vec<Packet>,
    timers: Vec<(Nanos, u64)>,
}

/// The environment handed to app callbacks.
pub struct Ctx<'a> {
    now: Nanos,
    ip: Ipv4,
    tcp: &'a mut TcpStack,
    cpu: &'a mut CpuMeter,
    rng: &'a mut SimRng,
    out: &'a mut Outbox,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// This host's IP.
    pub fn ip(&self) -> Ipv4 {
        self.ip
    }

    /// Starts listening for inbound connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.tcp.listen(port);
    }

    /// Opens a connection to `dst` from a fresh ephemeral port.
    pub fn connect(&mut self, dst: SockAddr) -> ConnId {
        let (id, syn) = self.tcp.connect(dst);
        self.out.packets.push(syn);
        id
    }

    /// Opens a connection from a specific local port (serial-Sybil attacks
    /// pick their identifiers deliberately). `None` when the tuple is busy.
    pub fn connect_from(&mut self, port: u16, dst: SockAddr) -> Option<ConnId> {
        let (id, syn) = self.tcp.connect_from(port, dst)?;
        self.out.packets.push(syn);
        Some(id)
    }

    /// Sends bytes on an established connection. Returns `false` if the
    /// connection isn't usable.
    pub fn send(&mut self, conn: ConnId, data: &[u8]) -> bool {
        match self.tcp.send(conn, data) {
            Some(pkts) => {
                self.out.packets.extend(pkts);
                true
            }
            None => false,
        }
    }

    /// Abortively closes a connection (RST).
    pub fn close(&mut self, conn: ConnId) {
        if let Some(rst) = self.tcp.close(conn) {
            self.out.packets.push(rst);
        }
    }

    /// Remote address of a connection.
    pub fn peer_of(&self, conn: ConnId) -> Option<SockAddr> {
        self.tcp.peer_of(conn)
    }

    /// Local address of a connection.
    pub fn local_of(&self, conn: ConnId) -> Option<SockAddr> {
        self.tcp.local_of(conn)
    }

    /// Whether the connection is established.
    pub fn is_established(&self, conn: ConnId) -> bool {
        self.tcp.is_established(conn)
    }

    /// Live `(snd_nxt, rcv_nxt)` of a connection.
    pub fn seq_state(&self, conn: ConnId) -> Option<(u32, u32)> {
        self.tcp.seq_state(conn)
    }

    /// Arms a timer `delay` from now; `token` is returned in
    /// [`App::on_timer`].
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.out.timers.push((delay, token));
    }

    /// Injects a raw packet — the source address is whatever the packet
    /// claims (spoofing primitive).
    pub fn inject(&mut self, packet: Packet) {
        self.out.packets.push(packet);
    }

    /// Sends an ICMP echo request of `len` payload bytes to `dst`.
    pub fn send_icmp(&mut self, dst: Ipv4, ident: u16, seq: u16, len: usize) {
        self.out.packets.push(Packet {
            src: SockAddr::new(self.ip, 0),
            dst: SockAddr::new(dst, 0),
            body: PacketBody::Icmp(IcmpEcho {
                request: true,
                ident,
                seq,
                len,
            }),
        });
    }

    /// Charges processing cycles to this host's CPU.
    pub fn charge_cpu(&mut self, cycles: u64) {
        self.cpu.charge(cycles);
    }

    /// Read access to the CPU meter (for mining-rate sampling).
    pub fn cpu(&self) -> &CpuMeter {
        self.cpu
    }

    /// Transport drop statistics.
    pub fn tcp_drops(&self) -> TcpDropStats {
        self.tcp.drops
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// One packet observed by a tap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sniffed {
    /// Delivery time.
    pub time: Nanos,
    /// The packet.
    pub packet: Packet,
}

/// What a tap observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapFilter {
    /// Every packet in the network.
    All,
    /// Packets to or from one host.
    Host(Ipv4),
    /// Packets between a specific pair (either direction).
    Pair(Ipv4, Ipv4),
}

impl TapFilter {
    pub(crate) fn matches(&self, p: &Packet) -> bool {
        match self {
            TapFilter::All => true,
            TapFilter::Host(ip) => p.src.ip == *ip || p.dst.ip == *ip,
            TapFilter::Pair(a, b) => {
                (p.src.ip == *a && p.dst.ip == *b) || (p.src.ip == *b && p.dst.ip == *a)
            }
        }
    }
}

/// Default tap ring capacity: generous for every testbed scenario (the
/// largest fig10 capture is well under 10⁶ packets between drains), yet
/// bounded so an undrained `TapFilter::All` tap on a 100k-host swarm
/// cannot eat the heap — old captures are evicted and counted instead,
/// mirroring the BanMan history cap.
pub const DEFAULT_TAP_CAPACITY: usize = 1 << 20;

/// A tap's capture state: a bounded ring of the newest captures plus a
/// counter of evicted (oldest-first) ones.
struct TapBuf {
    buf: VecDeque<Sniffed>,
    cap: usize,
    dropped: u64,
}

impl TapBuf {
    fn push(&mut self, s: Sniffed) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(s);
    }
}

/// A shared handle to a tap's capture buffer.
///
/// Clone it before moving an attacker app into the simulator; the attacker
/// reads fresh captures during its timer callbacks, exactly like a `scapy`
/// sniffer thread. The buffer is a bounded ring (capacity fixed at
/// [`Simulator::add_tap_with_capacity`] time): when full, the oldest
/// capture is evicted and [`TapHandle::dropped`] counts it. The handle is
/// `Send` — in the sharded engine it may be read from a different thread
/// than the one recording into it (never concurrently with delivery; the
/// mutex is uncontended in practice).
#[derive(Clone)]
pub struct TapHandle(Arc<Mutex<TapBuf>>);

impl TapHandle {
    pub(crate) fn new(cap: usize) -> Self {
        TapHandle(Arc::new(Mutex::new(TapBuf {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TapBuf> {
        self.0.lock().expect("tap mutex poisoned")
    }

    pub(crate) fn push(&self, s: Sniffed) {
        self.lock().push(s);
    }

    /// Takes all captures recorded since the last drain.
    pub fn drain(&self) -> Vec<Sniffed> {
        self.lock().buf.drain(..).collect()
    }

    /// Copies the current captures without clearing.
    pub fn snapshot(&self) -> Vec<Sniffed> {
        self.lock().buf.iter().cloned().collect()
    }

    /// Number of captured packets currently buffered.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }

    /// Captures evicted because the ring was full (lifetime total).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.lock().cap
    }
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// One-way link latency applied to every packet.
    pub latency: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Per-link fault model (i.i.d. loss, jitter, reordering).
    /// [`LinkFaults::NONE`] touches nothing and draws no randomness.
    pub faults: LinkFaults,
    /// Forces the reliable transport (data ACKs + fixed-RTO
    /// retransmission) even on a clean network. It is auto-enabled when
    /// `faults` is active or a [`FaultPlan`] is installed; clean runs
    /// leave it off so their packet traces stay byte-identical to the
    /// pre-fault-layer simulator.
    pub reliable: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: DEFAULT_LATENCY,
            seed: 0xB17C_0123,
            faults: LinkFaults::NONE,
            reliable: false,
        }
    }
}

/// Seed salt separating the fault-injection RNG stream from the
/// application-visible one: enabling faults must not shift a single draw
/// seen by the apps.
const FAULT_RNG_SALT: u64 = 0xFA17_1A7E_0BAD_11F2;

/// Seed salt separating per-region RNG streams. Region `r` draws
/// application randomness from `seed ^ (SALT · r)` and fault randomness
/// from `(seed ^ FAULT_RNG_SALT) ^ (SALT · r)`; region 0 therefore uses
/// the unsalted streams whichever driver runs it.
const SHARD_STREAM_SALT: u64 = 0x5AAD_C0DE_D15C_0123;

/// Initial event-queue capacity: enough for the testbed scenarios' burst
/// of in-flight packets/timers without heap growth in the hot loop.
const QUEUE_PREALLOC: usize = 1024;

/// Host index within its region's columns.
pub(crate) type LocalId = u32;

enum EventKind {
    Start(LocalId),
    /// A packet in flight, with the destination's column index when it was
    /// known at send time (`None`: looked up again at delivery, so a host
    /// registered while the packet was in flight still receives it).
    Deliver(Packet, Option<LocalId>),
    Timer(LocalId, u64),
    /// A host's earliest TCP retransmission deadline (reliable mode only).
    TcpTick(LocalId),
}

struct Event {
    time: Nanos,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// What every region reads while it runs: the global address index, the
/// fault timeline and the configuration.
pub(crate) struct Net {
    /// Sorted ip → (region, column) index.
    index: Vec<(Ipv4, (RegionId, LocalId))>,
    pub(crate) plan: FaultPlan,
    pub(crate) cfg: ShardConfig,
}

impl Net {
    pub(crate) fn new(cfg: ShardConfig) -> Self {
        Net {
            index: Vec::new(),
            plan: FaultPlan::none(),
            cfg,
        }
    }

    #[inline]
    pub(crate) fn lookup(&self, ip: Ipv4) -> Option<(RegionId, LocalId)> {
        self.index
            .binary_search_by_key(&ip, |e| e.0)
            .ok()
            .map(|i| self.index[i].1)
    }

    /// `(region, column)` of a registered host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub(crate) fn locate(&self, ip: Ipv4) -> (usize, usize) {
        let (r, i) = self.lookup(ip).expect("unknown host");
        (r as usize, i as usize)
    }
}

/// The event loop: one queue over column-major host state.
///
/// [`Simulator`] drives a single region; [`crate::shard::ShardedSim`] runs
/// many under barrier-synchronous lookahead windows. Hot per-host fields
/// live in parallel columns (SoA) instead of an array of host structs: the
/// loop touches `counters`/`cpus` on every delivery and `apps`/`tcps` only
/// on dispatch, so the columns keep the per-event working set dense.
pub(crate) struct Region {
    id: RegionId,
    pub(crate) now: Nanos,
    queue: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    // --- SoA host columns (parallel, indexed by LocalId) ---
    ips: Vec<Ipv4>,
    pub(crate) apps: Vec<Option<Box<dyn App>>>,
    pub(crate) tcps: Vec<TcpStack>,
    pub(crate) cpus: Vec<CpuMeter>,
    configs: Vec<HostConfig>,
    pub(crate) counters: Vec<HostCounters>,
    /// Time of each host's armed [`EventKind::TcpTick`], if any. A tick
    /// whose time doesn't match is stale (superseded by an earlier re-arm)
    /// and is ignored, so retransmission ticks never accumulate.
    tick_at: Vec<Option<Nanos>>,
    // --- per-region streams and stats ---
    rng: SimRng,
    fault_rng: SimRng,
    pub(crate) fault_stats: FaultStats,
    pub(crate) delivered_packets: u64,
    taps: Vec<(TapFilter, TapHandle)>,
    /// Staged cross-region packets, indexed by destination region.
    pub(crate) outbound: Vec<Vec<Mail>>,
}

impl Region {
    pub(crate) fn new(id: RegionId, regions: u32, seed: u64) -> Self {
        let salt = SHARD_STREAM_SALT.wrapping_mul(u64::from(id));
        Region {
            id,
            now: 0,
            queue: BinaryHeap::with_capacity(QUEUE_PREALLOC),
            next_seq: 0,
            ips: Vec::new(),
            apps: Vec::new(),
            tcps: Vec::new(),
            cpus: Vec::new(),
            configs: Vec::new(),
            counters: Vec::new(),
            tick_at: Vec::new(),
            rng: SimRng::new(seed ^ salt),
            fault_rng: SimRng::new((seed ^ FAULT_RNG_SALT) ^ salt),
            fault_stats: FaultStats::default(),
            delivered_packets: 0,
            taps: Vec::new(),
            outbound: (0..regions).map(|_| Vec::new()).collect(),
        }
    }

    /// Registers a host here and in `net`'s index. Its [`App::on_start`]
    /// fires at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already in use.
    pub(crate) fn add_host(
        &mut self,
        net: &mut Net,
        ip: Ipv4,
        app: Box<dyn App>,
        config: HostConfig,
    ) {
        let slot = match net.index.binary_search_by_key(&ip, |e| e.0) {
            Ok(_) => panic!("host {ip:?} already registered"),
            Err(slot) => slot,
        };
        let local = self.ips.len() as LocalId;
        let mut tcp = TcpStack::new(ip);
        if net.cfg.reliable || net.cfg.faults.any() || !net.plan.is_none() {
            tcp.set_reliable(true);
        }
        self.ips.push(ip);
        self.apps.push(Some(app));
        self.tcps.push(tcp);
        self.cpus.push(CpuMeter::new(config.capacity_hz));
        self.configs.push(config);
        self.counters.push(HostCounters::default());
        self.tick_at.push(None);
        self.push_event(self.now, EventKind::Start(local));
        net.index.insert(slot, (ip, (self.id, local)));
    }

    /// Installs a tap on this region's deliveries.
    pub(crate) fn add_tap(&mut self, filter: TapFilter, capacity: usize) -> TapHandle {
        let handle = TapHandle::new(capacity);
        self.taps.push((filter, handle.clone()));
        handle
    }

    /// Switches every host to the reliable transport (a fault plan was
    /// installed: partitions and flaps drop packets, which only a
    /// retransmitting transport survives).
    pub(crate) fn set_reliable(&mut self) {
        for tcp in &mut self.tcps {
            tcp.set_reliable(true);
        }
    }

    /// Time of the earliest queued event.
    pub(crate) fn next_event_time(&self) -> Option<Nanos> {
        self.queue.peek().map(|Reverse(ev)| ev.time)
    }

    /// Queues a cross-region packet drained from a mailbox.
    pub(crate) fn receive(&mut self, mail: Mail) {
        self.push_event(mail.time, EventKind::Deliver(mail.packet, Some(mail.dst)));
    }

    fn push_event(&mut self, time: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    /// Schedules `packet` after the link latency, subject to the fault
    /// model, and routes cross-region packets into the staging mailbox.
    ///
    /// Faults are applied at the sender's edge: a packet cut by a
    /// partition or lost to the i.i.d. model never reaches the taps, like
    /// a frame that dies inside a pulled cable. The fault RNG is a
    /// separate stream from the app RNG, and a fully inactive fault layer
    /// performs no draws at all.
    fn send_packet(&mut self, net: &Net, packet: Packet) {
        let f = net.cfg.faults;
        let dst = net.lookup(packet.dst.ip);
        let cross = matches!(dst, Some((r, _)) if r != self.id);
        let mut delay = if cross {
            net.cfg.region_latency
        } else {
            net.cfg.latency
        };
        if f.any() || !net.plan.is_none() {
            if net.plan.blocked(self.now, packet.src.ip, packet.dst.ip) {
                self.fault_stats.dropped_partition += 1;
                return;
            }
            let loss = (f.loss + net.plan.extra_loss(self.now)).min(1.0);
            if loss > 0.0 && self.fault_rng.gen_bool(loss) {
                self.fault_stats.dropped_loss += 1;
                return;
            }
            if f.jitter > 0 {
                // Uniform in [-jitter, +jitter], clamped so delivery stays
                // strictly in the future (base latency may be small).
                let offset = self.fault_rng.gen_range(2 * f.jitter + 1);
                delay = (delay + offset).saturating_sub(f.jitter).max(1);
                self.fault_stats.jittered += 1;
            }
            if f.reorder > 0.0 && f.reorder_window > 0 && self.fault_rng.gen_bool(f.reorder) {
                delay += 1 + self.fault_rng.gen_range(f.reorder_window);
                self.fault_stats.reordered += 1;
            }
        }
        match dst {
            Some((r, local)) if r != self.id => self.outbound[r as usize].push(Mail {
                time: self.now + delay,
                packet,
                dst: local,
            }),
            other => {
                let local = other.map(|(_, l)| l);
                self.push_event(self.now + delay, EventKind::Deliver(packet, local));
            }
        }
    }

    /// Executes every queued event with `time < hi_excl`, leaving later
    /// events (and staged cross-region mail) untouched.
    pub(crate) fn run_window(&mut self, net: &Net, hi_excl: Nanos) {
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time < hi_excl => {}
                _ => break,
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event");
            debug_assert!(ev.time >= self.now, "region time went backwards");
            self.now = ev.time;
            match ev.kind {
                EventKind::Start(i) => self.with_app(net, i, |app, ctx| app.on_start(ctx)),
                EventKind::Timer(i, token) => {
                    self.with_app(net, i, |app, ctx| app.on_timer(ctx, token));
                }
                EventKind::Deliver(packet, dst) => self.deliver(net, packet, dst),
                EventKind::TcpTick(i) => self.tcp_tick(net, i, ev.time),
            }
        }
    }

    /// Taps observe first, the delivered counter always ticks, then the
    /// destination (if it lives here) processes the packet.
    fn deliver(&mut self, net: &Net, packet: Packet, dst: Option<LocalId>) {
        for (filter, handle) in &self.taps {
            if filter.matches(&packet) {
                handle.push(Sniffed {
                    time: self.now,
                    packet: packet.clone(),
                });
            }
        }
        self.delivered_packets += 1;
        let dst_ip = packet.dst.ip;
        let dst = dst.or_else(|| match net.lookup(dst_ip) {
            Some((r, i)) if r == self.id => Some(i),
            _ => None,
        });
        let Some(id) = dst else {
            return; // destination unreachable: dropped
        };
        let i = id as usize;
        self.counters[i].rx_packets += 1;
        self.counters[i].rx_bytes += packet.wire_len() as u64;
        self.cpus[i].charge(self.configs[i].kernel_cost_per_packet);
        match &packet.body {
            PacketBody::Icmp(echo) => {
                let mut replies = Vec::new();
                if echo.request {
                    self.cpus[i].charge(self.configs[i].icmp_echo_cost);
                    if self.configs[i].icmp_reply {
                        replies.push(Packet {
                            src: SockAddr::new(dst_ip, 0),
                            dst: packet.src,
                            body: PacketBody::Icmp(IcmpEcho {
                                request: false,
                                ..*echo
                            }),
                        });
                    }
                }
                let echo = echo.clone();
                let from = packet.src.ip;
                self.with_app(net, id, |app, ctx| app.on_icmp(ctx, from, &echo));
                for r in replies {
                    self.account_tx(i, &r);
                    self.send_packet(net, r);
                }
            }
            PacketBody::Tcp(seg) => {
                let mut app = self.apps[i].take().expect("app present");
                self.tcps[i].set_now(self.now);
                let (events, replies) =
                    self.tcps[i].handle_segment(packet.src, packet.dst, seg, &mut |peer| {
                        app.on_accept(peer)
                    });
                self.apps[i] = Some(app);
                for r in replies {
                    self.account_tx(i, &r);
                    self.send_packet(net, r);
                }
                self.dispatch_tcp_events(net, id, events);
                self.arm_tcp_tick(id);
            }
        }
    }

    /// Hands transport events to the host's app.
    fn dispatch_tcp_events(&mut self, net: &Net, id: LocalId, events: Vec<TcpEvent>) {
        for ev in events {
            self.with_app(net, id, |app, ctx| match &ev {
                TcpEvent::Connected { id, peer, inbound } => {
                    app.on_connected(ctx, *id, *peer, *inbound)
                }
                TcpEvent::Data { id, peer, payload } => app.on_data(ctx, *id, *peer, payload),
                TcpEvent::Closed { id, peer, reason } => app.on_closed(ctx, *id, *peer, *reason),
                TcpEvent::ConnectFailed { dst } => app.on_connect_failed(ctx, *dst),
            });
        }
    }

    /// Runs a host's due retransmissions (reliable mode). `time` is the
    /// armed tick this event was scheduled for.
    fn tcp_tick(&mut self, net: &Net, id: LocalId, time: Nanos) {
        let i = id as usize;
        if self.tick_at[i] != Some(time) {
            return; // stale tick
        }
        self.tick_at[i] = None;
        self.tcps[i].set_now(self.now);
        let (events, replies) = self.tcps[i].poll();
        for r in replies {
            self.account_tx(i, &r);
            self.send_packet(net, r);
        }
        self.dispatch_tcp_events(net, id, events);
        self.arm_tcp_tick(id);
    }

    /// (Re-)arms the host's retransmission tick at its earliest TCP
    /// deadline. No-op for stacks without pending retransmissions — clean
    /// non-reliable runs never see a tick event.
    fn arm_tcp_tick(&mut self, id: LocalId) {
        let i = id as usize;
        let Some(deadline) = self.tcps[i].next_deadline() else {
            return;
        };
        let t = deadline.max(self.now);
        if let Some(cur) = self.tick_at[i] {
            if cur <= t {
                return; // an earlier (or equal) tick will re-arm us
            }
        }
        self.tick_at[i] = Some(t);
        self.push_event(t, EventKind::TcpTick(id));
    }

    /// Runs `f` with the host's app and a fresh [`Ctx`], then applies the
    /// collected outputs (packet sends, timers).
    fn with_app<F>(&mut self, net: &Net, id: LocalId, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let i = id as usize;
        let mut app = self.apps[i].take().expect("app present");
        self.tcps[i].set_now(self.now);
        let mut out = Outbox::default();
        {
            let mut ctx = Ctx {
                now: self.now,
                ip: self.ips[i],
                tcp: &mut self.tcps[i],
                cpu: &mut self.cpus[i],
                rng: &mut self.rng,
                out: &mut out,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apps[i] = Some(app);
        for p in out.packets {
            self.account_tx(i, &p);
            self.send_packet(net, p);
        }
        for (delay, token) in out.timers {
            self.push_event(self.now + delay, EventKind::Timer(id, token));
        }
        // The callback may have queued sends/connects that armed an RTO.
        self.arm_tcp_tick(id);
    }

    fn account_tx(&mut self, i: usize, p: &Packet) {
        self.counters[i].tx_packets += 1;
        self.counters[i].tx_bytes += p.wire_len() as u64;
    }
}

/// The discrete-event network simulator: a single region of the event
/// loop, run to each requested time.
///
/// Hosts live in the region's columns in registration order; the ip
/// lookup is a binary search over a sorted index instead of a `HashMap`
/// probe — deterministic, cache-friendly, and free of `RandomState`
/// per-process hashing.
pub struct Simulator {
    region: Region,
    net: Net,
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            region: Region::new(0, 1, config.seed),
            net: Net::new(ShardConfig {
                latency: config.latency,
                seed: config.seed,
                faults: config.faults,
                reliable: config.reliable,
                ..ShardConfig::default()
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.region.now
    }

    /// Total packets delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.region.delivered_packets
    }

    /// Registers a host running `app`. Its [`App::on_start`] fires at the
    /// current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already in use.
    pub fn add_host(&mut self, ip: Ipv4, app: Box<dyn App>, config: HostConfig) {
        self.region.add_host(&mut self.net, ip, app, config);
    }

    /// Installs a promiscuous tap with the default ring capacity
    /// ([`DEFAULT_TAP_CAPACITY`]) and returns its capture handle.
    pub fn add_tap(&mut self, filter: TapFilter) -> TapHandle {
        self.add_tap_with_capacity(filter, DEFAULT_TAP_CAPACITY)
    }

    /// Installs a promiscuous tap whose ring holds at most `capacity`
    /// captures; once full, the oldest capture is evicted per new one and
    /// [`TapHandle::dropped`] counts the evictions.
    pub fn add_tap_with_capacity(&mut self, filter: TapFilter, capacity: usize) -> TapHandle {
        self.region.add_tap(filter, capacity)
    }

    /// Installs (or replaces) the scheduled-fault timeline.
    ///
    /// A non-empty plan switches every host's TCP stack to reliable mode:
    /// partitions and flaps drop packets, which only a retransmitting
    /// transport survives. Install the plan before running the simulation
    /// — faults are applied at packet-send time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if !plan.is_none() {
            self.region.set_reliable();
        }
        self.net.plan = plan;
    }

    /// Fault-layer drop/delay counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.region.fault_stats
    }

    /// Runs events until virtual time reaches `t` (events at exactly `t`
    /// are processed).
    pub fn run_until(&mut self, t: Nanos) {
        self.region.run_window(&self.net, t.saturating_add(1));
        self.region.now = self.region.now.max(t);
    }

    /// Runs for `d` more virtual nanoseconds.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Traffic counters of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_counters(&self, ip: Ipv4) -> HostCounters {
        self.region.counters[self.net.locate(ip).1]
    }

    /// CPU meter of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_cpu(&self, ip: Ipv4) -> &CpuMeter {
        &self.region.cpus[self.net.locate(ip).1]
    }

    /// Transport drop statistics of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_tcp_drops(&self, ip: Ipv4) -> TcpDropStats {
        self.region.tcps[self.net.locate(ip).1].drops
    }

    /// Downcasts a host's app for inspection.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn app<T: App>(&self, ip: Ipv4) -> Option<&T> {
        self.region.apps[self.net.locate(ip).1]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutably downcasts a host's app.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn app_mut<T: App>(&mut self, ip: Ipv4) -> Option<&mut T> {
        self.region.apps[self.net.locate(ip).1]
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MILLIS, SECS};

    /// Echo server: accepts connections and echoes data back.
    #[derive(Default)]
    struct EchoServer {
        port: u16,
        received: Vec<Vec<u8>>,
        conns: usize,
    }

    impl App for EchoServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(self.port);
        }
        fn on_connected(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, inbound: bool) {
            if inbound {
                self.conns += 1;
            }
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
            self.received.push(data.to_vec());
            ctx.send(conn, data);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Client that connects at start and sends a greeting.
    #[derive(Default)]
    struct Client {
        dst: SockAddr,
        echoed: Vec<Vec<u8>>,
        connected: bool,
        failed: bool,
    }

    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.dst);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, _inb: bool) {
            self.connected = true;
            ctx.send(conn, b"hello over tcp");
        }
        fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, data: &[u8]) {
            self.echoed.push(data.to_vec());
        }
        fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _dst: SockAddr) {
            self.failed = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const SRV: Ipv4 = [10, 0, 0, 1];
    const CLI: Ipv4 = [10, 0, 0, 2];

    fn build_pair() -> Simulator {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            SRV,
            Box::new(EchoServer {
                port: 8333,
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new(SRV, 8333),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim
    }

    #[test]
    fn end_to_end_echo() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.connected);
        assert_eq!(client.echoed, vec![b"hello over tcp".to_vec()]);
        let server: &EchoServer = sim.app(SRV).unwrap();
        assert_eq!(server.conns, 1);
        assert_eq!(server.port, 8333);
    }

    #[test]
    fn latency_orders_events() {
        let mut sim = build_pair();
        // SYN@L, SYN|ACK@2L (client connects + sends), data@3L, echo@4L.
        sim.run_for(3 * DEFAULT_LATENCY + DEFAULT_LATENCY / 2);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.connected);
        assert!(client.echoed.is_empty(), "echo should still be in flight");
        sim.run_for(DEFAULT_LATENCY);
        let client: &Client = sim.app(CLI).unwrap();
        assert_eq!(client.echoed.len(), 1);
    }

    #[test]
    fn connect_to_missing_host_is_dropped() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new([9, 9, 9, 9], 1),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(!client.connected);
        assert!(!client.failed, "no RST from a black hole");
    }

    #[test]
    fn connect_to_closed_port_reports_failure() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(EchoServer::default()), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new(SRV, 4444),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.failed);
    }

    #[test]
    fn tap_sniffs_pair_traffic() {
        let mut sim = build_pair();
        let tap = sim.add_tap(TapFilter::Pair(SRV, CLI));
        sim.run_for(SECS);
        let caps = tap.drain();
        // SYN, SYN|ACK, ACK, data, echo at minimum.
        assert!(caps.len() >= 5, "captured {}", caps.len());
        assert!(caps
            .iter()
            .all(|s| TapFilter::Pair(SRV, CLI).matches(&s.packet)));
        // Times are non-decreasing.
        assert!(caps.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn tap_host_filter() {
        let mut sim = build_pair();
        let tap = sim.add_tap(TapFilter::Host(SRV));
        sim.run_for(SECS);
        assert!(!tap.is_empty());
        for s in tap.snapshot() {
            assert!(s.packet.src.ip == SRV || s.packet.dst.ip == SRV);
        }
    }

    #[test]
    fn tap_ring_caps_memory_and_counts_drops() {
        let mut sim = build_pair();
        let tap = sim.add_tap_with_capacity(TapFilter::All, 3);
        let unbounded = sim.add_tap(TapFilter::All);
        sim.run_for(SECS);
        let total = unbounded.len() as u64;
        assert!(total > 3, "need more traffic than the ring holds");
        assert_eq!(tap.len(), 3, "ring never exceeds its capacity");
        assert_eq!(tap.dropped(), total - 3, "every eviction is counted");
        assert_eq!(unbounded.dropped(), 0);
        // The ring keeps the *newest* captures.
        let all = unbounded.snapshot();
        assert_eq!(tap.snapshot(), all[all.len() - 3..]);
        assert_eq!(tap.capacity(), 3);
    }

    #[test]
    fn counters_track_traffic() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let s = sim.host_counters(SRV);
        let c = sim.host_counters(CLI);
        assert!(s.rx_packets >= 2);
        assert!(s.tx_packets >= 2);
        assert!(c.rx_bytes > 0);
        assert!(c.tx_bytes > 0);
    }

    #[test]
    fn cpu_charged_per_packet() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let busy = sim.host_cpu(SRV).cum_busy();
        let rx = sim.host_counters(SRV).rx_packets;
        assert!(busy >= rx * DEFAULT_KERNEL_COST);
    }

    /// Pinger sends ICMP echos on a timer.
    struct Pinger {
        dst: Ipv4,
        replies: u32,
    }

    impl App for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(MILLIS, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_icmp(self.dst, 7, self.replies as u16, 56);
        }
        fn on_icmp(&mut self, ctx: &mut Ctx<'_>, _from: Ipv4, echo: &IcmpEcho) {
            if !echo.request {
                self.replies += 1;
                if self.replies < 3 {
                    ctx.set_timer(MILLIS, 1);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn icmp_echo_roundtrip_and_kernel_cost() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(EchoServer::default()), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Pinger {
                dst: SRV,
                replies: 0,
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let p: &Pinger = sim.app(CLI).unwrap();
        assert_eq!(p.replies, 3);
        // The echo target paid kernel + icmp cost per request, and the app
        // layer was *not* involved in replying (EchoServer knows nothing of
        // ICMP).
        let busy = sim.host_cpu(SRV).cum_busy();
        assert!(busy >= 3 * (DEFAULT_KERNEL_COST + DEFAULT_ICMP_COST));
    }

    #[test]
    fn icmp_reply_can_be_disabled() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            SRV,
            Box::new(EchoServer::default()),
            HostConfig {
                icmp_reply: false,
                ..HostConfig::default()
            },
        );
        sim.add_host(
            CLI,
            Box::new(Pinger {
                dst: SRV,
                replies: 0,
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let p: &Pinger = sim.app(CLI).unwrap();
        assert_eq!(p.replies, 0);
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.run_until(5 * SECS);
        assert_eq!(sim.now(), 5 * SECS);
    }
}
