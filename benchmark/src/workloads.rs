//! The four workloads: their sizes, the round loop that measures them,
//! the output checks, and the metric lists they report.
//!
//! A run is a warm-up round followed by timed rounds until `--seconds`
//! of wall time have passed. Every round rebuilds the workload from the
//! same seed (set-up) and executes the same fixed-size batch job (the
//! measured phase), so every round must reproduce the same digest.
//! End-to-end values are medians over the timed rounds of times rescaled
//! to reference speed ([`crate::meter`]).

use crate::clock;
use crate::detect;
use crate::layers::{self, StrikeReplay, WireReplay};
use crate::meter::{Cost, Meter, Threads};
use crate::report::{self, median, percentile, Checks, Metrics, Stamp};
use crate::sim::{self, Bed, BedSpec, Layout, SwarmSpec};
use crate::trace::{self, Callback, Capture, Class, Recording};
use btc_attack::flood::FloodConfig;
use btc_attack::payload::FloodPayload;
use btc_detect::serve::{run_service, verdict_agreement, verdict_digest};
use btc_netsim::packet::Ipv4;
use btc_netsim::rng::SimRng;
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_node::metrics::{msg_type_name, MsgRecord, ReconnectRecord, Telemetry, TierChangeRecord};
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use std::collections::BTreeSet;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "swarm-bmdos",
    "victim-flood",
    "strike-churn",
    "detect-replay",
];

/// Command-line request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds of timed rounds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// What a run produced.
pub struct Outcome {
    /// Operation counts and output checks.
    pub checks: Checks,
    /// The metrics of the result line (end-to-end, or per-layer when
    /// traced).
    pub metrics: Metrics,
    /// Further named numbers printed for reading, not part of the result.
    pub extra: Metrics,
    /// Provenance.
    pub stamp: Stamp,
    /// Spans and histograms of the traced run, as CSV.
    pub spans_csv: Option<String>,
    /// The run's output digest (equal across rounds and modes).
    pub digest: u64,
    /// Per-round samples behind the medians: `(name, values)`.
    pub samples: Vec<(String, Vec<f64>)>,
}

/// Byte budget of the target's inbound capture for the wire replay.
const CAPTURE_BYTES: usize = 64 << 20;
/// Sim time the muted feeders and attackers get for in-flight traffic.
const DRAIN: Nanos = SECS;

/// Runs one request.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(req: &Request) -> Result<Outcome, String> {
    match req.workload.as_str() {
        "swarm-bmdos" => Ok(swarm(req)),
        "victim-flood" => Ok(bed(req, &victim_flood(req.seed))),
        "strike-churn" => Ok(bed(req, &strike_churn(req.seed))),
        "detect-replay" => Ok(detect_replay(req)),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Timed rounds a run makes at least, however long they take: a median
/// of fewer moves with single slow rounds.
const MIN_ROUNDS: usize = 5;

/// Runs `round` once to warm up, then until `seconds` of wall time have
/// passed (at least [`MIN_ROUNDS`] times), all on one meter. Returns the
/// warm-up and timed results and the meter.
fn rounds<T>(
    seconds: f64,
    parallel: bool,
    mut round: impl FnMut(&mut Meter) -> T,
) -> (T, Vec<T>, Meter) {
    let mut meter = Meter::new(parallel);
    let warm = round(&mut meter);
    let t0 = clock::now();
    let mut timed = Vec::new();
    while timed.len() < MIN_ROUNDS || clock::secs_since(t0) < seconds {
        timed.push(round(&mut meter));
    }
    (warm, timed, meter)
}

/// Wall seconds and result of `f` (for work outside the measured phase).
fn wall<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = clock::now();
    let out = f();
    (clock::secs_since(t0), out)
}

/// One timed round's end-to-end sample: set-up, measured phase, and the
/// work behind each rate with the time it took.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    setup: Cost,
    run: Cost,
    primary: (f64, Cost),
    secondary: (f64, Cost),
    rss_mb: f64,
}

/// Names and units of the end-to-end metrics, in report order.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    end_to_end(&[])
        .0
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// Median over `samples` of `f`.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// The end-to-end metric list: medians over the timed rounds of the
/// rescaled times and of the rates over rescaled time, and the median of
/// the per-round memory peaks.
fn end_to_end(samples: &[Sample]) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", med(samples, |s| s.setup.scaled_s), "s");
    m.put("run_s", med(samples, |s| s.run.scaled_s), "s");
    m.put(
        "primary_per_s",
        med(samples, |s| s.primary.0 / s.primary.1.scaled_s),
        "1/s",
    );
    m.put(
        "secondary_per_s",
        med(samples, |s| s.secondary.0 / s.secondary.1.scaled_s),
        "1/s",
    );
    m.put("peak_rss_mb", med(samples, |s| s.rss_mb), "MiB");
    m
}

/// Raw wall-clock medians and the median reference-kernel times, printed
/// beside the rescaled metrics; and every per-round sample.
fn wall_record(samples: &[Sample], meter: &Meter, extra: &mut Metrics) -> Vec<(String, Vec<f64>)> {
    extra.put("wall.setup_s", med(samples, |s| s.setup.wall_s), "s");
    extra.put("wall.run_s", med(samples, |s| s.run.wall_s), "s");
    extra.put(
        "wall.primary_per_s",
        med(samples, |s| s.primary.0 / s.primary.1.wall_s),
        "1/s",
    );
    extra.put(
        "wall.secondary_per_s",
        med(samples, |s| s.secondary.0 / s.secondary.1.wall_s),
        "1/s",
    );
    let speeds =
        |f: fn(&crate::meter::Speed) -> f64| meter.speeds.iter().map(f).collect::<Vec<f64>>();
    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let mut lines = vec![
        ("setup_s".to_owned(), col(|s| s.setup.scaled_s)),
        ("run_s".to_owned(), col(|s| s.run.scaled_s)),
        ("wall.setup_s".to_owned(), col(|s| s.setup.wall_s)),
        ("wall.run_s".to_owned(), col(|s| s.run.wall_s)),
        ("peak_rss_mb".to_owned(), col(|s| s.rss_mb)),
        ("ref_serial_s".to_owned(), speeds(|s| s.serial_s)),
    ];
    extra.put("wall.ref_serial_s", median(&speeds(|s| s.serial_s)), "s");
    if meter.parallel() {
        extra.put(
            "wall.ref_parallel_s",
            median(&speeds(|s| s.parallel_s)),
            "s",
        );
        lines.push(("ref_parallel_s".to_owned(), speeds(|s| s.parallel_s)));
    }
    lines
}

/// Accepted messages from the attackers that their flood accounts for:
/// everything but `VERACK` and each connection's first `VERSION`.
fn attack_accepted(tel: &Telemetry, attackers: &[Ipv4]) -> u64 {
    let mut first_version = BTreeSet::new();
    tel.messages
        .iter()
        .filter(|m| attackers.contains(&m.from.ip))
        .filter(|m| match msg_type_name(m.msg_type) {
            "verack" => false,
            "version" => !first_version.insert(m.from),
            _ => true,
        })
        .count() as u64
}

/// Messages accepted from `ip` after its handshake.
fn accepted_after_handshake(tel: &Telemetry, ip: Ipv4) -> u64 {
    tel.messages
        .iter()
        .filter(|m| m.from.ip == ip && !matches!(msg_type_name(m.msg_type), "version" | "verack"))
        .count() as u64
}

/// Bytes the target's telemetry log holds.
fn telemetry_bytes(tel: &Telemetry) -> f64 {
    (tel.messages.len() * std::mem::size_of::<MsgRecord>()
        + tel.reconnects.len() * std::mem::size_of::<ReconnectRecord>()
        + tel.tier_changes.len() * std::mem::size_of::<TierChangeRecord>()) as f64
}

/// Everything the per-layer list needs from one simulator workload.
struct SimLayers<'a> {
    rec: &'a Recording,
    untraced_run_s: f64,
    delivered: u64,
    msgs_accepted: u64,
    target: &'a Node,
    tcp: btc_netsim::tcp::TcpDropStats,
    tap_dropped: u64,
    cpu_per_wall: f64,
    wire: WireReplay,
    strikes: StrikeReplay,
    attack_msgs: u64,
}

fn sim_layer_metrics(l: &SimLayers<'_>) -> Metrics {
    let rec = l.rec;
    let secs = |ns: u64| ns as f64 / 1e9;
    let callbacks_ns: u64 = Class::ALL.iter().map(|c| rec.class_ns(*c)).sum();
    let run_ns = rec.top_ns;
    let netsim_ns = run_ns.saturating_sub(callbacks_ns);
    let node_ns = rec.class_ns(Class::Node);
    let tel = &l.target.telemetry;
    let mut samples = rec.node_data_ns.clone();
    samples.sort_unstable();
    LayerValues {
        netsim_self_s: secs(netsim_ns),
        netsim_ns_per_pkt: netsim_ns as f64 / l.delivered.max(1) as f64,
        netsim_delivered: l.delivered as f64,
        netsim_dropped: sim::tcp_dropped(&l.tcp) as f64,
        netsim_tcp_retransmits: l.tcp.retransmits as f64,
        netsim_callbacks: rec.callbacks() as f64,
        netsim_tap_dropped: l.tap_dropped as f64,
        par_cpu_per_wall: l.cpu_per_wall,
        node_self_s: secs(node_ns),
        node_ns_per_msg: node_ns as f64 / l.msgs_accepted.max(1) as f64,
        node_callback_s: Callback::ALL.map(|cb| secs(rec.callback_ns(Class::Node, cb))),
        node_on_data_ns_p50: percentile(&samples, 50.0) as f64,
        node_on_data_ns_p99: percentile(&samples, 99.0) as f64,
        node_on_data_samples: samples.len() as f64,
        node_msgs_accepted: l.msgs_accepted as f64,
        node_bad_checksum_frames: tel.bad_checksum_frames as f64,
        node_undecodable_frames: tel.undecodable_frames as f64,
        node_bans: tel.bans as f64,
        node_graylists: tel.graylists as f64,
        node_refused_banned: tel.refused_banned as f64,
        node_graylist_dropped: tel.graylist_dropped as f64,
        node_telemetry_bytes: telemetry_bytes(tel),
        node_tracked_peers: (l.target.tracker.tracked_peers() + l.target.reputation.tracked_peers())
            as f64,
        node_banman_history: l.target.banman.history().len() as f64,
        wire: l.wire,
        strikes: l.strikes,
        attack_self_s: secs(rec.class_ns(Class::Attack)),
        attack_msgs_sent: l.attack_msgs as f64,
        core_feeder_self_s: secs(rec.class_ns(Class::Feeder)),
        core_swarm_self_s: secs(rec.class_ns(Class::Swarm)),
        trace_run_s: secs(run_ns),
        trace_untraced_run_s: l.untraced_run_s,
        trace_spans: rec.spans.len() as f64,
        ..LayerValues::default()
    }
    .metrics()
}

/// Every per-layer value; unset ones stay 0 (a layer a workload does not
/// exercise).
#[derive(Default)]
struct LayerValues {
    netsim_self_s: f64,
    netsim_ns_per_pkt: f64,
    netsim_delivered: f64,
    netsim_dropped: f64,
    netsim_tcp_retransmits: f64,
    netsim_callbacks: f64,
    netsim_tap_dropped: f64,
    par_cpu_per_wall: f64,
    node_self_s: f64,
    node_ns_per_msg: f64,
    node_callback_s: [f64; Callback::ALL.len()],
    node_on_data_ns_p50: f64,
    node_on_data_ns_p99: f64,
    node_on_data_samples: f64,
    node_msgs_accepted: f64,
    node_bad_checksum_frames: f64,
    node_undecodable_frames: f64,
    node_bans: f64,
    node_graylists: f64,
    node_refused_banned: f64,
    node_graylist_dropped: f64,
    node_telemetry_bytes: f64,
    node_tracked_peers: f64,
    node_banman_history: f64,
    wire: WireReplay,
    strikes: StrikeReplay,
    attack_self_s: f64,
    attack_msgs_sent: f64,
    core_feeder_self_s: f64,
    core_swarm_self_s: f64,
    detect_streaming_ns_per_event: f64,
    detect_decision_ns_p50: f64,
    detect_decision_ns_p99: f64,
    detect_decisions: f64,
    detect_batch_s: f64,
    detect_verdicts: f64,
    detect_anomalous_share: f64,
    detect_agree_ratio: f64,
    detect_service_s: f64,
    detect_service_sharded_s: f64,
    trace_run_s: f64,
    trace_untraced_run_s: f64,
    trace_spans: f64,
}

impl LayerValues {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("netsim.self_s", self.netsim_self_s, "s");
        m.put("netsim.ns_per_pkt", self.netsim_ns_per_pkt, "ns");
        m.put("netsim.delivered", self.netsim_delivered, "count");
        m.put("netsim.dropped", self.netsim_dropped, "count");
        m.put(
            "netsim.tcp_retransmits",
            self.netsim_tcp_retransmits,
            "count",
        );
        m.put("netsim.callbacks", self.netsim_callbacks, "count");
        m.put("netsim.tap_dropped", self.netsim_tap_dropped, "count");
        m.put("par.cpu_per_wall", self.par_cpu_per_wall, "ratio");
        m.put("node.self_s", self.node_self_s, "s");
        m.put("node.ns_per_msg", self.node_ns_per_msg, "ns");
        for cb in Callback::ALL {
            let name = format!("node.{}_s", cb.label());
            m.put(&name, self.node_callback_s[cb as usize], "s");
        }
        m.put("node.on_data_ns_p50", self.node_on_data_ns_p50, "ns");
        m.put("node.on_data_ns_p99", self.node_on_data_ns_p99, "ns");
        m.put("node.on_data_samples", self.node_on_data_samples, "count");
        m.put("node.msgs_accepted", self.node_msgs_accepted, "count");
        m.put(
            "node.bad_checksum_frames",
            self.node_bad_checksum_frames,
            "count",
        );
        m.put(
            "node.undecodable_frames",
            self.node_undecodable_frames,
            "count",
        );
        m.put("node.bans", self.node_bans, "count");
        m.put("node.graylists", self.node_graylists, "count");
        m.put("node.refused_banned", self.node_refused_banned, "count");
        m.put("node.graylist_dropped", self.node_graylist_dropped, "count");
        m.put("node.telemetry_bytes", self.node_telemetry_bytes, "bytes");
        m.put("node.tracked_peers", self.node_tracked_peers, "count");
        m.put("node.banman_history", self.node_banman_history, "count");
        m.put("wire.frames", self.wire.frames as f64, "count");
        m.put("wire.bytes", self.wire.bytes as f64, "bytes");
        m.put("wire.decode_ns_per_frame", self.wire.ns_per_frame, "ns");
        m.put(
            "wire.memmove_bytes",
            self.wire.memmove_bytes as f64,
            "bytes",
        );
        m.put("banscore.strike_ns", self.strikes.banscore_strike_ns, "ns");
        m.put("banscore.strikes", self.strikes.strikes as f64, "count");
        m.put(
            "reputation.strike_ns",
            self.strikes.reputation_strike_ns,
            "ns",
        );
        m.put(
            "reputation.on_message_ns",
            self.strikes.reputation_message_ns,
            "ns",
        );
        m.put("attack.self_s", self.attack_self_s, "s");
        m.put("attack.msgs_sent", self.attack_msgs_sent, "count");
        m.put("attack.strikes", self.strikes.strikes as f64, "count");
        m.put("core.feeder_self_s", self.core_feeder_self_s, "s");
        m.put("core.swarm_self_s", self.core_swarm_self_s, "s");
        m.put(
            "detect.streaming_ns_per_event",
            self.detect_streaming_ns_per_event,
            "ns",
        );
        m.put("detect.decision_ns_p50", self.detect_decision_ns_p50, "ns");
        m.put("detect.decision_ns_p99", self.detect_decision_ns_p99, "ns");
        m.put("detect.decisions", self.detect_decisions, "count");
        m.put("detect.batch_s", self.detect_batch_s, "s");
        m.put("detect.verdicts", self.detect_verdicts, "count");
        m.put(
            "detect.anomalous_share",
            self.detect_anomalous_share,
            "ratio",
        );
        m.put("detect.agree_ratio", self.detect_agree_ratio, "ratio");
        m.put("detect.service_s", self.detect_service_s, "s");
        m.put(
            "detect.service_sharded_s",
            self.detect_service_sharded_s,
            "s",
        );
        m.put("trace.run_s", self.trace_run_s, "s");
        m.put("trace.untraced_run_s", self.trace_untraced_run_s, "s");
        m.put(
            "trace.overhead_s",
            self.trace_run_s - self.trace_untraced_run_s,
            "s",
        );
        m.put("trace.spans", self.trace_spans, "count");
        m
    }
}

/// Names of every per-layer metric, in report order.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    LayerValues::default()
        .metrics()
        .0
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

fn spans_csv(rec: &Recording) -> String {
    let mut out = String::new();
    rec.write_csv(&mut out);
    out
}

// ---------------------------------------------------------- swarm-bmdos

/// Background hosts of `swarm-bmdos` (the swarm scenario's top cell).
const SWARM_HOSTS: usize = 100_000;
/// Measured sim time of one swarm round.
const SWARM_DUR: Nanos = 5 * SECS;
/// `run_for` slices per round.
const SWARM_SLICES: u64 = 50;
/// Metered chunks the slices are grouped into.
const SWARM_CHUNKS: u64 = 5;

fn swarm_spec(seed: u64, workers: usize, traced: bool) -> SwarmSpec {
    let mut rng = SimRng::new(seed ^ 0x5AA8);
    SwarmSpec {
        swarm_hosts: SWARM_HOSTS,
        regions: 8,
        workers,
        dur: SWARM_DUR,
        innocents: 12,
        seed,
        swarm_offset: rng.gen_range(1 << 16) as usize,
        sybil_port: 20_000 + rng.gen_range(20_000) as u16,
        // Past this point no echo is sent, so every request sent is
        // answered (cross-region round trip 60 ms) before the run ends.
        ping_stop: Some(SWARM_DUR - 500 * MILLIS),
        traced,
    }
}

struct SwarmRound {
    rec: Option<Recording>,
    rss_mb: f64,
    setup: Cost,
    run: Cost,
    outcome: sim::SwarmOutcome,
    attack_accepted: u64,
}

fn swarm_round(
    spec: SwarmSpec,
    checks: &mut Checks,
    capture: bool,
    meter: &mut Meter,
    mut inspect: impl FnMut(&mut sim::Swarm),
) -> SwarmRound {
    report::reset_peak_rss();
    let (setup, mut sw) = meter.chunk(Threads::Serial, || sim::build_swarm(spec));
    if capture {
        sw.sim
            .app_mut::<trace::Timed<Node>>(banscore::testbed::addrs::TARGET)
            .expect("target")
            .capture = Some(Capture {
            cap: CAPTURE_BYTES,
            ..Capture::default()
        });
    }
    let threads = if spec.workers > 1 {
        Threads::Parallel
    } else {
        Threads::Serial
    };
    if spec.traced {
        trace::start();
    }
    let mut run = Cost::default();
    for _ in 0..SWARM_CHUNKS {
        let (cost, ()) = meter.chunk(threads, || {
            sw.run(SWARM_DUR / SWARM_SLICES, SWARM_SLICES / SWARM_CHUNKS)
        });
        run += cost;
    }
    let rec = if spec.traced { trace::finish() } else { None };
    let rss_mb = report::peak_rss_mb();
    let outcome = sw.outcome();
    let attack_accepted = attack_accepted(
        &sw.target().telemetry,
        &[banscore::testbed::addrs::ATTACKER],
    );
    checks.attempted += outcome.echo_sent;
    checks.failed += outcome.echo_sent.saturating_sub(outcome.echo_replies);
    checks.check(outcome.echo_replies <= outcome.echo_sent, || {
        format!(
            "swarm: {} echo replies for {} requests",
            outcome.echo_replies, outcome.echo_sent
        )
    });
    checks.check(attack_accepted <= outcome.flood_msgs, || {
        format!(
            "swarm: target accepted {attack_accepted} flood messages of {} sent",
            outcome.flood_msgs
        )
    });
    inspect(&mut sw);
    SwarmRound {
        rec,
        rss_mb,
        setup,
        run,
        outcome,
        attack_accepted,
    }
}

fn swarm(req: &Request) -> Outcome {
    let nproc = report::nproc();
    let mut checks = Checks::default();
    let mut extra = Metrics::default();
    let mut stamp = Stamp {
        workload: req.workload.clone(),
        seed: req.seed,
        trace: req.trace,
        nproc,
        workers: nproc,
        shards: Vec::new(),
        rounds: 0,
    };
    if !req.trace {
        let (warm, timed, meter) = rounds(req.seconds, true, |meter| {
            swarm_round(
                swarm_spec(req.seed, nproc, false),
                &mut checks,
                false,
                meter,
                |_| {},
            )
        });
        for r in &timed {
            checks.check(r.outcome == warm.outcome, || {
                format!(
                    "swarm: round digest {:016x} != {:016x}",
                    r.outcome.digest, warm.outcome.digest
                )
            });
        }
        stamp.rounds = timed.len();
        let samples: Vec<Sample> = timed
            .iter()
            .map(|r| Sample {
                setup: r.setup,
                run: r.run,
                primary: (r.outcome.delivered as f64, r.run),
                secondary: (r.outcome.target_msgs as f64, r.run),
                rss_mb: r.rss_mb,
            })
            .collect();
        let metrics = end_to_end(&samples);
        let samples = wall_record(&samples, &meter, &mut extra);
        extra.put(
            "sim_pkts_per_s",
            metrics.get("primary_per_s").unwrap_or(0.0),
            "1/s",
        );
        extra.put(
            "victim_msgs_per_s",
            metrics.get("secondary_per_s").unwrap_or(0.0),
            "1/s",
        );
        extra.put("flood_accepted", warm.attack_accepted as f64, "count");
        return Outcome {
            checks,
            metrics,
            extra,
            stamp,
            spans_csv: None,
            digest: warm.outcome.digest,
            samples,
        };
    }

    // Traced: workers = nproc untraced (warm-up, CPU use, the target's
    // inbound capture and the determinism reference), workers = 1
    // untraced (the overhead baseline), workers = 1 traced.
    let mut capture = None;
    let mut meter = Meter::disabled();
    let parallel = swarm_round(
        swarm_spec(req.seed, nproc, false),
        &mut checks,
        true,
        &mut meter,
        |sw| {
            capture = sw
                .sim
                .app_mut::<trace::Timed<Node>>(banscore::testbed::addrs::TARGET)
                .expect("target")
                .capture
                .take();
        },
    );
    let serial = swarm_round(
        swarm_spec(req.seed, 1, false),
        &mut checks,
        false,
        &mut meter,
        |_| {},
    );
    let mut tcp = Default::default();
    let mut node: Option<Node> = None;
    let traced = swarm_round(
        swarm_spec(req.seed, 1, true),
        &mut checks,
        false,
        &mut meter,
        |sw| {
            tcp = sw.core_tcp();
            let target = sw
                .sim
                .app_mut::<trace::Timed<Node>>(banscore::testbed::addrs::TARGET)
                .expect("target");
            node = Some(std::mem::replace(
                &mut target.inner,
                Node::new(NodeConfig::default()),
            ));
        },
    );
    let rec = traced.rec.as_ref().expect("recording");
    for (what, r) in [("workers=1", &serial), ("traced", &traced)] {
        checks.check(r.outcome == parallel.outcome, || {
            format!(
                "swarm: {what} digest {:016x} != workers={nproc} digest {:016x}",
                r.outcome.digest, parallel.outcome.digest
            )
        });
    }
    let node = node.expect("target node");
    let strikes =
        layers::strike_sequence(&node.telemetry, &[banscore::testbed::addrs::ATTACKER], &[]);
    let l = SimLayers {
        rec,
        untraced_run_s: serial.run.wall_s,
        delivered: traced.outcome.delivered,
        msgs_accepted: traced.outcome.target_msgs,
        target: &node,
        tcp,
        tap_dropped: 0,
        cpu_per_wall: parallel.run.cpu_s / parallel.run.wall_s,
        wire: capture
            .as_ref()
            .map(layers::replay_wire)
            .unwrap_or_default(),
        strikes: layers::replay_strikes(&node.telemetry, &strikes),
        attack_msgs: traced.outcome.flood_msgs,
    };
    let metrics = sim_layer_metrics(&l);
    stamp.workers = 1;
    stamp.rounds = 1;
    Outcome {
        checks,
        metrics,
        extra,
        stamp,
        spans_csv: Some(spans_csv(rec)),
        digest: parallel.outcome.digest,
        samples: Vec::new(),
    }
}

// ------------------------------------------------ victim-flood, strike-churn

/// A serial-testbed workload.
pub struct BedWorkload {
    /// Testbed (its `traced` flag is set per round).
    pub spec: BedSpec,
    /// Flooders, each on its own attacker address.
    pub flooders: Vec<FloodConfig>,
    /// Post-connection defamer poll interval, when there is a defamer.
    pub defamer_poll: Option<Nanos>,
    /// Sim time run during set-up, before the measured phase: the
    /// handshakes and the start of every flood.
    pub settle: Nanos,
    /// Measured sim time.
    pub dur: Nanos,
    /// `run_for` slices.
    pub slices: u64,
    /// Metered chunks the slices are grouped into.
    pub chunks: u64,
}

/// `victim-flood`: a stock 0.20.0 target, three feeders, and 32 Sybil
/// connections sending the Figure-10 mix of `PING`, single-entry `INV`
/// and fresh valid `TX` (no ban-score rule fires).
pub fn victim_flood(seed: u64) -> BedWorkload {
    let layout = Layout::from_seed(seed);
    let flood = |payload, connections| FloodConfig {
        payload,
        connections,
        ..FloodConfig::default()
    };
    BedWorkload {
        spec: BedSpec {
            node: NodeConfig::default(),
            feeders: 3,
            innocents: 0,
            target_outbound: 0,
            seed,
            layout,
            traced: false,
        },
        flooders: vec![
            flood(FloodPayload::Ping, 11),
            flood(FloodPayload::BenignInv, 11),
            flood(FloodPayload::BenignTx, 10),
        ],
        defamer_poll: None,
        settle: SECS,
        dur: 2 * SECS,
        slices: 20,
        chunks: 2,
    }
}

/// `strike-churn`: a trust-tier target with feeders and 12 innocents (8
/// outbound), serial-Sybil flooders sending rule-bearing payloads with
/// reconnect-on-ban, and a post-connection defamer striking the
/// innocents off a target tap.
pub fn strike_churn(seed: u64) -> BedWorkload {
    let layout = Layout::from_seed(seed);
    let flood = |payload, connections, extra_interval| FloodConfig {
        payload,
        connections,
        extra_interval,
        reconnect_on_ban: true,
        ..FloodConfig::default()
    };
    BedWorkload {
        spec: BedSpec {
            node: NodeConfig {
                peer_policy: PeerPolicy::TrustTiers,
                ..NodeConfig::default()
            },
            feeders: 3,
            innocents: 12,
            target_outbound: 8,
            seed,
            layout,
            traced: false,
        },
        flooders: vec![
            flood(
                sim::cached_frame(&FloodPayload::OversizeAddr),
                8,
                20 * MILLIS,
            ),
            flood(sim::cached_frame(&FloodPayload::DuplicateVersion), 8, 0),
            // A fresh block per message: a re-sent block is "cached as
            // invalid", which does not strike an inbound identifier.
            flood(FloodPayload::InvalidPowBlock, 8, 0),
        ],
        defamer_poll: Some(100 * MILLIS),
        settle: SECS,
        dur: 20 * SECS,
        slices: 20,
        chunks: 2,
    }
}

fn build_bed(w: &BedWorkload, traced: bool) -> Bed {
    let spec = BedSpec {
        traced,
        ..w.spec.clone()
    };
    let mut bed = sim::build_bed(&spec);
    for f in &w.flooders {
        bed.add_flooder(&spec.layout, f.clone());
    }
    if let Some(poll) = w.defamer_poll {
        bed.add_defamer(&spec.layout, poll);
    }
    bed
}

struct BedRound {
    rec: Option<Recording>,
    rss_mb: f64,
    setup: Cost,
    run: Cost,
    /// Messages the target accepted during the measured phase.
    accepted: u64,
    /// Packets delivered during the measured phase.
    delivered: u64,
    digest: u64,
}

/// One round: build, measured phase, drain, checks. `inspect` sees the
/// drained testbed.
fn bed_round(
    w: &BedWorkload,
    traced: bool,
    capture: bool,
    checks: &mut Checks,
    meter: &mut Meter,
    inspect: impl FnOnce(&mut Bed),
) -> BedRound {
    report::reset_peak_rss();
    let (setup, mut bed) = meter.chunk(Threads::Serial, || {
        let mut bed = build_bed(w, traced);
        if capture {
            bed.target_wrapper().capture = Some(Capture {
                cap: CAPTURE_BYTES,
                ..Capture::default()
            });
        }
        bed.sim.run_for(w.settle);
        bed
    });
    let accepted0 = bed.target().telemetry.messages.len() as u64;
    let delivered0 = bed.sim.delivered_packets();
    if traced {
        trace::start();
    }
    let mut run = Cost::default();
    for _ in 0..w.chunks {
        let (cost, ()) = meter.chunk(Threads::Serial, || {
            bed.run(w.dur / w.slices, w.slices / w.chunks)
        });
        run += cost;
    }
    // The recording ends with the measured phase; the drain is not part
    // of it.
    let rec = if traced { trace::finish() } else { None };
    let rss_mb = report::peak_rss_mb();
    let accepted = bed.target().telemetry.messages.len() as u64 - accepted0;
    let delivered = bed.sim.delivered_packets() - delivered0;
    bed.drain(DRAIN);
    let tel = &bed.target().telemetry;
    for (ip, sent) in bed.feeder_ips.iter().zip(bed.feeder_sent()) {
        let got = accepted_after_handshake(tel, *ip);
        checks.attempted += sent;
        checks.failed += sent.saturating_sub(got);
        checks.check(got <= sent, || {
            format!("feeder {ip:?}: {got} accepted of {sent} sent")
        });
    }
    let (flood_sent, _) = bed.attack_sent();
    let flood_got = attack_accepted(tel, &bed.attacker_ips);
    checks.check(flood_got <= flood_sent, || {
        format!("attack: target accepted {flood_got} flood messages of {flood_sent} sent")
    });
    let digest = bed.digest();
    inspect(&mut bed);
    BedRound {
        rec,
        rss_mb,
        setup,
        run,
        accepted,
        delivered,
        digest,
    }
}

fn bed(req: &Request, w: &BedWorkload) -> Outcome {
    let mut checks = Checks::default();
    let mut extra = Metrics::default();
    let mut stamp = Stamp {
        workload: req.workload.clone(),
        seed: req.seed,
        trace: req.trace,
        nproc: report::nproc(),
        workers: 1,
        shards: Vec::new(),
        rounds: 0,
    };
    if !req.trace {
        let (warm, timed, meter) = rounds(req.seconds, false, |meter| {
            bed_round(w, false, false, &mut checks, meter, |_| {})
        });
        for r in &timed {
            checks.check(r.digest == warm.digest, || {
                format!("round digest {:016x} != {:016x}", r.digest, warm.digest)
            });
        }
        stamp.rounds = timed.len();
        let samples: Vec<Sample> = timed
            .iter()
            .map(|r| Sample {
                setup: r.setup,
                run: r.run,
                primary: (r.accepted as f64, r.run),
                secondary: (r.delivered as f64, r.run),
                rss_mb: r.rss_mb,
            })
            .collect();
        let metrics = end_to_end(&samples);
        let samples = wall_record(&samples, &meter, &mut extra);
        extra.put(
            "victim_msgs_per_s",
            metrics.get("primary_per_s").unwrap_or(0.0),
            "1/s",
        );
        extra.put(
            "sim_pkts_per_s",
            metrics.get("secondary_per_s").unwrap_or(0.0),
            "1/s",
        );
        return Outcome {
            checks,
            metrics,
            extra,
            stamp,
            spans_csv: None,
            digest: warm.digest,
            samples,
        };
    }

    let mut capture = None;
    let mut meter = Meter::disabled();
    // Warm-up round with the target's inbound capture (and CPU use),
    // then the untraced overhead baseline, then the traced round.
    let warm = bed_round(w, false, true, &mut checks, &mut meter, |bed| {
        capture = bed.target_wrapper().capture.take();
    });
    let untraced = bed_round(w, false, false, &mut checks, &mut meter, |_| {});
    let mut parts = None;
    let traced = bed_round(w, true, false, &mut checks, &mut meter, |bed| {
        let node = std::mem::replace(
            &mut bed.target_wrapper().inner,
            Node::new(NodeConfig::default()),
        );
        let tap_dropped = bed.tap.as_ref().map_or(0, |t| t.dropped());
        parts = Some((
            node,
            bed.tcp(),
            tap_dropped,
            bed.attack_sent().0,
            bed.attacker_ips.clone(),
            bed.innocent_ips.clone(),
        ));
    });
    let rec = traced.rec.as_ref().expect("recording");
    for r in [&untraced, &traced] {
        checks.check(r.digest == warm.digest, || {
            format!("round digest {:016x} != {:016x}", r.digest, warm.digest)
        });
    }
    let (node, tcp, tap_dropped, attack_msgs, attackers, innocents) = parts.expect("inspected");
    let strikes = layers::strike_sequence(&node.telemetry, &attackers, &innocents);
    let l = SimLayers {
        rec,
        untraced_run_s: untraced.run.wall_s,
        delivered: traced.delivered,
        msgs_accepted: traced.accepted,
        target: &node,
        tcp,
        tap_dropped,
        cpu_per_wall: warm.run.cpu_s / warm.run.wall_s,
        wire: capture
            .as_ref()
            .map(layers::replay_wire)
            .unwrap_or_default(),
        strikes: layers::replay_strikes(&node.telemetry, &strikes),
        attack_msgs,
    };
    stamp.rounds = 1;
    Outcome {
        checks,
        metrics: sim_layer_metrics(&l),
        extra,
        stamp,
        spans_csv: Some(spans_csv(rec)),
        digest: warm.digest,
        samples: Vec::new(),
    }
}

// --------------------------------------------------------- detect-replay

struct DetectRound {
    rss_mb: f64,
    setup: Cost,
    /// `run_service` at shards 1, summed over the passes.
    single: Cost,
    /// `batch_verdicts`, summed over the passes.
    batch: Cost,
    /// Wall seconds of one `run_service` call at shards N, after the
    /// measured phase.
    sharded_s: f64,
    /// Process CPU seconds of that call.
    sharded_cpu_s: f64,
    /// Trace events.
    events: u64,
    digest: u64,
    replay: Option<detect::Replay>,
}

/// Passes over the trace per round, for each of `run_service` at shards
/// 1 and `batch_verdicts`.
const DETECT_PASSES: usize = 3;

/// One round: set-up, then the measured phase — `run_service` at shards
/// 1 and `batch_verdicts` — then one `run_service` call at shards N,
/// whose thread fan-out on a small machine is too erratic to gate (its
/// rate is printed beside the metrics instead).
fn detect_round(
    seed: u64,
    shards: usize,
    checks: &mut Checks,
    meter: &mut Meter,
    keep: bool,
) -> DetectRound {
    report::reset_peak_rss();
    let mut setup = Cost::default();
    let mut rng = detect::seed_rng(seed);
    let (cost, engine) = meter.chunk(Threads::Serial, || detect::train(&mut rng));
    setup += cost;
    let (cost, streams) = meter.chunk(Threads::Serial, || detect::record(&mut rng));
    setup += cost;
    let (cost, replay) = meter.chunk(Threads::Serial, || {
        detect::tile(&mut rng, engine, &streams, detect::SHAPE)
    });
    setup += cost;
    let service = |n: usize| run_service(&replay.engine, &replay.trace, replay.span, n);
    let (mut single, mut batch) = (Cost::default(), Cost::default());
    let (mut service_digests, mut batch_digests) = (Vec::new(), Vec::new());
    for _ in 0..DETECT_PASSES {
        let (cost, out) = meter.chunk(Threads::Serial, || {
            trace::top_level("detect.run_service", || service(1))
        });
        single += cost;
        service_digests.push(out.digest);
        let (cost, verdicts) = meter.chunk(Threads::Serial, || {
            trace::top_level("detect.batch_verdicts", || detect::batch(&replay))
        });
        batch += cost;
        batch_digests.push(verdict_digest(&verdicts));
    }
    let c0 = report::process_cpu_s();
    let (sharded_s, out) = wall(|| service(shards));
    let sharded_cpu_s = report::process_cpu_s() - c0;
    service_digests.push(out.digest);
    let rss_mb = report::peak_rss_mb();
    let digest = service_digests[0];
    checks.check(service_digests.iter().all(|d| *d == digest), || {
        format!("detect: run_service digests differ across passes or shards 1 vs {shards}: {service_digests:016x?}")
    });
    checks.check(batch_digests.iter().all(|d| *d == batch_digests[0]), || {
        format!("detect: batch_verdicts digests differ across passes: {batch_digests:016x?}")
    });
    DetectRound {
        rss_mb,
        setup,
        single,
        batch,
        sharded_s,
        sharded_cpu_s,
        events: replay.trace.len() as u64,
        digest,
        replay: keep.then_some(replay),
    }
}

fn detect_replay(req: &Request) -> Outcome {
    let nproc = report::nproc();
    let shards = nproc.max(2);
    let mut checks = Checks::default();
    let mut extra = Metrics::default();
    let mut stamp = Stamp {
        workload: req.workload.clone(),
        seed: req.seed,
        trace: req.trace,
        nproc,
        workers: 1,
        shards: vec![1, shards],
        rounds: 0,
    };
    let (warm, timed, meter) = if req.trace {
        // Untraced reference, then the traced round with its spans.
        let mut meter = Meter::disabled();
        let warm = detect_round(req.seed, shards, &mut checks, &mut meter, true);
        trace::start();
        let traced = detect_round(req.seed, shards, &mut checks, &mut meter, false);
        (warm, vec![traced], meter)
    } else {
        let mut first = true;
        rounds(req.seconds, false, |meter| {
            let keep = std::mem::take(&mut first);
            detect_round(req.seed, shards, &mut checks, meter, keep)
        })
    };
    for r in &timed {
        checks.check(r.digest == warm.digest, || {
            format!(
                "detect: round digest {:016x} != {:016x}",
                r.digest, warm.digest
            )
        });
    }
    stamp.rounds = timed.len();

    // Cell-level output checks against the batch pipeline.
    let replay = warm.replay.as_ref().expect("kept replay");
    let reference = run_service(&replay.engine, &replay.trace, replay.span, 1);
    let (batch_s, batch) = wall(|| detect::batch(replay));
    let (agree, cells) = verdict_agreement(&reference.verdicts, &batch);
    checks.attempted += cells;
    checks.failed += cells - agree;
    let share = reference.anomalous as f64 / reference.verdicts.len().max(1) as f64;
    checks.check(share > 0.0 && share < 1.0, || {
        format!("detect: anomalous share {share} not in (0, 1)")
    });
    checks.check(reference.digest == warm.digest, || {
        "detect: reference digest differs".to_owned()
    });

    if !req.trace {
        let passes = DETECT_PASSES as f64;
        let samples: Vec<Sample> = timed
            .iter()
            .map(|r| {
                let mut run = r.single;
                run += r.batch;
                Sample {
                    setup: r.setup,
                    run,
                    primary: (r.events as f64 * passes, r.single),
                    secondary: (r.events as f64 * passes, r.batch),
                    rss_mb: r.rss_mb,
                }
            })
            .collect();
        let metrics = end_to_end(&samples);
        let samples = wall_record(&samples, &meter, &mut extra);
        extra.put(
            "detect_events_per_s",
            metrics.get("primary_per_s").unwrap_or(0.0),
            "1/s",
        );
        extra.put(
            "detect_batch_events_per_s",
            metrics.get("secondary_per_s").unwrap_or(0.0),
            "1/s",
        );
        let sharded: Vec<f64> = timed
            .iter()
            .map(|r| r.events as f64 / r.sharded_s)
            .collect();
        extra.put("wall.detect_sharded_events_per_s", median(&sharded), "1/s");
        extra.put("trace_events", replay.trace.len() as f64, "count");
        extra.put("trace_peers", replay.peers as f64, "count");
        extra.put("anomalous_share", share, "ratio");
        return Outcome {
            checks,
            metrics,
            extra,
            stamp,
            spans_csv: None,
            digest: warm.digest,
            samples,
        };
    }

    let rec = trace::finish().expect("recording");
    let traced = &timed[0];
    let pass = detect::streaming_pass(replay);
    checks.check(pass.digest == reference.digest, || {
        "detect: direct StreamingProfile pass disagrees with run_service".to_owned()
    });
    let v = LayerValues {
        par_cpu_per_wall: warm.sharded_cpu_s / warm.sharded_s,
        detect_streaming_ns_per_event: pass.ns_per_event,
        detect_decision_ns_p50: percentile(&pass.decision_ns, 50.0) as f64,
        detect_decision_ns_p99: percentile(&pass.decision_ns, 99.0) as f64,
        detect_decisions: pass.decision_ns.len() as f64,
        detect_batch_s: batch_s,
        detect_verdicts: reference.verdicts.len() as f64,
        detect_anomalous_share: share,
        detect_agree_ratio: agree as f64 / cells.max(1) as f64,
        detect_service_s: traced.single.wall_s / DETECT_PASSES as f64,
        detect_service_sharded_s: traced.sharded_s,
        trace_run_s: rec.top_ns as f64 / 1e9,
        trace_untraced_run_s: warm.single.wall_s + warm.batch.wall_s,
        trace_spans: rec.spans.len() as f64,
        ..LayerValues::default()
    };
    Outcome {
        checks,
        metrics: v.metrics(),
        extra,
        stamp,
        spans_csv: Some(spans_csv(&rec)),
        digest: warm.digest,
        samples: Vec::new(),
    }
}
