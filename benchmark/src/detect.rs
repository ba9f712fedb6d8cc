//! The `detect-replay` workload: record Figure-10-style traffic from
//! testbeds, train a streaming engine on the clean run's per-peer
//! windows, tile the recorded per-peer streams into a large trace, then
//! time `run_service` on it.

use crate::clock;
use banscore::scenario::serve::{per_peer_windows, telemetry_trace};
use banscore::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::defamation::PostConnDefamer;
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_detect::engine::AnalysisEngine;
use btc_detect::serve::{
    batch_verdicts, verdict_digest, PeerKey, PeerVerdict, TraceEvent, TraceEventKind, TraceSpan,
};
use btc_detect::streaming::{StreamingEngine, StreamingProfile, WindowVerdict};
use btc_netsim::rng::SimRng;
use btc_netsim::sim::{HostConfig, TapFilter};
use btc_netsim::time::{Nanos, MINUTES, SECS};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Discarded handshake period of every recording.
const SETTLE: Nanos = MINUTES;
/// Recorded span of each evaluation case (the trace span).
const TEST: Nanos = 3 * MINUTES;
/// Clean training span.
const TRAIN: Nanos = 12 * MINUTES;
/// Streaming window.
pub const WINDOW: Nanos = MINUTES;

/// How the tiled trace is composed.
#[derive(Clone, Copy, Debug)]
pub struct TraceShape {
    /// Peers replaying a recorded feeder stream.
    pub normal_peers: usize,
    /// Peers replaying the recorded PING flood.
    pub flood_peers: usize,
    /// Peers replaying a recorded defamed innocent's stream.
    pub defamed_peers: usize,
}

/// The benchmark's trace: about 2 M events over ~5.2 k peers.
pub const SHAPE: TraceShape = TraceShape {
    normal_peers: 5_000,
    flood_peers: 3,
    defamed_peers: 200,
};

/// The set-up product: a trained engine and the tiled trace.
pub struct Replay {
    /// The streaming engine (per-peer profile trained on clean windows).
    pub engine: StreamingEngine,
    /// The batch engine used for the agreement check.
    pub analysis: AnalysisEngine,
    /// Time-ordered trace.
    pub trace: Vec<TraceEvent>,
    /// Span the verdicts cover.
    pub span: TraceSpan,
    /// Distinct peers in the trace.
    pub peers: usize,
}

type Stream = Vec<(Nanos, TraceEventKind)>;

/// Per-peer streams of a recorded testbed over `[SETTLE, SETTLE+TEST)`,
/// times relative to `SETTLE`, split into (feeder, other) by address.
fn streams(tb: &Testbed) -> (Vec<Stream>, Vec<Stream>) {
    let trace = telemetry_trace(&tb.target_node().telemetry, SETTLE, SETTLE + TEST);
    let mut by_peer: BTreeMap<PeerKey, Stream> = BTreeMap::new();
    for ev in trace {
        by_peer
            .entry(ev.peer)
            .or_default()
            .push((ev.time - SETTLE, ev.kind));
    }
    let feeder_keys: Vec<u32> = tb
        .feeder_ips
        .iter()
        .map(|ip| u32::from_be_bytes(*ip))
        .collect();
    let (mut feeders, mut others) = (Vec::new(), Vec::new());
    for (key, s) in by_peer {
        if feeder_keys.contains(&((key >> 16) as u32)) {
            feeders.push(s);
        } else {
            others.push(s);
        }
    }
    (feeders, others)
}

fn testbed(seed: u64, innocents: usize, target_outbound: usize) -> Testbed {
    Testbed::build(TestbedConfig {
        feeders: 3,
        innocents,
        target_outbound,
        seed,
        ..TestbedConfig::default()
    })
}

/// The set-up's random stream: every testbed seed, peer key and time
/// rotation is drawn from it, in the order [`train`], [`record`],
/// [`tile`].
pub fn seed_rng(seed: u64) -> SimRng {
    SimRng::new(seed ^ 0x00DE_7EC7)
}

/// Trains the per-peer profile on a clean run's one-minute windows.
pub fn train(rng: &mut SimRng) -> StreamingEngine {
    let mut clean = testbed(rng.next_u64(), 0, 0);
    clean.sim.run_for(TRAIN + SETTLE);
    let train_trace = telemetry_trace(&clean.target_node().telemetry, SETTLE, SETTLE + TRAIN);
    let train_span = TraceSpan {
        start: SETTLE,
        end: SETTLE + TRAIN,
    };
    let profile = AnalysisEngine::default()
        .train(&per_peer_windows(&train_trace, train_span, WINDOW))
        .expect("the clean run yields training windows");
    StreamingEngine::new(profile, WINDOW)
}

/// Per-peer streams recorded from the three evaluation testbeds.
pub struct Streams {
    /// Feeder streams of every recording.
    normal: Vec<Stream>,
    /// The `PING` flooder's stream.
    flood: Vec<Stream>,
    /// The defamed innocents' streams.
    defamed: Vec<Stream>,
}

/// Records the normal, `PING`-flood and Defamation testbeds.
pub fn record(rng: &mut SimRng) -> Streams {
    let mut normal = testbed(rng.next_u64(), 0, 0);
    normal.sim.run_for(SETTLE + TEST);
    let mut flood = testbed(rng.next_u64(), 0, 0);
    let flooder = Flooder::new(FloodConfig {
        target: flood.target_addr,
        payload: FloodPayload::Ping,
        ..FloodConfig::default()
    });
    flood
        .sim
        .add_host(addrs::ATTACKER, Box::new(flooder), HostConfig::default());
    flood.sim.run_for(SETTLE + TEST);
    let mut defamed = testbed(rng.next_u64(), 40, 2);
    let tap = defamed.sim.add_tap(TapFilter::Host(addrs::TARGET));
    let mut defamer = PostConnDefamer::new(defamed.target_addr, defamed.innocent_ips.clone(), tap);
    defamer.poll = 20 * SECS;
    defamed
        .sim
        .add_host(addrs::ATTACKER, Box::new(defamer), HostConfig::default());
    defamed.sim.run_for(SETTLE + TEST);

    let mut normal_streams = streams(&normal).0;
    let (flood_feeders, flood_streams) = streams(&flood);
    let (defamed_feeders, defamed_streams) = streams(&defamed);
    normal_streams.extend(flood_feeders);
    normal_streams.extend(defamed_feeders);
    assert!(
        !normal_streams.is_empty() && !flood_streams.is_empty() && !defamed_streams.is_empty(),
        "every recording yields streams"
    );
    Streams {
        normal: normal_streams,
        flood: flood_streams,
        defamed: defamed_streams,
    }
}

/// Tiles the recorded streams into the trace: each synthetic peer
/// replays one recorded stream, rotated by a random offset within the
/// span, under a random distinct key.
pub fn tile(
    rng: &mut SimRng,
    engine: StreamingEngine,
    streams: &Streams,
    shape: TraceShape,
) -> Replay {
    let mut trace = Vec::new();
    let mut keys = std::collections::BTreeSet::new();
    let pools = [
        (&streams.normal, shape.normal_peers),
        (&streams.flood, shape.flood_peers),
        (&streams.defamed, shape.defamed_peers),
    ];
    for (pool, count) in pools {
        for _ in 0..count {
            let stream = &pool[rng.gen_range(pool.len() as u64) as usize];
            let key = loop {
                let k = rng.next_u64() & 0xFFFF_FFFF_FFFF;
                if keys.insert(k) {
                    break k;
                }
            };
            let shift = rng.gen_range(TEST);
            for &(t, kind) in stream {
                trace.push(TraceEvent {
                    time: SETTLE + (t + shift) % TEST,
                    peer: key,
                    kind,
                });
            }
        }
    }
    // Stable: a peer's same-time events keep their recorded order.
    trace.sort_by_key(|e| e.time);
    Replay {
        engine,
        analysis: AnalysisEngine::default(),
        trace,
        span: TraceSpan {
            start: SETTLE,
            end: SETTLE + TEST,
        },
        peers: keys.len(),
    }
}

/// The streaming detector driven directly, outside `run_service`.
#[derive(Clone, Debug, Default)]
pub struct StreamingPass {
    /// Wall nanoseconds per event over the whole pass (un-instrumented).
    pub ns_per_event: f64,
    /// Digest of the sorted verdicts (must equal `run_service`'s).
    pub digest: u64,
    /// Sorted per-call latencies of the calls that closed a window.
    pub decision_ns: Vec<u64>,
}

/// Feeds the trace through per-peer `StreamingProfile`s twice: once
/// untimed per call (for ns/event), once timing each call (for the
/// decision latencies).
pub fn streaming_pass(r: &Replay) -> StreamingPass {
    let run = |timed: bool| {
        let mut peers: BTreeMap<PeerKey, StreamingProfile> = BTreeMap::new();
        let mut out: Vec<PeerVerdict> = Vec::new();
        let mut scratch: Vec<WindowVerdict> = Vec::new();
        let mut decision_ns = Vec::new();
        let t0 = clock::now();
        for ev in &r.trace {
            let p = peers
                .entry(ev.peer)
                .or_insert_with(|| StreamingProfile::new(&r.engine, r.span.start));
            let c0 = timed.then(clock::now);
            match ev.kind {
                TraceEventKind::Message(ty) => p.on_message(&r.engine, ev.time, ty, &mut scratch),
                TraceEventKind::Reconnect => p.on_reconnect(&r.engine, ev.time, &mut scratch),
            }
            if scratch.is_empty() {
                continue;
            }
            if let Some(c0) = c0 {
                decision_ns.push(clock::now().duration_since(c0).as_nanos() as u64);
            }
            out.extend(scratch.drain(..).map(|verdict| PeerVerdict {
                peer: ev.peer,
                verdict,
            }));
        }
        for (key, p) in &mut peers {
            let c0 = timed.then(clock::now);
            p.finish(&r.engine, r.span.end, &mut scratch);
            if let (Some(c0), false) = (c0, scratch.is_empty()) {
                decision_ns.push(clock::now().duration_since(c0).as_nanos() as u64);
            }
            out.extend(scratch.drain(..).map(|verdict| PeerVerdict {
                peer: *key,
                verdict,
            }));
        }
        let secs = clock::secs_since(t0);
        out.sort_by_key(|v| (v.peer, v.verdict.window_index));
        (secs, verdict_digest(black_box(&out)), decision_ns)
    };
    let (secs, digest, _) = run(false);
    let (_, _, mut decision_ns) = run(true);
    decision_ns.sort_unstable();
    StreamingPass {
        ns_per_event: secs * 1e9 / r.trace.len().max(1) as f64,
        digest,
        decision_ns,
    }
}

/// The batch pipeline's verdicts on the same trace.
pub fn batch(r: &Replay) -> Vec<PeerVerdict> {
    batch_verdicts(&r.engine.profile, &r.analysis, &r.trace, r.span, WINDOW)
}
