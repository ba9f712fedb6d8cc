//! `repro serve` — the streaming detector as a service: replays the
//! recorded Figure-10 traffic event by event through the sharded per-peer
//! profile service ([`btc_detect::serve`]) and compares it against the
//! batch [`AnalysisEngine`] pipeline on the same trace.
//!
//! Two detectors run per case:
//!
//! * **per-peer** — a [`StreamingEngine`] trained on the clean run's
//!   per-peer windows scores every `(peer, window)` cell, at 1/2/4
//!   shards. The shard digests must be identical (the service's
//!   determinism contract) and the verdicts must agree with the batch
//!   pipeline on every cell.
//! * **node-aggregate** — the same trace with every event mapped to one
//!   pseudo-peer, scored with the Figure-10 node profile over the whole
//!   test span. Its single verdict must match what the batch engine says
//!   about the case's aggregate window — the streaming engine reproduces
//!   Figure 10 from the event stream.
//!
//! All digest/verdict output is deterministic; only the `[wall]` lines
//! (throughput and amortized cost of whole `run_service` /
//! `batch_verdicts` calls, timed here) vary run to run.

use crate::scenario::fig10::{run_case_testbed, run_training_testbed, Fig10Config, CASES, SETTLE};
use btc_detect::engine::{AnalysisEngine, Detection, Profile};
use btc_detect::features::TrafficWindow;
use btc_detect::serve::{
    batch_verdicts, group_windows, run_service, verdict_agreement, verdict_digest, PeerKey,
    ServeOutput, TraceEvent, TraceEventKind, TraceSpan,
};
use btc_detect::streaming::StreamingEngine;
use btc_netsim::packet::SockAddr;
use btc_netsim::time::{Nanos, MINUTES};
use btc_node::metrics::{Telemetry, TelemetryEventKind};

/// The shard counts every case is measured at.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Scenario knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The traffic generator — the same testbeds and durations as the
    /// Figure-10 study.
    pub fig10: Fig10Config,
    /// Per-peer streaming window length (the node-aggregate check always
    /// uses one window spanning the whole test).
    pub window: Nanos,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fig10: Fig10Config::default(),
            window: MINUTES,
        }
    }
}

/// Packs a socket address into the service's peer key: IPv4 in the high
/// 32 bits of the low 48, port in the low 16. Injective, so distinct
/// sockets never share streaming state.
pub fn peer_key(addr: SockAddr) -> PeerKey {
    (u64::from(u32::from_be_bytes(addr.ip)) << 16) | u64::from(addr.port)
}

/// Converts a node's recorded telemetry over `[start, end)` into the
/// service's trace format (time-ordered, peers packed with [`peer_key`]).
pub fn telemetry_trace(telemetry: &Telemetry, start: Nanos, end: Nanos) -> Vec<TraceEvent> {
    telemetry
        .events_in_window(start, end)
        .iter()
        .filter_map(|ev| {
            let kind = match ev.kind {
                TelemetryEventKind::Message(ty) => TraceEventKind::Message(ty),
                TelemetryEventKind::Reconnect => TraceEventKind::Reconnect,
                // Tier transitions are reputation-engine output, not
                // detector input traffic.
                TelemetryEventKind::TierChange { .. } => return None,
            };
            Some(TraceEvent {
                time: ev.time,
                peer: peer_key(ev.peer),
                kind,
            })
        })
        .collect()
}

/// Cuts a trace into per-peer training windows: every full window of the
/// span for every peer seen in the trace (silent windows included — a
/// normal peer can legitimately be quiet).
pub fn per_peer_windows(
    trace: &[TraceEvent],
    span: TraceSpan,
    window_len: Nanos,
) -> Vec<TrafficWindow> {
    group_windows(trace, span, window_len)
        .into_values()
        .flatten()
        .collect()
}

/// One shard count's measurement of a case.
#[derive(Clone, Copy, Debug)]
pub struct ShardRun {
    /// Shard count.
    pub shards: usize,
    /// Wall-clock nanoseconds of the whole `run_service` call (varies run
    /// to run).
    pub elapsed_ns: u64,
    /// Deterministic verdict digest (must equal every other shard
    /// count's).
    pub digest: u64,
}

/// One evaluated case.
#[derive(Clone, Debug)]
pub struct ServeCase {
    /// "normal", "bm-dos" or "defamation".
    pub name: &'static str,
    /// Trace events replayed.
    pub events: u64,
    /// Distinct peers in the trace.
    pub peers: u64,
    /// `(peer, window)` verdict cells scored.
    pub verdicts: u64,
    /// Cells flagged anomalous.
    pub anomalous: u64,
    /// Whether every shard count produced the same digest.
    pub digests_agree: bool,
    /// The per-shard runs, in [`SHARDS`] order.
    pub runs: Vec<ShardRun>,
    /// Wall-clock nanoseconds of the batch group-then-score pipeline on
    /// the same trace.
    pub batch_elapsed_ns: u64,
    /// Digest of the batch pipeline's verdicts.
    pub batch_digest: u64,
    /// Streaming-vs-batch verdict agreement `(matching, total)`.
    pub agreement: (u64, u64),
    /// The node-aggregate streaming verdict (whole test span, one
    /// pseudo-peer, Figure-10 profile).
    pub aggregate_streaming: Detection,
    /// The batch engine's verdict on the case's aggregate window —
    /// exactly Figure 10's detection column.
    pub aggregate_batch: Detection,
}

impl ServeCase {
    /// Ingest throughput of a call that took `elapsed_ns`: trace events
    /// per wall-clock second.
    pub fn msgs_per_sec(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / elapsed_ns as f64
    }

    /// Amortized wall-clock cost of one `(peer, window)` verdict in a call
    /// that took `elapsed_ns` (streaming and batch score the same cells).
    pub fn ns_per_verdict(&self, elapsed_ns: u64) -> u64 {
        elapsed_ns.checked_div(self.verdicts).unwrap_or(0)
    }
}

/// The full `serve` result.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// Per-peer streaming window length.
    pub window: Nanos,
    /// The per-peer profile the service ran with.
    pub profile: Profile,
    /// The three cases.
    pub cases: Vec<ServeCase>,
}

/// Runs the streaming-service study serially.
pub fn run_serve(cfg: ServeConfig) -> ServeResult {
    run_serve_jobs(cfg, 1)
}

/// [`run_serve`] with the three cases fanned across `jobs` workers
/// (training stays serial — every case depends on both profiles).
///
/// # Panics
///
/// Panics if training produces no windows (`fig10.train` shorter than a
/// window) — a configuration error, not a runtime condition.
pub fn run_serve_jobs(cfg: ServeConfig, jobs: usize) -> ServeResult {
    let engine = AnalysisEngine::default();
    // ---- Train both profiles on the same clean run.
    let tb = run_training_testbed(&cfg.fig10);
    let node_profile = engine
        .train(&tb.windows(SETTLE, cfg.fig10.train, cfg.fig10.window))
        .expect("node training windows");
    let train_trace = telemetry_trace(&tb.target_node().telemetry, SETTLE, cfg.fig10.train);
    let train_span = TraceSpan {
        start: SETTLE,
        end: cfg.fig10.train,
    };
    let peer_profile = engine
        .train(&per_peer_windows(&train_trace, train_span, cfg.window))
        .expect("per-peer training windows");
    let streaming = StreamingEngine::new(peer_profile.clone(), cfg.window);

    let cases = btc_par::par_map(jobs, CASES.to_vec(), |name| {
        serve_case(name, &cfg, &engine, &node_profile, &streaming)
    });
    ServeResult {
        window: cfg.window,
        profile: peer_profile,
        cases,
    }
}

fn serve_case(
    name: &'static str,
    cfg: &ServeConfig,
    engine: &AnalysisEngine,
    node_profile: &Profile,
    streaming: &StreamingEngine,
) -> ServeCase {
    let tb = run_case_testbed(name, &cfg.fig10);
    let end = SETTLE + cfg.fig10.test;
    let trace = telemetry_trace(&tb.target_node().telemetry, SETTLE, end);
    let span = TraceSpan {
        start: SETTLE,
        end,
    };

    // ---- The sharded service at every shard count.
    let mut runs = Vec::new();
    let mut reference: Option<ServeOutput> = None;
    let mut digests_agree = true;
    for shards in SHARDS {
        // lint:allow(wallclock): times the whole call; verdict digests are compared across shard counts below
        let started = std::time::Instant::now();
        let out = run_service(streaming, &trace, span, shards);
        runs.push(ShardRun {
            shards,
            elapsed_ns: started.elapsed().as_nanos() as u64,
            digest: out.digest,
        });
        match &reference {
            None => reference = Some(out),
            Some(first) => digests_agree &= out.digest == first.digest,
        }
    }
    let reference = reference.expect("at least one shard count");

    // ---- The batch pipeline on the same trace.
    // lint:allow(wallclock): times the whole call; batch verdicts feed the digest-checked agreement
    let started = std::time::Instant::now();
    let batch = batch_verdicts(&streaming.profile, engine, &trace, span, cfg.window);
    let batch_elapsed_ns = started.elapsed().as_nanos() as u64;
    let agreement = verdict_agreement(&reference.verdicts, &batch);

    // ---- Node-aggregate: one pseudo-peer, one window, Figure-10 profile.
    let agg_trace: Vec<TraceEvent> = trace.iter().map(|e| TraceEvent { peer: 0, ..*e }).collect();
    let agg_engine = StreamingEngine::new(node_profile.clone(), end - SETTLE);
    let agg = run_service(&agg_engine, &agg_trace, span, 1);
    let aggregate_streaming = agg
        .verdicts
        .first()
        .expect("one aggregate window")
        .verdict
        .detection
        .clone();
    let aggregate_batch = engine.detect(node_profile, &tb.single_window(SETTLE, end));

    ServeCase {
        name,
        events: reference.events,
        peers: reference.peers,
        verdicts: reference.verdicts.len() as u64,
        anomalous: reference.anomalous,
        digests_agree,
        runs,
        batch_elapsed_ns,
        batch_digest: verdict_digest(&batch),
        agreement,
        aggregate_streaming,
        aggregate_batch,
    }
}

fn verdict_word(d: &Detection) -> String {
    if d.anomalous {
        format!("ANOMALOUS {:?}", d.violations)
    } else {
        "normal".to_owned()
    }
}

/// Renders the study as text. Digest/verdict lines are deterministic;
/// lines prefixed `[wall]` carry wall-clock measurements and differ
/// between any two runs.
pub fn render_serve(r: &ServeResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Per-peer profile: τ_n = [{:.1}, {:.1}] msg/min, τ_c = [0, {:.1}]/min, τ_Λ = {:.3}; \
         window = {:.1} min",
        r.profile.tau_n.0,
        r.profile.tau_n.1,
        r.profile.tau_c.1,
        r.profile.tau_lambda,
        r.window as f64 / MINUTES as f64
    )
    .unwrap();
    for c in &r.cases {
        writeln!(
            out,
            "{:<11} events={} peers={} verdicts={} anomalous={}",
            c.name, c.events, c.peers, c.verdicts, c.anomalous
        )
        .unwrap();
        for run in &c.runs {
            writeln!(out, "  digest shards={} {:016x}", run.shards, run.digest).unwrap();
        }
        writeln!(
            out,
            "  streaming vs batch: {}/{} cells agree (batch digest {:016x})",
            c.agreement.0, c.agreement.1, c.batch_digest
        )
        .unwrap();
        writeln!(
            out,
            "  node aggregate: streaming={} batch={} agree={}",
            verdict_word(&c.aggregate_streaming),
            verdict_word(&c.aggregate_batch),
            if c.aggregate_streaming.anomalous == c.aggregate_batch.anomalous
                && c.aggregate_streaming.violations == c.aggregate_batch.violations
            {
                "yes"
            } else {
                "NO"
            }
        )
        .unwrap();
        let walls = c.runs.iter().map(|r| (format!("shards={}", r.shards), r.elapsed_ns));
        for (label, elapsed_ns) in walls.chain([("batch".to_owned(), c.batch_elapsed_ns)]) {
            writeln!(
                out,
                "  [wall] {label:<8} {:>12.0} msg/s  {} ns/verdict amortized",
                c.msgs_per_sec(elapsed_ns),
                c.ns_per_verdict(elapsed_ns)
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            fig10: Fig10Config {
                train: 20 * MINUTES,
                window: 5 * MINUTES,
                test: 4 * MINUTES,
                innocents: 25,
            },
            window: MINUTES,
        }
    }

    #[test]
    fn serve_matches_batch_and_shards_agree() {
        let r = run_serve_jobs(quick_cfg(), 2);
        assert_eq!(r.cases.len(), 3);
        for c in &r.cases {
            assert!(c.digests_agree, "{}: shard digests diverged", c.name);
            assert_eq!(c.runs.len(), SHARDS.len());
            assert!(c.events > 0, "{}: empty trace", c.name);
            let (matching, total) = c.agreement;
            assert_eq!(matching, total, "{}: streaming != batch", c.name);
            // The node-aggregate streaming verdict reproduces Figure 10.
            assert_eq!(
                c.aggregate_streaming.anomalous, c.aggregate_batch.anomalous,
                "{}: aggregate verdicts diverged",
                c.name
            );
            assert_eq!(c.aggregate_streaming.violations, c.aggregate_batch.violations);
            assert_eq!(c.aggregate_streaming.n, c.aggregate_batch.n);
            assert_eq!(c.aggregate_streaming.c, c.aggregate_batch.c);
            assert!((c.aggregate_streaming.rho - c.aggregate_batch.rho).abs() < 1e-9);
        }
        let get = |n: &str| r.cases.iter().find(|c| c.name == n).expect("case");
        assert!(!get("normal").aggregate_streaming.anomalous);
        assert!(get("bm-dos").aggregate_streaming.anomalous);
        assert!(get("defamation").aggregate_streaming.anomalous);
        // The flood shows up in the per-peer layer too.
        assert!(get("bm-dos").anomalous > get("normal").anomalous);
    }

    #[test]
    fn render_separates_digest_and_wall_clock_lines() {
        let r = run_serve(quick_cfg());
        let t = render_serve(&r);
        assert!(t.contains("digest shards=1"));
        assert!(t.contains("digest shards=4"));
        assert!(t.contains("[wall] shards=2"));
        assert!(t.contains("node aggregate"));
    }

    #[test]
    fn peer_key_is_injective_on_distinct_sockets() {
        let a = peer_key(SockAddr::new([10, 0, 0, 1], 8333));
        let b = peer_key(SockAddr::new([10, 0, 0, 1], 8334));
        let c = peer_key(SockAddr::new([10, 0, 0, 2], 8333));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
