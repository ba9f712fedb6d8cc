//! The sharded per-peer profile service: detector-as-a-sidecar.
//!
//! [`run_service`] partitions per-peer streaming state
//! ([`crate::streaming::StreamingProfile`]) across `N` shards with one
//! [`btc_par::par_map`] fan-out. Assignment is peer-keyed
//! (`peer % shards`): every shard scans the shared trace and ingests only
//! its own peers' events, in trace order, so each peer's state evolves
//! exactly as in a one-shard run. The merge is deterministic — verdicts
//! are sorted by `(peer, window)` — so the result is **bit-identical at
//! any shard count**. At one shard `par_map` runs inline on the caller's
//! thread.
//!
//! [`batch_verdicts`] runs the same trace through the batch
//! [`AnalysisEngine`] pipeline — group ([`group_windows`]), then score
//! each window — as the comparison baseline. Nothing here reads a clock:
//! callers that report throughput time whole calls.

use crate::engine::{AnalysisEngine, Profile, Violation};
use crate::features::TrafficWindow;
use crate::streaming::{Nanos, StreamingEngine, StreamingProfile, WindowVerdict};
use std::collections::BTreeMap;

/// Compact peer identifier (e.g. IPv4 ‖ port packed into the low 48
/// bits). The service never interprets it beyond shard assignment.
pub type PeerKey = u64;

/// What happened in one trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A message of the given command-table type arrived.
    Message(u8),
    /// An outbound reconnection was initiated after losing the peer.
    Reconnect,
}

/// One event of a recorded traffic trace, in non-decreasing time order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time.
    pub time: Nanos,
    /// The peer it concerns.
    pub peer: PeerKey,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The service's bounds for one trace: windows are anchored at `start`
/// and every peer is scored for all `windows` tumbling windows of
/// `[start, end)`, present or silent.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpan {
    /// Trace origin (window 0 starts here).
    pub start: Nanos,
    /// Trace end; the span is cut into `(end − start) / window_len` full
    /// windows, discarding a partial tail.
    pub end: Nanos,
}

impl TraceSpan {
    /// Number of full windows the span covers at `window_len`.
    pub fn windows(&self, window_len: Nanos) -> u64 {
        self.end.saturating_sub(self.start) / window_len
    }
}

/// One scored `(peer, window)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerVerdict {
    /// The peer.
    pub peer: PeerKey,
    /// The closed window's verdict (index + detection + EWMA rates).
    pub verdict: WindowVerdict,
}

/// The deterministic output of a service run.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// Every `(peer, window)` verdict, sorted by `(peer, window_index)`.
    pub verdicts: Vec<PeerVerdict>,
    /// Events ingested.
    pub events: u64,
    /// Distinct peers seen.
    pub peers: u64,
    /// Verdicts with `anomalous == true`.
    pub anomalous: u64,
    /// FNV-1a digest over the full verdict list, including the float bit
    /// patterns — byte-equality of two runs' results in one number.
    pub digest: u64,
}

/// One shard's pass: ingest its peers' events in trace order, then close
/// every stream at the span end. Returns the shard's verdicts, unsorted.
fn run_shard<'t>(
    engine: &StreamingEngine,
    span: TraceSpan,
    events: impl Iterator<Item = &'t TraceEvent>,
) -> Vec<PeerVerdict> {
    let mut peers: BTreeMap<PeerKey, StreamingProfile> = BTreeMap::new();
    let mut verdicts = Vec::new();
    let mut scratch = Vec::new();
    for ev in events {
        let profile = peers
            .entry(ev.peer)
            .or_insert_with(|| StreamingProfile::new(engine, span.start));
        match ev.kind {
            TraceEventKind::Message(ty) => profile.on_message(engine, ev.time, ty, &mut scratch),
            TraceEventKind::Reconnect => profile.on_reconnect(engine, ev.time, &mut scratch),
        }
        let peer = ev.peer;
        verdicts.extend(scratch.drain(..).map(|verdict| PeerVerdict { peer, verdict }));
    }
    for (&peer, profile) in &mut peers {
        profile.finish(engine, span.end, &mut scratch);
        verdicts.extend(scratch.drain(..).map(|verdict| PeerVerdict { peer, verdict }));
    }
    verdicts
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of a sorted verdict list: peer, window, verdict booleans and
/// the exact float bit patterns. Two runs agree on this u64 iff their
/// verdict lists are bit-identical.
pub fn verdict_digest(verdicts: &[PeerVerdict]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in verdicts {
        fnv1a(&mut h, &v.peer.to_le_bytes());
        fnv1a(&mut h, &v.verdict.window_index.to_le_bytes());
        fnv1a(&mut h, &[u8::from(v.verdict.detection.anomalous)]);
        for viol in &v.verdict.detection.violations {
            let tag: u8 = match viol {
                Violation::MessageRate => 1,
                Violation::ReconnectRate => 2,
                Violation::Distribution => 3,
            };
            fnv1a(&mut h, &[tag]);
        }
        for f in [
            v.verdict.detection.n,
            v.verdict.detection.c,
            v.verdict.detection.rho,
            v.verdict.ewma_n,
            v.verdict.ewma_c,
        ] {
            fnv1a(&mut h, &f.to_bits().to_le_bytes());
        }
    }
    h
}

fn reduce(mut all: Vec<PeerVerdict>, events: u64) -> ServeOutput {
    // Total order — (peer, window_index) pairs are unique — so the merged
    // list is independent of shard count and completion order.
    all.sort_by_key(|v| (v.peer, v.verdict.window_index));
    let peers = {
        let mut distinct = 0u64;
        let mut last = None;
        for v in &all {
            if last != Some(v.peer) {
                distinct += 1;
                last = Some(v.peer);
            }
        }
        distinct
    };
    let anomalous = all.iter().filter(|v| v.verdict.detection.anomalous).count() as u64;
    let digest = verdict_digest(&all);
    ServeOutput {
        verdicts: all,
        events,
        peers,
        anomalous,
        digest,
    }
}

/// Runs `trace` through `shards` workers and returns the merged,
/// deterministic output. `trace` must be in non-decreasing time order
/// (the order `Telemetry::events_in_window` produces).
pub fn run_service(
    engine: &StreamingEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    shards: usize,
) -> ServeOutput {
    // lint:allow(panic-path): harness configuration check; shard count comes from the scenario, not a peer
    assert!(shards >= 1, "need at least one shard");
    let modulus = shards as u64;
    let parts = btc_par::par_map(shards, (0..modulus).collect(), |i| {
        let mine = trace.iter().filter(|ev| ev.peer % modulus == i);
        run_shard(engine, span, mine)
    });
    reduce(parts.into_iter().flatten().collect(), trace.len() as u64)
}

/// Groups a trace into per-peer [`TrafficWindow`]s, keyed by peer: every
/// full window of the span for every peer with an event in it (silent
/// windows included — a normal peer can legitimately be quiet). Events
/// outside the span's full windows are dropped.
pub fn group_windows(
    trace: &[TraceEvent],
    span: TraceSpan,
    window_len: Nanos,
) -> BTreeMap<PeerKey, Vec<TrafficWindow>> {
    let total_windows = span.windows(window_len);
    let minutes = window_len as f64 / crate::streaming::MINUTE as f64;
    let mut grouped: BTreeMap<PeerKey, Vec<TrafficWindow>> = BTreeMap::new();
    for ev in trace {
        if ev.time < span.start || ev.time >= span.start + total_windows * window_len {
            continue;
        }
        let idx = ((ev.time - span.start) / window_len) as usize;
        let windows = grouped
            .entry(ev.peer)
            .or_insert_with(|| vec![TrafficWindow::empty(minutes); total_windows as usize]);
        // lint:allow(panic-path): idx < total_windows by the `continue` filter above; vec sized to total_windows
        let window = &mut windows[idx];
        match ev.kind {
            TraceEventKind::Message(ty) => {
                if let Some(slot) = window.counts.get_mut(ty as usize) {
                    *slot += 1;
                }
            }
            TraceEventKind::Reconnect => window.reconnects += 1,
        }
    }
    grouped
}

/// The batch comparison pipeline: group the same trace into per-peer
/// [`TrafficWindow`]s (every peer × every window of the span), then score
/// each with [`AnalysisEngine::detect`]. Returns the same
/// `(peer, window)`-sorted shape as [`run_service`] with EWMA fields
/// zeroed (the batch engine has no between-window signal).
pub fn batch_verdicts(
    profile: &Profile,
    engine: &AnalysisEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    window_len: Nanos,
) -> Vec<PeerVerdict> {
    let grouped = group_windows(trace, span, window_len);
    let mut out = Vec::new();
    for (peer, windows) in &grouped {
        for (idx, w) in windows.iter().enumerate() {
            out.push(PeerVerdict {
                peer: *peer,
                verdict: WindowVerdict {
                    window_index: idx as u64,
                    detection: engine.detect(profile, w),
                    ewma_n: 0.0,
                    ewma_c: 0.0,
                },
            });
        }
    }
    out
}

/// Verdict agreement between a streaming run and the batch pipeline on
/// the same trace: the fraction of `(peer, window)` cells where both
/// agree on `anomalous` **and** the violation set. Returns `(matching,
/// total)`; shapes that differ (missing cells) count as disagreement.
pub fn verdict_agreement(streaming: &[PeerVerdict], batch: &[PeerVerdict]) -> (u64, u64) {
    let mut batch_map: BTreeMap<(PeerKey, u64), &PeerVerdict> = BTreeMap::new();
    for v in batch {
        batch_map.insert((v.peer, v.verdict.window_index), v);
    }
    let total = streaming.len().max(batch.len()) as u64;
    let mut matching = 0u64;
    for s in streaming {
        if let Some(b) = batch_map.get(&(s.peer, s.verdict.window_index)) {
            if s.verdict.detection.anomalous == b.verdict.detection.anomalous
                && s.verdict.detection.violations == b.verdict.detection.violations
            {
                matching += 1;
            }
        }
    }
    (matching, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisEngine;
    use crate::streaming::MINUTE;

    fn trained_engine(window_len: Nanos) -> StreamingEngine {
        let mut windows = Vec::new();
        for seed in 0..40u64 {
            let mut w = TrafficWindow::empty(window_len as f64 / MINUTE as f64);
            w.counts[12] = 120 + seed % 6;
            w.counts[6] = 100 + seed % 3;
            w.counts[4] = 30;
            w.reconnects = seed % 2;
            windows.push(w);
        }
        let profile = AnalysisEngine::default().train(&windows).unwrap();
        StreamingEngine::new(profile, window_len)
    }

    /// A deterministic synthetic trace: `peers` peers with normal-ish
    /// mixes, one flooding peer, spanning `windows` windows.
    fn synthetic_trace(peers: u64, windows: u64, window_len: Nanos) -> (Vec<TraceEvent>, TraceSpan) {
        let span = TraceSpan {
            start: 0,
            end: windows * window_len,
        };
        let mut events = Vec::new();
        for w in 0..windows {
            let base = w * window_len;
            for p in 0..peers {
                let per_window: u64 = if p == 0 { 5000 } else { 250 };
                for i in 0..per_window {
                    // The flooder sends PING only; normal peers send the
                    // training mix (~48% tx, 40% inv, 12% ping).
                    let ty = if p == 0 {
                        4
                    } else if i < 120 {
                        12
                    } else if i < 220 {
                        6
                    } else {
                        4
                    };
                    events.push(TraceEvent {
                        time: base + i * (window_len / per_window),
                        peer: p,
                        kind: TraceEventKind::Message(ty),
                    });
                }
                if p == 3 {
                    events.push(TraceEvent {
                        time: base + window_len / 2,
                        peer: p,
                        kind: TraceEventKind::Reconnect,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.time);
        (events, span)
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(9, 3, window_len);
        let serial = run_service(&engine, &trace, span, 1);
        assert_eq!(serial.peers, 9);
        assert_eq!(serial.verdicts.len(), 9 * 3);
        for shards in [2, 3, 4, 8, 16] {
            let sharded = run_service(&engine, &trace, span, shards);
            assert_eq!(sharded.digest, serial.digest, "shards={shards}");
            assert_eq!(sharded.verdicts, serial.verdicts, "shards={shards}");
        }
    }

    #[test]
    fn flooder_flagged_normal_peers_pass() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(6, 2, window_len);
        let out = run_service(&engine, &trace, span, 2);
        let flooder: Vec<_> = out.verdicts.iter().filter(|v| v.peer == 0).collect();
        assert!(flooder.iter().all(|v| v.verdict.detection.anomalous));
        let normal: Vec<_> = out.verdicts.iter().filter(|v| v.peer == 2).collect();
        assert_eq!(normal.len(), 2);
        assert!(normal.iter().all(|v| !v.verdict.detection.anomalous), "{normal:?}");
    }

    #[test]
    fn streaming_agrees_with_batch_pipeline() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(7, 3, window_len);
        let streaming = run_service(&engine, &trace, span, 4);
        let batch = batch_verdicts(
            &engine.profile,
            &AnalysisEngine::default(),
            &trace,
            span,
            window_len,
        );
        assert_eq!(streaming.verdicts.len(), batch.len());
        let (matching, total) = verdict_agreement(&streaming.verdicts, &batch);
        assert_eq!(matching, total, "streaming and batch verdicts diverged");
        // Features agree to float tolerance (formulas differ).
        for (s, b) in streaming.verdicts.iter().zip(&batch) {
            assert_eq!(s.verdict.detection.n, b.verdict.detection.n);
            assert_eq!(s.verdict.detection.c, b.verdict.detection.c);
            assert!((s.verdict.detection.rho - b.verdict.detection.rho).abs() < 1e-9);
        }
    }

    #[test]
    fn digest_is_sensitive_to_verdict_changes() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(4, 2, window_len);
        let base = run_service(&engine, &trace, span, 1);
        let mut altered = trace.clone();
        altered.push(TraceEvent {
            time: span.end - 1,
            peer: 1,
            kind: TraceEventKind::Reconnect,
        });
        let changed = run_service(&engine, &altered, span, 1);
        assert_ne!(base.digest, changed.digest);
    }
}
