//! Property tests for streaming-vs-batch equivalence, driven by the
//! in-repo `btc_netsim::prop` harness: a [`StreamingWindow`] fed message
//! by message must reproduce [`TrafficWindow`]'s `n`/`c`/`Λ` and the
//! batch `detect()` verdict within float tolerance — including degenerate
//! zero-variance windows that hit `correlation`'s guard — and the sharded
//! profile service must be bit-identical at every shard count.

use btc_detect::engine::AnalysisEngine;
use btc_detect::features::{correlation, TrafficWindow, NUM_TYPES};
use btc_detect::serve::{run_service, TraceEvent, TraceEventKind, TraceSpan};
use btc_detect::streaming::{ReferenceStats, StreamingEngine, StreamingWindow, MINUTE};
use btc_detect::Profile;
use btc_netsim::prop::{check, Gen};

/// Trains a profile on generated normal-ish windows (tx/inv dominated
/// with generated jitter) so every case sees a different reference.
fn gen_profile(g: &mut Gen) -> Profile {
    let mut windows = Vec::new();
    for _ in 0..g.usize_in(3, 20) {
        let mut w = TrafficWindow::empty(10.0);
        w.counts[12] = g.u64_in(1000, 1400);
        w.counts[6] = g.u64_in(800, 1100);
        w.counts[4] = g.u64_in(200, 400);
        w.counts[2] = g.u64_in(0, 100);
        w.reconnects = g.u64_in(0, 2);
        windows.push(w);
    }
    AnalysisEngine::default().train(&windows).expect("nonempty")
}

/// Generates an arbitrary window — occasionally degenerate: empty, flat
/// (zero count variance), or single-type.
fn gen_window(g: &mut Gen) -> TrafficWindow {
    let mut w = TrafficWindow::empty(10.0);
    match g.usize_in(0, 4) {
        0 => {} // empty: zero variance on the counts side
        1 => {
            // Perfectly flat histogram: also zero count variance.
            let level = g.u64_in(1, 50);
            w.counts = [level; NUM_TYPES];
        }
        2 => {
            // Single dominant type (the flood shape).
            w.counts[g.usize_in(0, NUM_TYPES)] = g.u64_in(1, 200_000);
        }
        _ => {
            for slot in w.counts.iter_mut() {
                *slot = g.u64_in(0, 2000);
            }
        }
    }
    w.reconnects = g.u64_in(0, 60);
    w
}

#[test]
fn streaming_window_reproduces_batch_features_and_verdict() {
    check("StreamingWindow ≡ TrafficWindow + detect()", |g: &mut Gen| {
        let profile = gen_profile(g);
        let refs = ReferenceStats::new(profile.reference);
        let engine = AnalysisEngine::default();
        let batch = gen_window(g);

        // Feed the same window message by message, in a generated
        // interleaving (round-robin over types rather than type-by-type).
        let mut sw = StreamingWindow::empty(batch.minutes);
        let mut remaining = batch.counts;
        let mut left: u64 = remaining.iter().sum();
        let mut cursor = g.usize_in(0, NUM_TYPES);
        while left > 0 {
            while remaining[cursor] == 0 {
                cursor = (cursor + 1) % NUM_TYPES;
            }
            sw.record(cursor as u8, &refs);
            remaining[cursor] -= 1;
            left -= 1;
            cursor = (cursor + g.usize_in(1, NUM_TYPES)) % NUM_TYPES;
        }
        for _ in 0..batch.reconnects {
            sw.record_reconnect();
        }

        // n and c are the same computation — exactly equal.
        assert_eq!(sw.message_rate(), batch.message_rate());
        assert_eq!(sw.reconnect_rate(), batch.reconnect_rate());
        // Λ: incremental Pearson vs the two-pass batch correlation.
        let batch_rho = correlation(&batch.distribution(), &profile.reference);
        let rho = sw.rho(&refs);
        assert!(
            (rho - batch_rho).abs() < 1e-9,
            "rho {rho} vs batch {batch_rho} for {batch:?}"
        );
        // Degenerate windows must hit the same zero-variance guard.
        if batch.total() == 0 || batch.counts.iter().all(|c| *c == batch.counts[0]) {
            assert_eq!(rho, 0.0, "degenerate window must report ρ = 0");
        }
        // And the verdicts agree feature by feature.
        let streaming = sw.detect(&profile, &refs);
        let batch_d = engine.detect(&profile, &batch);
        assert_eq!(streaming.anomalous, batch_d.anomalous);
        assert_eq!(streaming.violations, batch_d.violations);
    });
}

#[test]
fn service_digest_is_shard_count_invariant_for_any_trace() {
    check("profile service ≡ at any shard count", |g: &mut Gen| {
        let profile = gen_profile(g);
        let window_len = MINUTE;
        let windows = g.u64_in(1, 3);
        let span = TraceSpan {
            start: 0,
            end: windows * window_len,
        };
        let peers = g.u64_in(1, 8);
        let mut trace = Vec::new();
        for _ in 0..g.usize_in(0, 400) {
            let time = g.u64_in(span.start, span.end);
            let peer = g.u64_in(0, peers);
            let kind = if g.usize_in(0, 9) == 0 {
                TraceEventKind::Reconnect
            } else {
                TraceEventKind::Message(g.usize_in(0, NUM_TYPES) as u8)
            };
            trace.push(TraceEvent { time, peer, kind });
        }
        trace.sort_by_key(|e| e.time);
        let engine = StreamingEngine::new(profile, window_len);
        let serial = run_service(&engine, &trace, span, 1);
        for shards in [2, 3, 5, 16] {
            let sharded = run_service(&engine, &trace, span, shards);
            assert_eq!(sharded.digest, serial.digest, "shards={shards}");
            assert_eq!(sharded.verdicts, serial.verdicts, "shards={shards}");
        }
    });
}
