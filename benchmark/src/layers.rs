//! Per-layer replays run after a traced simulator run: the target's
//! captured inbound bytes through the wire layer, and the run's own peer
//! and time sequence through fresh ban-score and reputation engines.

use crate::clock;
use crate::trace::Capture;
use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::Nanos;
use btc_node::banscore::{
    BanPolicy, CoreVersion, Misbehavior, MisbehaviorTracker, ReputationConfig, ReputationEngine,
    Verdict,
};
use btc_node::metrics::{msg_type_name, Telemetry};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::decode_frame;
use btc_wire::types::Network;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// Result of replaying captured bytes through `FrameAssembler` +
/// `decode_frame`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireReplay {
    /// Frames framed.
    pub frames: u64,
    /// Bytes pushed.
    pub bytes: u64,
    /// Wall nanoseconds per frame (framing + checksum + decode).
    pub ns_per_frame: f64,
    /// Bytes the reassembly buffers moved.
    pub memmove_bytes: u64,
}

/// Replays the capture connection by connection, in delivery chunks.
pub fn replay_wire(cap: &Capture) -> WireReplay {
    let mut asms: BTreeMap<ConnId, FrameAssembler> = BTreeMap::new();
    let mut frames = 0u64;
    let t0 = clock::now();
    for (conn, chunk) in &cap.chunks {
        let asm = asms
            .entry(*conn)
            .or_insert_with(|| FrameAssembler::new(Network::Regtest));
        asm.push(chunk);
        while let Some(raw) = asm.next_frame() {
            let _ = black_box(decode_frame(black_box(&raw)));
            frames += 1;
        }
    }
    let elapsed = clock::secs_since(t0);
    WireReplay {
        frames,
        bytes: cap.bytes as u64,
        ns_per_frame: if frames == 0 {
            0.0
        } else {
            elapsed * 1e9 / frames as f64
        },
        memmove_bytes: asms.values().map(FrameAssembler::bytes_memmoved).sum(),
    }
}

/// One strike the target applied, as reconstructed from its telemetry.
#[derive(Clone, Copy, Debug)]
pub struct Strike {
    /// Sim time.
    pub time: Nanos,
    /// Struck identifier.
    pub peer: SockAddr,
    /// Whether the peer dialed the target.
    pub inbound: bool,
    /// Table-I rule.
    pub rule: Misbehavior,
}

/// The strikes a run's accepted messages drew: oversize `ADDR`, duplicate
/// `VERSION` and invalid `BLOCK` from the attackers, and the forged
/// `BLOCK`s injected as the (outbound) innocents.
pub fn strike_sequence(tel: &Telemetry, attackers: &[Ipv4], innocents: &[Ipv4]) -> Vec<Strike> {
    let mut seen_version: BTreeSet<SockAddr> = BTreeSet::new();
    let mut out = Vec::new();
    for m in &tel.messages {
        let from_attacker = attackers.contains(&m.from.ip);
        let from_innocent = innocents.contains(&m.from.ip);
        let rule = match (msg_type_name(m.msg_type), from_attacker, from_innocent) {
            ("addr", true, _) => Misbehavior::AddrOversize,
            ("block", true, _) | ("block", _, true) => Misbehavior::BlockMutated,
            ("version", true, _) if !seen_version.insert(m.from) => Misbehavior::DuplicateVersion,
            _ => continue,
        };
        out.push(Strike {
            time: m.time,
            peer: m.from,
            inbound: !from_innocent,
            rule,
        });
    }
    out
}

/// Replay timings in nanoseconds per call (0 when there was nothing to
/// replay).
#[derive(Clone, Copy, Debug, Default)]
pub struct StrikeReplay {
    /// `MisbehaviorTracker::misbehaving` (stock 0.20.0 rules).
    pub banscore_strike_ns: f64,
    /// `ReputationEngine::on_misbehavior` (default trust tiers).
    pub reputation_strike_ns: f64,
    /// `ReputationEngine::on_message` over every accepted message.
    pub reputation_message_ns: f64,
    /// Strikes replayed per pass.
    pub strikes: u64,
}

/// Repeats `pass` until `budget_s` of wall time is spent (at least once)
/// and returns nanoseconds per item.
fn per_item_ns(items: usize, budget_s: f64, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let t0 = clock::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        if clock::secs_since(t0) >= budget_s {
            break;
        }
    }
    clock::secs_since(t0) * 1e9 / (passes as f64 * items as f64)
}

/// Replays the strike and message sequences through fresh engines.
pub fn replay_strikes(tel: &Telemetry, strikes: &[Strike]) -> StrikeReplay {
    const BUDGET_S: f64 = 0.05;
    let banscore_strike_ns = per_item_ns(strikes.len(), BUDGET_S, || {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        for s in strikes {
            if let Verdict::Ban { .. } = t.misbehaving(s.time, s.peer, s.inbound, s.rule) {
                t.forget(&s.peer);
            }
        }
        black_box(t);
    });
    let reputation_strike_ns = per_item_ns(strikes.len(), BUDGET_S, || {
        let mut e = ReputationEngine::new(ReputationConfig::default());
        for s in strikes {
            black_box(e.on_misbehavior(s.time, s.peer, s.inbound, s.rule));
        }
        black_box(e);
    });
    let reputation_message_ns = per_item_ns(tel.messages.len(), BUDGET_S, || {
        let mut e = ReputationEngine::new(ReputationConfig::default());
        for m in &tel.messages {
            black_box(e.on_message(m.time, m.from));
        }
        black_box(e);
    });
    StrikeReplay {
        banscore_strike_ns,
        reputation_strike_ns,
        reputation_message_ns,
        strikes: strikes.len() as u64,
    }
}
