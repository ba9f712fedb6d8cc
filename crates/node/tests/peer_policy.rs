//! The three misbehavior policies against the two kinds of strike: a
//! Table-I rule (oversized `ADDR`, +20 stock) and a raw bad-checksum strike
//! (`punish_bad_checksum_score = Some(20)`). One scripted peer handshakes,
//! optionally relays a valid block to earn credit, then sends one strike
//! per second until the target drops it.

use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::{CloseReason, ConnId};
use btc_netsim::time::SECS;
use btc_node::chain::{mine_child, Chain};
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use btc_node::Tier;
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{decode_frame, Message, RawMessage, VersionMessage};
use btc_wire::types::{NetAddr, Network, TimestampedAddr};
use std::any::Any;

const TARGET: [u8; 4] = [10, 0, 0, 1];
const PEER: [u8; 4] = [10, 0, 0, 2];
const STRIKES: u32 = 12;

#[derive(Clone, Copy, Debug)]
enum StrikeKind {
    /// Oversized `ADDR`: Table-I +20 (Moderate under trust tiers).
    Rule,
    /// A `PING` frame with a corrupted checksum, scored +20 raw.
    BadChecksum,
}

impl StrikeKind {
    fn frame(self) -> Vec<u8> {
        let msg = match self {
            StrikeKind::Rule => Message::Addr(vec![
                TimestampedAddr {
                    time: 0,
                    addr: NetAddr::new([10, 9, 9, 9], 8333),
                };
                1001
            ]),
            StrikeKind::BadChecksum => Message::Ping(7),
        };
        let mut bytes = RawMessage::frame(Network::Regtest, &msg)
            .to_bytes()
            .to_vec();
        if let StrikeKind::BadChecksum = self {
            bytes[20] ^= 0x5a;
        }
        bytes
    }
}

/// Handshakes, optionally relays `block`, then sends `strike` once per
/// second (at most [`STRIKES`] times) and records how many were sent
/// before the target closed the connection.
struct Striker {
    target: SockAddr,
    block: Option<btc_wire::Block>,
    strike: Vec<u8>,
    conn: Option<ConnId>,
    frames: FrameAssembler,
    sent: u32,
    sent_at_close: Option<u32>,
}

impl Striker {
    fn send(&self, ctx: &mut Ctx<'_>, msg: &Message) {
        if let Some(conn) = self.conn {
            ctx.send(conn, &RawMessage::frame(Network::Regtest, msg).to_bytes());
        }
    }
}

impl App for Striker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.target);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            7,
        );
        self.send(ctx, &Message::Version(v));
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.frames.push(data);
        while let Some(raw) = self.frames.next_frame() {
            match decode_frame(&raw) {
                Ok(Message::Version(_)) => self.send(ctx, &Message::Verack),
                Ok(Message::Verack) => {
                    if let Some(block) = self.block.take() {
                        self.send(ctx, &Message::Block(block));
                    }
                    ctx.set_timer(SECS, 0);
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(conn) = self.conn else { return };
        if self.sent < STRIKES {
            ctx.send(conn, &self.strike);
            self.sent += 1;
            ctx.set_timer(SECS, 0);
        }
    }

    fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _r: CloseReason) {
        self.conn = None;
        self.sent_at_close = Some(self.sent);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A valid child of the regtest genesis block.
fn valid_block() -> btc_wire::Block {
    let chain = Chain::new();
    let tip = chain.tip();
    let header = chain.block(&tip).expect("genesis").header;
    mine_child(&header, tip, 5, vec![])
}

/// What one `(policy, credited)` row must show.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Hard-banned by the strike that reaches the 100-point threshold.
    BanAt(u32),
    /// Never banned, never scored, still connected after every strike.
    Shielded,
    /// Graylisted first, hard-banned later than the stock threshold.
    GraylistThenBan,
}

#[test]
fn each_policy_handles_rule_and_raw_strikes() {
    let table = [
        (PeerPolicy::Stock, false, Expect::BanAt(5)),
        (PeerPolicy::Stock, true, Expect::BanAt(5)),
        (PeerPolicy::GoodScore, false, Expect::BanAt(5)),
        (PeerPolicy::GoodScore, true, Expect::Shielded),
        (PeerPolicy::TrustTiers, false, Expect::GraylistThenBan),
    ];
    for kind in [StrikeKind::Rule, StrikeKind::BadChecksum] {
        for (policy, credited, expect) in table {
            let case = format!("{kind:?} / {policy:?} / credited={credited}");
            let mut sim = Simulator::new(SimConfig::default());
            let target = SockAddr::new(TARGET, 8333);
            let node = Node::new(NodeConfig {
                peer_policy: policy,
                punish_bad_checksum_score: Some(20),
                ..NodeConfig::default()
            });
            sim.add_host(TARGET, Box::new(node), HostConfig::default());
            let striker = Striker {
                target,
                block: credited.then(valid_block),
                strike: kind.frame(),
                conn: None,
                frames: FrameAssembler::new(Network::Regtest),
                sent: 0,
                sent_at_close: None,
            };
            sim.add_host(PEER, Box::new(striker), HostConfig::default());
            sim.run_for(u64::from(STRIKES + 3) * SECS);

            let sent_at_close = sim.app::<Striker>(PEER).unwrap().sent_at_close;
            let node: &Node = sim.app(TARGET).unwrap();
            let banned: Vec<SockAddr> = node.banman.history().iter().map(|(_, a)| *a).collect();
            match expect {
                Expect::BanAt(n) => {
                    assert_eq!(sent_at_close, Some(n), "{case}");
                    assert_eq!(banned.len(), 1, "{case}");
                    assert_eq!(banned[0].ip, PEER, "{case}");
                    assert_eq!(node.telemetry.graylists, 0, "{case}");
                }
                Expect::Shielded => {
                    assert_eq!(sent_at_close, None, "{case}");
                    assert!(banned.is_empty(), "{case}");
                    let info = node.peer_infos();
                    assert_eq!(info.len(), 1, "{case}");
                    assert_eq!(info[0].ban_score, 0, "{case}");
                    assert!(info[0].good_score > 0, "{case}");
                }
                Expect::GraylistThenBan => {
                    let n = sent_at_close.expect("banned");
                    assert!(n > 5, "{case}: banned at strike {n}, no later than stock");
                    assert_eq!(banned.len(), 1, "{case}");
                    assert_eq!(node.telemetry.graylists, 1, "{case}");
                    let tiers: Vec<Tier> =
                        node.telemetry.tier_changes.iter().map(|t| t.to).collect();
                    let gray = tiers.iter().position(|t| *t == Tier::Graylist);
                    let ban = tiers.iter().position(|t| *t == Tier::Banned);
                    assert!(gray.is_some() && gray < ban, "{case}: {tiers:?}");
                }
            }
        }
    }
}
