//! The misbehavior-policy seam: every node decision that depends on
//! `NodeConfig::peer_policy` is one `match` in one hook below — stock
//! Table-I banning, the §VIII good-score shield, or the trust-tier
//! [`crate::banscore::ReputationEngine`].

use super::{Node, PeerPolicy};
use crate::banscore::tracker::GOOD_SCORE_MIN_CREDIT;
use crate::banscore::{Misbehavior, Tier, Verdict};
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::Ctx;
use btc_netsim::tcp::ConnId;

/// One strike against a peer: a Table-I rule, or raw points outside
/// Table I (the `punish_bad_checksum_score` ablation).
#[derive(Clone, Copy, Debug)]
pub(super) enum Strike {
    Rule(Misbehavior),
    Raw(u32),
}

impl From<Misbehavior> for Strike {
    fn from(rule: Misbehavior) -> Self {
        Strike::Rule(rule)
    }
}

impl Node {
    /// Applies `strike` against the peer on `conn`; bans and disconnects it
    /// when the active policy says so.
    pub(super) fn strike(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, strike: impl Into<Strike>) {
        let Some(peer) = self.peers.get(&conn) else {
            return;
        };
        let (addr, inbound, strike) = (peer.addr, peer.inbound, strike.into());
        let banned = match self.config.peer_policy {
            PeerPolicy::TrustTiers => {
                let outcome = match strike {
                    Strike::Rule(rule) => self
                        .reputation
                        .on_misbehavior(self.now, addr, inbound, rule),
                    Strike::Raw(points) => self.reputation.strike_raw(self.now, addr, points),
                };
                self.note_tier_events();
                if outcome.graylisted() {
                    self.telemetry.graylists += 1;
                }
                outcome.banned()
            }
            // Good-score shield (§VIII): peers with earned credit are
            // exempt from identifier banning.
            PeerPolicy::GoodScore
                if self
                    .goodscore
                    .is_trusted(self.now, &addr, GOOD_SCORE_MIN_CREDIT) =>
            {
                false
            }
            PeerPolicy::Stock | PeerPolicy::GoodScore => {
                let verdict = match strike {
                    Strike::Rule(rule) => self.tracker.misbehaving(self.now, addr, inbound, rule),
                    Strike::Raw(points) => self.tracker.penalize(self.now, addr, points),
                };
                matches!(verdict, Verdict::Ban { .. })
            }
        };
        if banned {
            self.ban_peer(ctx, conn, addr);
        }
    }

    /// Per-frame admission between the checksum and decode stages. Under
    /// trust tiers the frame feeds the peer's flood-pressure bucket and,
    /// while graylisted, the service rate limit. `false` drops the frame
    /// unprocessed (the peer may have been banned).
    pub(super) fn admit_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) -> bool {
        match self.config.peer_policy {
            PeerPolicy::Stock | PeerPolicy::GoodScore => true,
            PeerPolicy::TrustTiers => {
                let Some(addr) = self.peers.get(&conn).map(|p| p.addr) else {
                    return false;
                };
                let outcome = self.reputation.on_message(self.now, addr);
                self.note_tier_events();
                if outcome.changed() && outcome.to == Tier::Graylist {
                    self.telemetry.graylists += 1;
                }
                if outcome.banned() {
                    self.ban_peer(ctx, conn, addr);
                    return false;
                }
                if !outcome.deliver {
                    self.telemetry.graylist_dropped += 1;
                }
                outcome.deliver
            }
        }
    }

    /// Credits `addr` for relaying a valid block.
    pub(super) fn credit_good_block(&mut self, addr: SockAddr) {
        match self.config.peer_policy {
            PeerPolicy::Stock => {}
            PeerPolicy::GoodScore => self.goodscore.credit(self.now, addr),
            PeerPolicy::TrustTiers => {
                // Credit promotion + strike forgiveness in the tier engine.
                self.reputation.on_good_block(self.now, addr);
                self.note_tier_events();
            }
        }
    }

    /// Whether `addr` is skipped for relay and dialed last (graylisted or
    /// worse under trust tiers; never otherwise).
    pub(super) fn deprioritized(&self, addr: &SockAddr) -> bool {
        match self.config.peer_policy {
            PeerPolicy::Stock | PeerPolicy::GoodScore => false,
            PeerPolicy::TrustTiers => self.reputation.deprioritized(self.now, addr),
        }
    }

    /// Whether a full inbound table accepts a newcomer and then evicts
    /// (CKB-style, §IX-A) instead of refusing it.
    pub(super) fn evicts_on_full(&self) -> bool {
        match self.config.peer_policy {
            PeerPolicy::Stock => false,
            PeerPolicy::GoodScore | PeerPolicy::TrustTiers => true,
        }
    }

    /// The inbound connection to evict when the table is over its limit:
    /// graylisted peers first, then the least earned credit, ties broken
    /// by address. A fresh zero-credit newcomer evicts itself before it can
    /// push out anyone with history.
    pub(super) fn eviction_victim(&self) -> Option<ConnId> {
        if !self.evicts_on_full() || self.inbound_count() <= self.config.max_inbound {
            return None;
        }
        let inbound = self.peers.values().filter(|p| p.inbound);
        let victim = inbound.min_by_key(|p| {
            let (credit, tier) = self.peer_standing(&p.addr);
            (tier < Tier::Graylist, credit, p.addr)
        });
        victim.map(|p| p.conn)
    }

    /// `addr`'s good-behaviour credit, as kept by the active policy, and
    /// its trust tier (`Normal` outside trust tiers).
    pub(super) fn peer_standing(&self, addr: &SockAddr) -> (u64, Tier) {
        match self.config.peer_policy {
            PeerPolicy::Stock | PeerPolicy::GoodScore => {
                (self.goodscore.score(self.now, addr), Tier::Normal)
            }
            PeerPolicy::TrustTiers => (
                self.reputation.credit_tracker().score(self.now, addr),
                self.reputation.tier(self.now, addr),
            ),
        }
    }

    /// Hard-bans `addr` in `BanMan` and drops its connection.
    fn ban_peer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, addr: SockAddr) {
        self.telemetry.bans += 1;
        self.banman.ban(self.now, addr);
        self.disconnect(ctx, conn, true);
    }

    /// Forwards tier transitions recorded by the engine since the last
    /// call into telemetry (so `events_in_window` carries them).
    fn note_tier_events(&mut self) {
        for t in self.reputation.take_transitions() {
            self.telemetry
                .record_tier_change(t.time, t.peer, t.from, t.to);
        }
    }
}
