//! Misbehavior tracking: the per-peer score keeping of `PeerManager::
//! Misbehaving`, plus the paper's §VIII countermeasure variants (threshold
//! → ∞, fully disabled, and the good-score mechanism).

use super::rules::{CoreVersion, Misbehavior};
use btc_netsim::packet::SockAddr;
use btc_netsim::time::Nanos;
use std::collections::BTreeMap;

/// How the node reacts to misbehavior (§VIII of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BanPolicy {
    /// Stock behaviour: ban at the threshold (100 by default).
    #[default]
    Standard,
    /// "Ban score threshold to ∞": keep tracking, never ban.
    NeverBan,
    /// "Disabling the checking": `Misbehaving` is a no-op.
    Disabled,
}

/// One recorded score change (used for the Figure-8 staircase).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreEvent {
    /// When it happened.
    pub time: Nanos,
    /// Which peer.
    pub peer: SockAddr,
    /// The rule that fired.
    pub rule: Misbehavior,
    /// Points added.
    pub delta: u32,
    /// Score after the increment.
    pub total: u32,
}

/// The verdict of one `misbehaving()` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Rule disabled (version deprecation, policy, or wrong direction).
    Ignored,
    /// Score increased, still below the threshold.
    Scored {
        /// New total.
        total: u32,
    },
    /// Threshold reached: disconnect and ban this peer.
    Ban {
        /// Final total.
        total: u32,
    },
}

/// Per-peer misbehavior score tracker.
#[derive(Clone, Debug, Default)]
pub struct MisbehaviorTracker {
    /// Rule-set version.
    pub version: CoreVersion,
    /// Reaction policy.
    pub policy: BanPolicy,
    /// Ban threshold (Bitcoin's `-banscore`, default 100).
    pub threshold: u32,
    scores: BTreeMap<SockAddr, u32>,
    events: Vec<ScoreEvent>,
}

impl MisbehaviorTracker {
    /// Creates a tracker with the stock threshold of 100.
    pub fn new(version: CoreVersion, policy: BanPolicy) -> Self {
        MisbehaviorTracker {
            version,
            policy,
            threshold: btc_wire::constants::DEFAULT_BANSCORE_THRESHOLD,
            scores: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Records a misbehavior by `peer` and returns what to do about it.
    ///
    /// Deprecated rules, rules that don't apply to the peer's direction,
    /// and the [`BanPolicy::Disabled`] policy all yield
    /// [`Verdict::Ignored`].
    pub fn misbehaving(
        &mut self,
        now: Nanos,
        peer: SockAddr,
        inbound: bool,
        rule: Misbehavior,
    ) -> Verdict {
        let delta = rule
            .penalty(self.version)
            .filter(|_| rule.applies_to(inbound));
        self.add(now, peer, rule, delta.unwrap_or(0))
    }

    /// Applies a custom score increment outside Table I (ablation hook for
    /// counterfactual rules like punishing corrupted checksums).
    pub fn penalize(&mut self, now: Nanos, peer: SockAddr, delta: u32) -> Verdict {
        self.add(now, peer, Misbehavior::ChecksumCorrupt, delta)
    }

    /// Adds `delta` points for `rule` to `peer`'s score; zero points (a
    /// gated-off rule) and the disabled policy change nothing.
    fn add(&mut self, now: Nanos, peer: SockAddr, rule: Misbehavior, delta: u32) -> Verdict {
        if self.policy == BanPolicy::Disabled || delta == 0 {
            return Verdict::Ignored;
        }
        let score = self.scores.entry(peer).or_insert(0);
        *score = score.saturating_add(delta);
        let total = *score;
        self.events.push(ScoreEvent {
            time: now,
            peer,
            rule,
            delta,
            total,
        });
        if total >= self.threshold && self.policy == BanPolicy::Standard {
            Verdict::Ban { total }
        } else {
            Verdict::Scored { total }
        }
    }

    /// Current score of a peer (0 if never seen).
    pub fn score(&self, peer: &SockAddr) -> u32 {
        self.scores.get(peer).copied().unwrap_or(0)
    }

    /// Forgets a peer's score (Core does this on disconnect).
    pub fn forget(&mut self, peer: &SockAddr) {
        self.scores.remove(peer);
    }

    /// Every score change recorded so far.
    pub fn events(&self) -> &[ScoreEvent] {
        &self.events
    }

    /// Number of peers with a nonzero score.
    pub fn tracked_peers(&self) -> usize {
        self.scores.len()
    }
}

/// Maximum credit a peer can accumulate. Without a cap, a long-lived
/// idle peer holds eviction immunity forever — exactly the brittleness
/// the trust-tier engine is meant to remove.
pub const GOOD_SCORE_CAP: u64 = 64;

/// Credit a peer needs before the good-score policy shields it from
/// strikes (one valid block).
pub const GOOD_SCORE_MIN_CREDIT: u64 = 1;

/// Credit half-life on sim time: stored credit halves once per hour of
/// inactivity (integer halving, so the decay is exact and deterministic).
pub const GOOD_SCORE_HALF_LIFE: Nanos = 60 * btc_netsim::time::MINUTES;

/// The §VIII *good-score* countermeasure: peers earn credit (+1 per valid
/// `BLOCK`), and the node prefers evicting low-credit peers instead of
/// banning identifiers — an innocent peer with history cannot be defamed
/// into a ban.
///
/// Credit is capped at [`GOOD_SCORE_CAP`] and decays on sim time with
/// half-life [`GOOD_SCORE_HALF_LIFE`] (one right-shift per elapsed
/// half-life), so immunity has to be re-earned rather than hoarded.
#[derive(Clone, Debug, Default)]
pub struct GoodScoreTracker {
    scores: BTreeMap<SockAddr, (u64, Nanos)>,
}

impl GoodScoreTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored credit halved once per elapsed half-life since `since`.
    fn decayed(stored: u64, since: Nanos, now: Nanos) -> u64 {
        let elapsed = now.saturating_sub(since);
        let halvings = (elapsed / GOOD_SCORE_HALF_LIFE).min(63);
        stored >> halvings
    }

    /// Credits `peer` for a valid block at sim time `now`.
    pub fn credit(&mut self, now: Nanos, peer: SockAddr) {
        let entry = self.scores.entry(peer).or_insert((0, now));
        let current = Self::decayed(entry.0, entry.1, now.max(entry.1));
        *entry = ((current + 1).min(GOOD_SCORE_CAP), now.max(entry.1));
    }

    /// Current (decayed) credit of a peer at sim time `now`.
    pub fn score(&self, now: Nanos, peer: &SockAddr) -> u64 {
        self.scores
            .get(peer)
            .map(|(s, t)| Self::decayed(*s, *t, now.max(*t)))
            .unwrap_or(0)
    }

    /// Whether `peer` has enough credit to be shielded from banning.
    pub fn is_trusted(&self, now: Nanos, peer: &SockAddr, min_credit: u64) -> bool {
        self.score(now, peer) >= min_credit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(last: u8) -> SockAddr {
        SockAddr::new([10, 0, 0, last], 8333)
    }

    #[test]
    fn scores_accumulate_to_ban() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let p = peer(1);
        // 4 × 20 = 80, then 20 more = 100 → ban.
        for i in 1..=4 {
            let v = t.misbehaving(i, p, true, Misbehavior::AddrOversize);
            assert_eq!(v, Verdict::Scored { total: i as u32 * 20 });
        }
        let v = t.misbehaving(5, p, true, Misbehavior::AddrOversize);
        assert_eq!(v, Verdict::Ban { total: 100 });
    }

    #[test]
    fn hundred_point_rules_ban_instantly() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        assert_eq!(
            t.misbehaving(0, peer(1), true, Misbehavior::BlockMutated),
            Verdict::Ban { total: 100 }
        );
    }

    #[test]
    fn duplicate_version_takes_100_messages() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let p = peer(2);
        for i in 1..100u32 {
            assert_eq!(
                t.misbehaving(i as u64, p, true, Misbehavior::DuplicateVersion),
                Verdict::Scored { total: i }
            );
        }
        assert_eq!(
            t.misbehaving(100, p, true, Misbehavior::DuplicateVersion),
            Verdict::Ban { total: 100 }
        );
    }

    #[test]
    fn direction_restrictions_respected() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        // Inbound-only rule ignored for outbound peer.
        assert_eq!(
            t.misbehaving(0, peer(1), false, Misbehavior::DuplicateVersion),
            Verdict::Ignored
        );
        // Outbound-only rule ignored for inbound peer.
        assert_eq!(
            t.misbehaving(0, peer(1), true, Misbehavior::BlockCachedInvalid),
            Verdict::Ignored
        );
        assert_eq!(t.score(&peer(1)), 0);
    }

    #[test]
    fn deprecated_rules_ignored() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_22, BanPolicy::Standard);
        assert_eq!(
            t.misbehaving(0, peer(1), true, Misbehavior::DuplicateVersion),
            Verdict::Ignored
        );
    }

    #[test]
    fn never_ban_policy_keeps_counting() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::NeverBan);
        let p = peer(3);
        for _ in 0..50 {
            let v = t.misbehaving(0, p, true, Misbehavior::BlockMutated);
            assert!(matches!(v, Verdict::Scored { .. }));
        }
        assert_eq!(t.score(&p), 5000);
    }

    #[test]
    fn disabled_policy_tracks_nothing() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Disabled);
        assert_eq!(
            t.misbehaving(0, peer(1), true, Misbehavior::BlockMutated),
            Verdict::Ignored
        );
        assert_eq!(t.score(&peer(1)), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn events_form_a_staircase() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let p = peer(4);
        for i in 0..100u64 {
            t.misbehaving(i, p, true, Misbehavior::DuplicateVersion);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 100);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.total, i as u32 + 1);
            assert_eq!(e.delta, 1);
        }
    }

    #[test]
    fn forget_resets_score() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        t.misbehaving(0, peer(1), true, Misbehavior::AddrOversize);
        assert_eq!(t.score(&peer(1)), 20);
        t.forget(&peer(1));
        assert_eq!(t.score(&peer(1)), 0);
    }

    #[test]
    fn scores_are_per_identifier_not_per_ip() {
        // The Sybil vector: same IP, different port = fresh score.
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let a = SockAddr::new([10, 0, 0, 9], 50_000);
        let b = SockAddr::new([10, 0, 0, 9], 50_001);
        t.misbehaving(0, a, true, Misbehavior::BlockMutated);
        assert_eq!(t.score(&a), 100);
        assert_eq!(t.score(&b), 0);
    }

    #[test]
    fn good_score_credits_and_trust() {
        let mut g = GoodScoreTracker::new();
        let p = peer(5);
        assert!(!g.is_trusted(0, &p, 1));
        for _ in 0..3 {
            g.credit(0, p);
        }
        assert_eq!(g.score(0, &p), 3);
        assert!(g.is_trusted(0, &p, 3));
        assert!(!g.is_trusted(0, &p, 4));
    }

    #[test]
    fn good_score_credit_is_capped() {
        // Regression: credit used to grow without bound, so a long-lived
        // peer held eviction immunity forever.
        let mut g = GoodScoreTracker::new();
        let p = peer(6);
        for _ in 0..10 * GOOD_SCORE_CAP {
            g.credit(0, p);
        }
        assert_eq!(g.score(0, &p), GOOD_SCORE_CAP);
    }

    #[test]
    fn good_score_decays_on_sim_time() {
        let mut g = GoodScoreTracker::new();
        let p = peer(7);
        for _ in 0..8 {
            g.credit(0, p);
        }
        assert_eq!(g.score(0, &p), 8);
        // Within one half-life: unchanged.
        assert_eq!(g.score(GOOD_SCORE_HALF_LIFE - 1, &p), 8);
        // One halving per elapsed half-life, down to zero.
        assert_eq!(g.score(GOOD_SCORE_HALF_LIFE, &p), 4);
        assert_eq!(g.score(2 * GOOD_SCORE_HALF_LIFE, &p), 2);
        assert_eq!(g.score(3 * GOOD_SCORE_HALF_LIFE, &p), 1);
        assert_eq!(g.score(4 * GOOD_SCORE_HALF_LIFE, &p), 0);
        // A credit after decay rebuilds from the decayed value, and a
        // huge gap cannot shift past the integer width.
        g.credit(2 * GOOD_SCORE_HALF_LIFE, p);
        assert_eq!(g.score(2 * GOOD_SCORE_HALF_LIFE, &p), 3);
        assert_eq!(g.score(Nanos::MAX, &p), 0);
    }

    #[test]
    fn good_score_time_never_runs_backwards() {
        // Out-of-order queries (now < last update) must not underflow or
        // inflate the score: the tracker clamps to the last-update time.
        let mut g = GoodScoreTracker::new();
        let p = peer(8);
        g.credit(5 * GOOD_SCORE_HALF_LIFE, p);
        assert_eq!(g.score(0, &p), 1);
        g.credit(0, p);
        assert_eq!(g.score(5 * GOOD_SCORE_HALF_LIFE, &p), 2);
    }

    #[test]
    fn penalize_saturates_near_u32_max() {
        // Regression (satellite audit): repeated large strikes must pin at
        // u32::MAX instead of wrapping back below the threshold.
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::NeverBan);
        let p = peer(9);
        t.penalize(0, p, u32::MAX - 50);
        assert_eq!(t.score(&p), u32::MAX - 50);
        assert_eq!(t.penalize(1, p, 100), Verdict::Scored { total: u32::MAX });
        assert_eq!(t.penalize(2, p, u32::MAX), Verdict::Scored { total: u32::MAX });
        assert_eq!(t.score(&p), u32::MAX);
    }

    #[test]
    fn misbehaving_saturates_near_u32_max() {
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let p = peer(10);
        t.penalize(0, p, u32::MAX - 50);
        // A 100-point strike on top of MAX-50 saturates and still bans;
        // further strikes stay pinned at MAX (no wrap past the threshold).
        assert_eq!(
            t.misbehaving(1, p, true, Misbehavior::BlockMutated),
            Verdict::Ban { total: u32::MAX }
        );
        assert_eq!(
            t.misbehaving(2, p, true, Misbehavior::BlockMutated),
            Verdict::Ban { total: u32::MAX }
        );
    }
}
