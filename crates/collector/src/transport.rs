//! Fault-injected agent→server transport.
//!
//! Uploads ride cellular/WiFi links that drop out (tunnels, dead zones,
//! congested APs). [`LossyTransport`] models the channel: each send either
//! fails visibly (agent keeps the record cached and retries later), or is
//! accepted and then delivered — possibly delayed, duplicated or corrupted
//! in flight. On top of the i.i.d. per-send [`FaultPlan`], a seeded
//! [`ChaosSchedule`] layers *bursty* episodes — link-down windows,
//! congestion periods, and server outages — so failures cluster the way
//! real uplinks do. The cleaning pipeline must converge to the same
//! dataset regardless, which the property tests in `chaos` verify.

use bytes::Bytes;
use mobitrace_model::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Fault probabilities for the channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a send visibly fails (agent retries later).
    pub fail: f64,
    /// Probability an accepted frame is silently dropped in flight.
    pub drop: f64,
    /// Probability an accepted frame is delivered twice.
    pub duplicate: f64,
    /// Probability an accepted frame has one byte corrupted.
    pub corrupt: f64,
    /// Maximum in-flight delay in minutes (uniform 0..max).
    pub max_delay_min: u32,
}

impl FaultPlan {
    /// A perfectly reliable channel.
    pub fn reliable() -> FaultPlan {
        FaultPlan { fail: 0.0, drop: 0.0, duplicate: 0.0, corrupt: 0.0, max_delay_min: 0 }
    }

    /// A realistic mobile uplink: a few percent of visible failures,
    /// occasional silent loss, rare duplication and corruption.
    pub fn mobile() -> FaultPlan {
        FaultPlan { fail: 0.03, drop: 0.005, duplicate: 0.01, corrupt: 0.002, max_delay_min: 30 }
    }

    /// A hostile channel for stress tests.
    pub fn hostile() -> FaultPlan {
        FaultPlan { fail: 0.25, drop: 0.05, duplicate: 0.10, corrupt: 0.03, max_delay_min: 120 }
    }

    /// A copy with every probability clamped to `[0, 1]` and NaN mapped
    /// to zero. `Rng::gen_bool` panics on out-of-range `p`, so a single
    /// bad config value would otherwise abort a whole campaign;
    /// [`LossyTransport`] sanitizes its plan at construction.
    pub fn sanitized(self) -> FaultPlan {
        fn clamp01(p: f64) -> f64 {
            if p.is_nan() {
                0.0
            } else {
                p.clamp(0.0, 1.0)
            }
        }
        FaultPlan {
            fail: clamp01(self.fail),
            drop: clamp01(self.drop),
            duplicate: clamp01(self.duplicate),
            corrupt: clamp01(self.corrupt),
            max_delay_min: self.max_delay_min,
        }
    }
}

/// What a chaos episode does to the channel while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EpisodeKind {
    /// The uplink is gone (tunnel, dead zone): every send fails visibly.
    LinkDown,
    /// A congested link: the visible-failure rate is raised to at least
    /// `fail`, and deliveries take up to `extra_delay_min` longer.
    Congestion {
        /// Failure probability floor while congested.
        fail: f64,
        /// Extra in-flight delay bound in minutes.
        extra_delay_min: u32,
    },
    /// The collection server is down: sends fail visibly and frames
    /// *delivered* inside the window are lost.
    ServerOutage,
}

/// One contiguous fault window, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Episode {
    /// First minute the episode is active.
    pub start: SimTime,
    /// First minute after the episode (exclusive).
    pub end: SimTime,
    /// What the episode does.
    pub kind: EpisodeKind,
}

impl Episode {
    /// Whether `t` falls inside the episode window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// The combined channel state at one instant, folded over all active
/// episodes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosEffect {
    /// At least one link-down episode is active.
    pub link_down: bool,
    /// At least one server outage is active.
    pub server_down: bool,
    /// Highest congestion failure floor among active episodes.
    pub fail_floor: f64,
    /// Highest extra delay bound among active episodes.
    pub extra_delay_min: u32,
}

/// Rates for generating a seeded [`ChaosSchedule`]. Link-down and
/// congestion episodes are per-device (each handset sees its own
/// tunnels); server outages are global to a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Expected link-down episodes per device per day.
    pub link_down_per_day: f64,
    /// Link-down duration range in minutes (inclusive).
    pub link_down_minutes: (u32, u32),
    /// Expected congestion episodes per device per day.
    pub congestion_per_day: f64,
    /// Congestion duration range in minutes (inclusive).
    pub congestion_minutes: (u32, u32),
    /// Failure-probability floor while congested.
    pub congestion_fail: f64,
    /// Extra delay bound while congested, in minutes.
    pub congestion_extra_delay_min: u32,
    /// Expected server outages over the whole campaign.
    pub server_outages: f64,
    /// Server outage duration range in minutes (inclusive).
    pub server_outage_minutes: (u32, u32),
}

impl ChaosProfile {
    /// Rare, short episodes: an occasional tunnel, no server trouble.
    pub fn calm() -> ChaosProfile {
        ChaosProfile {
            link_down_per_day: 0.5,
            link_down_minutes: (10, 30),
            congestion_per_day: 0.5,
            congestion_minutes: (20, 60),
            congestion_fail: 0.3,
            congestion_extra_delay_min: 20,
            server_outages: 0.0,
            server_outage_minutes: (0, 0),
        }
    }

    /// A flaky deployment: daily dead zones and congestion, plus the
    /// occasional short server outage.
    pub fn flaky() -> ChaosProfile {
        ChaosProfile {
            link_down_per_day: 2.0,
            link_down_minutes: (10, 90),
            congestion_per_day: 2.0,
            congestion_minutes: (30, 120),
            congestion_fail: 0.6,
            congestion_extra_delay_min: 60,
            server_outages: 1.0,
            server_outage_minutes: (30, 120),
        }
    }

    /// Everything goes wrong, often, for a long time.
    pub fn hostile() -> ChaosProfile {
        ChaosProfile {
            link_down_per_day: 4.0,
            link_down_minutes: (30, 240),
            congestion_per_day: 4.0,
            congestion_minutes: (60, 240),
            congestion_fail: 0.9,
            congestion_extra_delay_min: 180,
            server_outages: 3.0,
            server_outage_minutes: (60, 360),
        }
    }
}

/// A deterministic, seeded list of fault episodes layered over a
/// [`FaultPlan`]. Generate one global schedule for server outages and
/// one per-device schedule for link faults, then merge them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosSchedule {
    episodes: Vec<Episode>,
}

impl ChaosSchedule {
    /// No chaos at all.
    pub fn none() -> ChaosSchedule {
        ChaosSchedule { episodes: Vec::new() }
    }

    /// A schedule from explicit episodes.
    pub fn from_episodes(episodes: Vec<Episode>) -> ChaosSchedule {
        ChaosSchedule { episodes }
    }

    /// Per-device link faults (dead zones + congestion) over `days` days.
    pub fn device_schedule<R: Rng + ?Sized>(
        profile: &ChaosProfile,
        days: u32,
        rng: &mut R,
    ) -> ChaosSchedule {
        let mut episodes = Vec::new();
        for day in 0..days {
            for _ in 0..sample_count(profile.link_down_per_day, rng) {
                episodes.push(sample_episode(
                    day,
                    profile.link_down_minutes,
                    EpisodeKind::LinkDown,
                    rng,
                ));
            }
            let kind = EpisodeKind::Congestion {
                fail: profile.congestion_fail,
                extra_delay_min: profile.congestion_extra_delay_min,
            };
            for _ in 0..sample_count(profile.congestion_per_day, rng) {
                episodes.push(sample_episode(day, profile.congestion_minutes, kind, rng));
            }
        }
        ChaosSchedule { episodes }
    }

    /// Campaign-global server outages over `days` days.
    pub fn server_schedule<R: Rng + ?Sized>(
        profile: &ChaosProfile,
        days: u32,
        rng: &mut R,
    ) -> ChaosSchedule {
        let mut episodes = Vec::new();
        let total_min = days * mobitrace_model::BINS_PER_DAY * mobitrace_model::BIN_MINUTES;
        if total_min == 0 {
            return ChaosSchedule { episodes };
        }
        for _ in 0..sample_count(profile.server_outages, rng) {
            let start = rng.gen_range(0..total_min);
            let (lo, hi) = profile.server_outage_minutes;
            let dur = rng.gen_range(lo..=hi.max(lo)).max(1);
            episodes.push(Episode {
                start: SimTime::from_minutes(start),
                end: SimTime::from_minutes(start.saturating_add(dur)),
                kind: EpisodeKind::ServerOutage,
            });
        }
        ChaosSchedule { episodes }
    }

    /// This schedule plus another one (e.g. per-device link faults merged
    /// with the campaign's global server outages).
    pub fn merged_with(&self, other: &ChaosSchedule) -> ChaosSchedule {
        let mut episodes = self.episodes.clone();
        episodes.extend(other.episodes.iter().copied());
        ChaosSchedule { episodes }
    }

    /// The episodes in the schedule.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Fold every episode active at `t` into one effect. Schedules hold
    /// at most a handful of episodes per day, so a linear scan is fine.
    pub fn effect_at(&self, t: SimTime) -> ChaosEffect {
        let mut eff = ChaosEffect::default();
        for ep in &self.episodes {
            if !ep.contains(t) {
                continue;
            }
            match ep.kind {
                EpisodeKind::LinkDown => eff.link_down = true,
                EpisodeKind::ServerOutage => eff.server_down = true,
                EpisodeKind::Congestion { fail, extra_delay_min } => {
                    if fail > eff.fail_floor {
                        eff.fail_floor = fail;
                    }
                    if extra_delay_min > eff.extra_delay_min {
                        eff.extra_delay_min = extra_delay_min;
                    }
                }
            }
        }
        eff
    }

    /// Whether a server outage is active at `t`.
    pub fn server_down_at(&self, t: SimTime) -> bool {
        self.episodes
            .iter()
            .any(|ep| matches!(ep.kind, EpisodeKind::ServerOutage) && ep.contains(t))
    }
}

/// Episodes-per-window sampling: `floor(rate)` plus a Bernoulli draw on
/// the fractional part, so fractional rates average out over many days.
fn sample_count<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> u32 {
    if !rate.is_finite() || rate <= 0.0 {
        return 0;
    }
    let rate = rate.min(64.0);
    let base = rate.floor() as u32;
    let fract = rate - rate.floor();
    base + u32::from(fract > 0.0 && rng.gen_bool(fract))
}

fn sample_episode<R: Rng + ?Sized>(
    day: u32,
    minutes: (u32, u32),
    kind: EpisodeKind,
    rng: &mut R,
) -> Episode {
    let day_min = mobitrace_model::BINS_PER_DAY * mobitrace_model::BIN_MINUTES;
    let start = day * day_min + rng.gen_range(0..day_min);
    let (lo, hi) = minutes;
    let dur = rng.gen_range(lo..=hi.max(lo)).max(1);
    Episode {
        start: SimTime::from_minutes(start),
        end: SimTime::from_minutes(start.saturating_add(dur)),
        kind,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    deliver_at: SimTime,
    // Tie-break so the heap is deterministic.
    seq: u64,
    frame: Bytes,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other.deliver_at.cmp(&self.deliver_at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The lossy channel between agents and the collection server.
#[derive(Debug)]
pub struct LossyTransport {
    plan: FaultPlan,
    chaos: ChaosSchedule,
    in_flight: BinaryHeap<InFlight>,
    next_seq: u64,
    /// Counters for observability.
    pub sent: u64,
    /// Sends that visibly failed.
    pub failed: u64,
    /// Frames silently dropped in flight.
    pub dropped: u64,
    /// Extra duplicate deliveries.
    pub duplicated: u64,
    /// Frames corrupted in flight.
    pub corrupted: u64,
    /// Visible failures caused by a chaos episode (subset of `failed`).
    pub chaos_failed: u64,
    /// Frames lost because they arrived during a server outage.
    pub lost_server_down: u64,
}

impl LossyTransport {
    /// New transport with a fault plan and no chaos schedule.
    pub fn new(plan: FaultPlan) -> LossyTransport {
        LossyTransport::with_chaos(plan, ChaosSchedule::none())
    }

    /// New transport with a fault plan and a chaos schedule. The plan is
    /// sanitized ([`FaultPlan::sanitized`]): out-of-range probabilities
    /// degrade the channel, they do not abort the campaign.
    pub fn with_chaos(plan: FaultPlan, chaos: ChaosSchedule) -> LossyTransport {
        LossyTransport {
            plan: plan.sanitized(),
            chaos,
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            sent: 0,
            failed: 0,
            dropped: 0,
            duplicated: 0,
            corrupted: 0,
            chaos_failed: 0,
            lost_server_down: 0,
        }
    }

    /// The chaos schedule driving this channel.
    pub fn chaos(&self) -> &ChaosSchedule {
        &self.chaos
    }

    /// Attempt to send a frame at time `now`. Returns `false` on a visible
    /// failure (the agent must keep the frame and retry).
    pub fn send<R: Rng + ?Sized>(&mut self, rng: &mut R, now: SimTime, frame: Bytes) -> bool {
        self.sent += 1;
        let eff = self.chaos.effect_at(now);
        if eff.link_down || eff.server_down {
            // Dead zone or unreachable server: the connection itself
            // fails, so the agent sees it and keeps the frame.
            self.failed += 1;
            self.chaos_failed += 1;
            return false;
        }
        let fail_p = self.plan.fail.max(eff.fail_floor).clamp(0.0, 1.0);
        if rng.gen_bool(fail_p) {
            self.failed += 1;
            if fail_p > self.plan.fail {
                self.chaos_failed += 1;
            }
            return false;
        }
        if rng.gen_bool(self.plan.drop) {
            self.dropped += 1;
            return true; // agent believes it succeeded
        }
        let mut deliveries = 1;
        if rng.gen_bool(self.plan.duplicate) {
            self.duplicated += 1;
            deliveries = 2;
        }
        let max_delay = self.plan.max_delay_min + eff.extra_delay_min;
        for _ in 0..deliveries {
            let delay = if max_delay == 0 { 0 } else { rng.gen_range(0..=max_delay) };
            let frame = if rng.gen_bool(self.plan.corrupt) {
                self.corrupted += 1;
                corrupt_one_byte(rng, &frame)
            } else {
                frame.clone()
            };
            self.in_flight.push(InFlight {
                deliver_at: now.plus_minutes(delay),
                seq: self.next_seq,
                frame,
            });
            self.next_seq += 1;
        }
        true
    }

    /// Pop every frame due at or before `now`. Frames whose delivery
    /// instant falls inside a server-outage window are lost and counted
    /// in `lost_server_down`.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(head) = self.in_flight.peek() {
            if head.deliver_at > now {
                break;
            }
            let head = self.in_flight.pop().expect("peeked");
            if self.chaos.server_down_at(head.deliver_at) {
                self.lost_server_down += 1;
            } else {
                out.push(head.frame);
            }
        }
        out
    }

    /// Deliver everything still in flight (end of campaign). Frames that
    /// would have arrived during a server outage are still lost.
    pub fn drain(&mut self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(f) = self.in_flight.pop() {
            if self.chaos.server_down_at(f.deliver_at) {
                self.lost_server_down += 1;
            } else {
                out.push(f.frame);
            }
        }
        out
    }

    /// Frames currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

fn corrupt_one_byte<R: Rng + ?Sized>(rng: &mut R, frame: &Bytes) -> Bytes {
    let mut raw = frame.to_vec();
    if !raw.is_empty() {
        let pos = rng.gen_range(0..raw.len());
        raw[pos] ^= 1 << rng.gen_range(0..8);
    }
    Bytes::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 16])
    }

    #[test]
    fn reliable_channel_delivers_everything_in_order() {
        let mut t = LossyTransport::new(FaultPlan::reliable());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let now = SimTime::from_minutes(100);
        for k in 0..10 {
            assert!(t.send(&mut rng, now, frame(k)));
        }
        let got = t.deliver_due(now);
        assert_eq!(got.len(), 10);
        for (k, f) in got.iter().enumerate() {
            assert_eq!(f[0], k as u8);
        }
        assert_eq!(t.in_flight_len(), 0);
    }

    #[test]
    fn delayed_frames_wait_their_turn() {
        let plan = FaultPlan { max_delay_min: 60, ..FaultPlan::reliable() };
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let now = SimTime::from_minutes(0);
        for k in 0..50 {
            t.send(&mut rng, now, frame(k));
        }
        let immediate = t.deliver_due(now).len();
        assert!(immediate < 50, "some frames must be delayed");
        let later = t.deliver_due(SimTime::from_minutes(60)).len();
        assert_eq!(immediate + later, 50);
    }

    #[test]
    fn visible_failures_reported() {
        let plan = FaultPlan { fail: 1.0, ..FaultPlan::reliable() };
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(!t.send(&mut rng, SimTime::ZERO, frame(0)));
        assert_eq!(t.failed, 1);
        assert_eq!(t.in_flight_len(), 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let plan = FaultPlan { duplicate: 1.0, ..FaultPlan::reliable() };
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        t.send(&mut rng, SimTime::ZERO, frame(9));
        assert_eq!(t.deliver_due(SimTime::ZERO).len(), 2);
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let plan = FaultPlan { corrupt: 1.0, ..FaultPlan::reliable() };
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let original = frame(7);
        t.send(&mut rng, SimTime::ZERO, original.clone());
        let got = t.deliver_due(SimTime::ZERO);
        let diff: u32 = original.iter().zip(got[0].iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn drain_empties_channel() {
        let plan = FaultPlan { max_delay_min: 1000, ..FaultPlan::reliable() };
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for k in 0..20 {
            t.send(&mut rng, SimTime::ZERO, frame(k));
        }
        let drained = t.drain();
        assert_eq!(drained.len() + t.deliver_due(SimTime::ZERO).len(), 20);
        assert_eq!(t.in_flight_len(), 0);
    }

    #[test]
    fn hostile_channel_statistics() {
        let mut t = LossyTransport::new(FaultPlan::hostile());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 5000;
        for k in 0..n {
            t.send(&mut rng, SimTime::from_minutes(k), frame((k % 256) as u8));
        }
        let fail_rate = t.failed as f64 / n as f64;
        assert!((fail_rate - 0.25).abs() < 0.03, "fail rate {fail_rate}");
        assert!(t.duplicated > 0 && t.corrupted > 0 && t.dropped > 0);
    }

    #[test]
    fn bad_fault_plan_is_sanitized_not_fatal() {
        let plan = FaultPlan {
            fail: 1.5,
            drop: -0.2,
            duplicate: f64::NAN,
            corrupt: 2.0,
            max_delay_min: 0,
        };
        // Out-of-range probabilities would make `gen_bool` panic; the
        // sanitized transport must survive a full send instead.
        let mut t = LossyTransport::new(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert!(!t.send(&mut rng, SimTime::ZERO, frame(0)), "fail clamps to 1.0");
        let clean = plan.sanitized();
        assert_eq!(clean.fail, 1.0);
        assert_eq!(clean.drop, 0.0);
        assert_eq!(clean.duplicate, 0.0);
        assert_eq!(clean.corrupt, 1.0);
    }

    #[test]
    fn link_down_window_fails_every_send_inside_it() {
        let chaos = ChaosSchedule::from_episodes(vec![Episode {
            start: SimTime::from_minutes(100),
            end: SimTime::from_minutes(200),
            kind: EpisodeKind::LinkDown,
        }]);
        let mut t = LossyTransport::with_chaos(FaultPlan::reliable(), chaos);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert!(t.send(&mut rng, SimTime::from_minutes(99), frame(0)));
        assert!(!t.send(&mut rng, SimTime::from_minutes(100), frame(1)));
        assert!(!t.send(&mut rng, SimTime::from_minutes(199), frame(2)));
        assert!(t.send(&mut rng, SimTime::from_minutes(200), frame(3)));
        assert_eq!(t.failed, 2);
        assert_eq!(t.chaos_failed, 2);
    }

    #[test]
    fn congestion_raises_fail_rate_and_delay() {
        let chaos = ChaosSchedule::from_episodes(vec![Episode {
            start: SimTime::ZERO,
            end: SimTime::from_minutes(10_000),
            kind: EpisodeKind::Congestion { fail: 0.5, extra_delay_min: 60 },
        }]);
        let mut t = LossyTransport::with_chaos(FaultPlan::reliable(), chaos);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 4000;
        for k in 0..n {
            t.send(&mut rng, SimTime::from_minutes(k % 10_000), frame((k % 256) as u8));
        }
        let fail_rate = t.failed as f64 / n as f64;
        assert!((fail_rate - 0.5).abs() < 0.05, "fail rate {fail_rate}");
        assert_eq!(t.chaos_failed, t.failed, "all failures came from congestion");
        // Extra delay means sends from minute 0 are not all due at minute 0.
        let mut t2 = LossyTransport::with_chaos(
            FaultPlan::reliable(),
            ChaosSchedule::from_episodes(vec![Episode {
                start: SimTime::ZERO,
                end: SimTime::from_minutes(10),
                kind: EpisodeKind::Congestion { fail: 0.0, extra_delay_min: 120 },
            }]),
        );
        for k in 0..50 {
            t2.send(&mut rng, SimTime::ZERO, frame(k));
        }
        let immediate = t2.deliver_due(SimTime::ZERO).len();
        assert!(immediate < 50, "some frames are delayed past the base bound");
        assert_eq!(immediate + t2.deliver_due(SimTime::from_minutes(120)).len(), 50);
        assert_eq!(t2.in_flight_len(), 0);
    }

    #[test]
    fn frames_delivered_into_a_server_outage_are_lost() {
        let chaos = ChaosSchedule::from_episodes(vec![Episode {
            start: SimTime::from_minutes(50),
            end: SimTime::from_minutes(100),
            kind: EpisodeKind::ServerOutage,
        }]);
        let plan = FaultPlan { max_delay_min: 60, ..FaultPlan::reliable() };
        let mut t = LossyTransport::with_chaos(plan, chaos);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Sends during the outage fail visibly.
        assert!(!t.send(&mut rng, SimTime::from_minutes(60), frame(0)));
        assert_eq!(t.chaos_failed, 1);
        // Sends just before the outage may land inside it and be lost.
        let n = 200;
        for k in 0..n {
            t.send(&mut rng, SimTime::from_minutes(20), frame(k as u8));
        }
        let delivered = t.drain().len() as u64;
        assert!(t.lost_server_down > 0, "delayed frames landed in the outage");
        assert_eq!(delivered + t.lost_server_down, n);
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let profile = ChaosProfile::flaky();
        let a = ChaosSchedule::device_schedule(&profile, 15, &mut ChaCha8Rng::seed_from_u64(42));
        let b = ChaosSchedule::device_schedule(&profile, 15, &mut ChaCha8Rng::seed_from_u64(42));
        let c = ChaosSchedule::device_schedule(&profile, 15, &mut ChaCha8Rng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.episodes().is_empty());
        let s = ChaosSchedule::server_schedule(&profile, 15, &mut ChaCha8Rng::seed_from_u64(42));
        let merged = a.merged_with(&s);
        assert_eq!(merged.episodes().len(), a.episodes().len() + s.episodes().len());
    }

    #[test]
    fn hostile_profile_produces_bursty_failures() {
        let profile = ChaosProfile::hostile();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let chaos = ChaosSchedule::device_schedule(&profile, 5, &mut rng);
        let mut t = LossyTransport::with_chaos(FaultPlan::reliable(), chaos);
        let mut down_minutes = 0u32;
        let total = 5 * 24 * 60;
        for m in 0..total {
            if !t.send(&mut rng, SimTime::from_minutes(m), frame((m % 256) as u8)) {
                down_minutes += 1;
            }
        }
        assert!(down_minutes > 0, "hostile chaos must cause outages");
        assert!(down_minutes < total, "link must come back between episodes");
        assert_eq!(t.failed, u64::from(down_minutes));
        assert_eq!(t.chaos_failed, t.failed, "reliable plan: every failure is chaos");
    }

    fn episode(start: u32, end: u32, kind: EpisodeKind) -> Episode {
        Episode { start: SimTime::from_minutes(start), end: SimTime::from_minutes(end), kind }
    }

    #[test]
    fn episode_window_is_half_open() {
        let ep = episode(100, 130, EpisodeKind::LinkDown);
        assert!(!ep.contains(SimTime::from_minutes(99)));
        assert!(ep.contains(SimTime::from_minutes(100)));
        assert!(ep.contains(SimTime::from_minutes(129)));
        assert!(!ep.contains(SimTime::from_minutes(130)));
    }

    #[test]
    fn effect_folds_every_active_episode() {
        let congestion = |fail, extra_delay_min| EpisodeKind::Congestion { fail, extra_delay_min };
        let chaos = ChaosSchedule::from_episodes(vec![
            episode(0, 100, congestion(0.3, 90)),
            episode(50, 150, congestion(0.7, 20)),
            episode(60, 70, EpisodeKind::LinkDown),
            episode(80, 90, EpisodeKind::ServerOutage),
        ]);
        let at = |m| chaos.effect_at(SimTime::from_minutes(m));
        assert_eq!(at(200), ChaosEffect::default(), "no episode, no effect");
        assert_eq!(
            at(10),
            ChaosEffect { fail_floor: 0.3, extra_delay_min: 90, ..ChaosEffect::default() }
        );
        // Overlapping congestion takes the highest floor and the longest
        // delay, even when they come from different episodes.
        let both = at(65);
        assert_eq!((both.fail_floor, both.extra_delay_min), (0.7, 90));
        assert!(both.link_down && !both.server_down);
        let outage = at(85);
        assert!(outage.server_down && !outage.link_down);
        assert_eq!(at(120).fail_floor, 0.7);
    }

    #[test]
    fn only_outages_take_the_server_down() {
        let link = ChaosSchedule::from_episodes(vec![
            episode(0, 50, EpisodeKind::LinkDown),
            episode(0, 50, EpisodeKind::Congestion { fail: 1.0, extra_delay_min: 10 }),
        ]);
        let server = ChaosSchedule::from_episodes(vec![episode(40, 60, EpisodeKind::ServerOutage)]);
        let merged = link.merged_with(&server);
        assert_eq!(merged.episodes()[..2], link.episodes()[..]);
        assert_eq!(merged.episodes()[2..], server.episodes()[..]);
        let down: Vec<u32> =
            (0..70).filter(|&m| merged.server_down_at(SimTime::from_minutes(m))).collect();
        assert_eq!(down, (40..60).collect::<Vec<_>>());
        assert!(!link.server_down_at(SimTime::from_minutes(10)));
    }

    #[test]
    fn zero_or_invalid_rates_schedule_nothing() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let profile = ChaosProfile {
                link_down_per_day: rate,
                congestion_per_day: rate,
                server_outages: rate,
                ..ChaosProfile::hostile()
            };
            assert!(ChaosSchedule::device_schedule(&profile, 30, &mut rng).episodes().is_empty());
            assert!(ChaosSchedule::server_schedule(&profile, 30, &mut rng).episodes().is_empty());
        }
        let hostile = ChaosProfile::hostile();
        assert!(ChaosSchedule::server_schedule(&hostile, 0, &mut rng).episodes().is_empty());
        assert!(ChaosSchedule::device_schedule(&hostile, 0, &mut rng).episodes().is_empty());
    }

    #[test]
    fn sampled_episodes_respect_their_day_and_duration() {
        let profile = ChaosProfile::flaky();
        let day = mobitrace_model::BINS_PER_DAY * mobitrace_model::BIN_MINUTES;
        let chaos = ChaosSchedule::device_schedule(&profile, 40, &mut ChaCha8Rng::seed_from_u64(8));
        // Whole rates: exactly two link-down and two congestion episodes a day.
        assert_eq!(chaos.episodes().len(), 40 * 4);
        for (i, ep) in chaos.episodes().iter().enumerate() {
            let d = (i / 4) as u32;
            assert!((d * day..(d + 1) * day).contains(&ep.start.minute), "episode {i}: {ep:?}");
            let (lo, hi) = match ep.kind {
                EpisodeKind::LinkDown => profile.link_down_minutes,
                EpisodeKind::Congestion { .. } => profile.congestion_minutes,
                EpisodeKind::ServerOutage => panic!("device schedules hold no outages"),
            };
            assert!((lo..=hi).contains(&(ep.end.minute - ep.start.minute)), "episode {i}: {ep:?}");
        }
    }

    #[test]
    fn fractional_rates_average_out() {
        // Calm: half a link-down and half a congestion episode per day.
        let profile = ChaosProfile::calm();
        let days = 4000;
        let chaos =
            ChaosSchedule::device_schedule(&profile, days, &mut ChaCha8Rng::seed_from_u64(9));
        let links =
            chaos.episodes().iter().filter(|e| matches!(e.kind, EpisodeKind::LinkDown)).count();
        let congested = chaos.episodes().len() - links;
        for n in [links, congested] {
            // Binomial(4000, 0.5): sd ≈ 32, so ±150 is beyond 4.5 sd.
            assert!((1850..=2150).contains(&n), "{n} episodes over {days} days");
        }
    }

    #[test]
    fn presets_are_already_sanitized() {
        for plan in [FaultPlan::reliable(), FaultPlan::mobile(), FaultPlan::hostile()] {
            assert_eq!(plan.sanitized(), plan);
        }
    }
}
