//! Per-device simulation: schedules, network selection, traffic
//! realization, and the agent driving.

use crate::config::CampaignConfig;
use mobitrace_behavior::update::{UpdatePath, UpdatePlan};
use mobitrace_behavior::{
    Activity, AppContext, AppMix, DaySchedule, DemandModel, Persona, UpdateModel, WifiAttitude,
};
use mobitrace_cellular::{cell_link_rate, CapTracker, CarrierModel};
use mobitrace_collector::{
    ChaosSchedule, CollectionServer, DeviceAgent, LossyTransport, Observation,
};
use mobitrace_deploy::world::ScanObs;
use mobitrace_deploy::{ApId, ApWorld, PlanKey, ScanPlan, ScanPlanCache, Venue};
use mobitrace_geo::{GeoPoint, Grid, PoiSet};
use mobitrace_model::{
    AssocInfo, Band, ByteCount, Carrier, CellTech, Dbm, DeviceId, GroundTruth, Os, OsVersion,
    PublicProvider, ScanSummary, SimTime, Weekday, WifiState, BINS_PER_DAY,
};
use mobitrace_radio::GaussianPair;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Utilisation factor: what share of a bin's link capacity a user's bursty
/// foreground traffic can realistically occupy.
const LINK_UTILISATION: f64 = 0.35;

/// Join threshold: devices associate to known networks at or above this.
const JOIN_RSSI: f64 = -75.0;

/// Stickiness: an existing association survives down to this RSSI.
const STICK_RSSI: f64 = -80.0;

/// Band-steering bonus (dB) applied to 5 GHz radios when scoring
/// candidates — modern devices prefer the cleaner band.
const FIVE_GHZ_BONUS: f64 = 12.0;

/// Capacity of the per-device scan-plan cache: the handful of anchor
/// positions (home, office, stations, friend homes) a device revisits.
/// Overflow clears the map — anchors re-fill it from the shared cache in
/// a few bins, and eviction order must not depend on hash iteration.
const PLAN_LOCAL_CAP: usize = 64;

/// Commute-progress quantization: reciprocal rung width of the waypoint
/// ladder. 16 rungs keep ≤ 11 mid-commute waypoints per path (p in
/// 0.15–0.85), well inside `PLAN_LOCAL_CAP`, while moving any position by
/// at most 1/32 of the commute length.
const COMMUTE_WAYPOINTS: f64 = 16.0;

/// Everything shared by all devices of a campaign (read-only during the
/// run).
pub struct SharedWorld<'a> {
    /// The AP world.
    pub world: &'a ApWorld,
    /// The reporting grid.
    pub grid: &'a Grid,
    /// POIs for leisure destinations and commute stations.
    pub pois: &'a PoiSet,
    /// The iOS update event (2015 only).
    pub update: Option<&'a UpdateModel>,
    /// Campaign config.
    pub config: &'a CampaignConfig,
    /// Shared scan-plan cache for popular cells. Plans are pure functions
    /// of (world, key), so concurrent access affects timing only.
    pub plans: &'a ScanPlanCache,
    /// Campaign-global chaos episodes (server outages) merged into every
    /// device's schedule; [`ChaosSchedule::none`] when chaos is off.
    pub chaos: &'a ChaosSchedule,
}

/// The runtime state of one simulated device.
pub struct DeviceSim {
    /// The user.
    pub persona: Persona,
    /// Cellular carrier.
    pub carrier: Carrier,
    /// Cellular technology of the device.
    pub tech: CellTech,
    /// The measurement agent.
    pub agent: DeviceAgent,
    /// Per-device upload channel.
    pub transport: LossyTransport,
    rng: ChaCha8Rng,
    /// Separate stream for transport faults so the *behavioural* sequence
    /// is identical across fault plans (a hostile channel must not change
    /// what the user does).
    net_rng: ChaCha8Rng,
    cap: CapTracker,
    demand: DemandModel,
    appmix: AppMix,
    known_publics: Vec<PublicProvider>,
    joins_shop_wifi: bool,
    tethers: bool,
    home_ap: Option<ApId>,
    office_ap: Option<ApId>,
    current_assoc: Option<(ApId, mobitrace_model::Band)>,
    /// Bins spent on the current association.
    assoc_age: u32,
    /// Public/shop AP on session-timeout cooldown, until this global bin.
    cooldown: Option<(ApId, u32)>,
    /// WiFi dropped mid-sleep (DHCP expiry, AP hiccup) — stays down until
    /// the user wakes.
    night_dropped: bool,
    /// Band the device settled on for its home AP. Real devices remember
    /// the network per BSSID; without this, day-to-day band flips on a
    /// dual-band home AP smear one home across two (BSSID, ESSID) pairs.
    home_band: Option<mobitrace_model::Band>,
    schedule: Option<DaySchedule>,
    carryover_min: u32,
    daily_demand: ByteCount,
    bin_weights: Vec<f64>,
    home_station: GeoPoint,
    office_station: Option<GeoPoint>,
    /// Homes of friends/relatives the user visits (their APs show up as
    /// "other" networks in Table 5 — a visited home is never *your* home).
    friend_homes: Vec<ApId>,
    /// Today's visit target, if any.
    friend_today: Option<ApId>,
    demand_factor: f64,
    /// Does the user bother connecting to the home AP today?
    home_wifi_today: bool,
    /// Today's POI-visit offset in km (east, north): same spot all day,
    /// a different one tomorrow.
    day_jitter: (f64, f64),
    /// Today's personal cellular ceiling (bytes) and running total.
    cell_ceiling: u64,
    cell_today: u64,
    /// Per-user WiFi appetite multiplier (heavy hitters offload more).
    wifi_boost_user: f64,
    update_plan: Option<UpdatePlan>,
    update_decision: Option<SimTime>,
    update_remaining: u64,
    /// Campaign minute at which the update completed, if it did.
    pub updated_at: Option<SimTime>,
    /// Paired-gaussian source for plan sampling (banks the sine half of
    /// each Box–Muller draw; per-device so banking never crosses streams).
    gauss: GaussianPair,
    /// Reusable scan buffer: one allocation per device, not per bin.
    scan_buf: Vec<ScanObs>,
    /// Per-device plan cache for this device's anchor positions — hits
    /// skip even the shared cache's read lock.
    plan_local: HashMap<PlanKey, Arc<ScanPlan>>,
    /// Plan requests served from `plan_local` (the shared cache's own
    /// hit/miss counters never see these, so the campaign aggregates them
    /// separately to report the true plan-reuse rate).
    pub plan_local_hits: u64,
}

impl DeviceSim {
    /// Build the runtime for one device.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        persona: Persona,
        carrier: Carrier,
        tech: CellTech,
        home_ap: Option<ApId>,
        office_ap: Option<ApId>,
        shared: &SharedWorld<'_>,
        mut rng: ChaCha8Rng,
    ) -> DeviceSim {
        let cfg = shared.config;
        let os = persona.os;
        let initial_version = match os {
            Os::Android => OsVersion::new(4, 4),
            Os::Ios => OsVersion::new(8, 1),
        };
        // Which public providers this device auto-joins: always the own
        // carrier's service (SIM auth), plus a subset of the free ones.
        let mut known_publics = Vec::new();
        if persona.public_wifi_configured {
            known_publics.push(match carrier {
                Carrier::A => PublicProvider::CarrierA,
                Carrier::B => PublicProvider::CarrierB,
                Carrier::C => PublicProvider::CarrierC,
            });
            for p in [
                PublicProvider::SevenSpot,
                PublicProvider::MetroFree,
                PublicProvider::Fon,
                PublicProvider::CityFree,
                PublicProvider::Eduroam,
            ] {
                if rng.gen_bool(0.55) {
                    known_publics.push(p);
                }
            }
        }
        let joins_shop_wifi = persona.public_wifi_configured && rng.gen_bool(0.30);
        let tethers = rng.gen_bool(cfg.tether_users);
        let update_plan = match (os, shared.update) {
            (Os::Ios, Some(model)) => model.sample_plan(&mut rng, &persona),
            _ => None,
        };
        let update_decision = update_plan.map(|plan| {
            let model = shared.update.expect("plan implies model");
            let minute = (f64::from(model.release_day) + plan.decision_delay_days) * 24.0 * 60.0;
            SimTime::from_minutes(minute as u32)
        });

        // Newer LTE devices carry more traffic (the LTE *traffic* share
        // runs ahead of the device share, §3.1).
        let demand_factor = match tech {
            CellTech::Lte => cfg.behavior.lte_demand_factor,
            CellTech::G3 => 1.0,
        };
        let home_station = shared.pois.nearest(persona.home);
        let office_station = persona.office.map(|o| shared.pois.nearest(o));
        // A couple of friends within ~2.5 km whose WiFi the user knows.
        let mut friend_homes = shared.world.background_homes_near(persona.home, 2500.0);
        if friend_homes.len() > 2 {
            let a = rng.gen_range(0..friend_homes.len());
            let b = rng.gen_range(0..friend_homes.len());
            friend_homes = vec![friend_homes[a], friend_homes[b]];
            friend_homes.dedup();
        }
        // Heavy hitters unlock disproportionally more appetite on WiFi
        // (Fig. 7: heavy WiFi-traffic ratio 73–89% vs light 42–52%).
        let wifi_boost_user =
            1.0 + (cfg.behavior.wifi_boost - 1.0) * persona.demand_scale.clamp(0.6, 2.5);
        let device = DeviceId(persona.index);
        // Chaos and transport-fault streams are forked off the behaviour
        // stream up front (and unconditionally), so the behavioural
        // sequence is identical across fault plans *and* chaos settings —
        // a hostile channel must not change what the user does.
        let chaos_seed: u64 = rng.gen();
        let net_rng = ChaCha8Rng::seed_from_u64(rng.gen());
        let chaos = match &cfg.chaos {
            Some(profile) => {
                let mut chaos_rng = ChaCha8Rng::seed_from_u64(chaos_seed);
                ChaosSchedule::device_schedule(profile, cfg.days, &mut chaos_rng)
                    .merged_with(shared.chaos)
            }
            None => ChaosSchedule::none(),
        };
        DeviceSim {
            agent: DeviceAgent::new(device, os, initial_version),
            rng,
            net_rng,
            home_station,
            office_station,
            demand_factor,
            transport: LossyTransport::with_chaos(cfg.faults, chaos),
            cap: CapTracker::new(
                cfg.cap_override
                    .clone()
                    .unwrap_or_else(|| CarrierModel::new(carrier, cfg.year).cap_policy()),
                &[],
            ),
            demand: DemandModel::new(cfg.behavior.clone()),
            appmix: AppMix::for_year(cfg.year),
            known_publics,
            joins_shop_wifi,
            tethers,
            home_ap,
            office_ap,
            current_assoc: None,
            assoc_age: 0,
            cooldown: None,
            night_dropped: false,
            home_band: None,
            friend_homes,
            friend_today: None,
            home_wifi_today: true,
            day_jitter: (0.0, 0.0),
            cell_ceiling: u64::MAX,
            cell_today: 0,
            wifi_boost_user,
            schedule: None,
            carryover_min: 0,
            daily_demand: ByteCount::ZERO,
            bin_weights: Vec::new(),
            update_plan,
            update_decision,
            update_remaining: shared.update.map(|m| m.size.as_bytes()).unwrap_or(0),
            updated_at: None,
            gauss: GaussianPair::new(),
            scan_buf: Vec::new(),
            plan_local: HashMap::new(),
            plan_local_hits: 0,
            persona,
            carrier,
            tech,
        }
    }

    /// Ground truth labels for the dataset.
    pub fn ground_truth(&self, shared: &SharedWorld<'_>) -> GroundTruth {
        let bssids = |ap: Option<ApId>| {
            ap.map(|id| shared.world.ap(id).radios.iter().map(|r| r.bssid).collect::<Vec<_>>())
                .unwrap_or_default()
        };
        GroundTruth {
            home_bssids: bssids(self.home_ap),
            office_bssids: bssids(self.office_ap),
            home_cell: shared.grid.cell_of(self.persona.home),
            office_cell: self.persona.office.map(|o| shared.grid.cell_of(o)),
        }
    }

    /// Run the whole campaign for this device, streaming frames into the
    /// server.
    pub fn run(&mut self, shared: &SharedWorld<'_>, server: &CollectionServer) {
        let days = shared.config.days;
        for day in 0..days {
            self.start_day(shared, day);
            for bin in 0..BINS_PER_DAY {
                let t = SimTime::from_day_bin(day, bin);
                self.step(shared, t);
                // Upload attempt every bin (server backpressure feeds the
                // agent's backoff instead); deliveries flow to the server.
                if server.accepting() {
                    self.agent.try_upload(&mut self.net_rng, t, &mut self.transport);
                } else {
                    self.agent.note_server_reject(&mut self.net_rng, t);
                }
                server.ingest_batch(self.transport.deliver_due(t));
            }
        }
        // End of campaign: flush the cache and the channel. The clock must
        // keep advancing here — at a frozen time a backed-off agent would
        // skip every retry and the flush would spin without progress.
        let end = SimTime::from_day_bin(days, 0);
        for k in 0..2000u32 {
            if self.agent.pending() == 0 {
                break;
            }
            let t = end.plus_minutes(k * 10);
            if server.accepting() {
                self.agent.try_upload(&mut self.net_rng, t, &mut self.transport);
            } else {
                self.agent.note_server_reject(&mut self.net_rng, t);
            }
            server.ingest_batch(self.transport.deliver_due(t));
        }
        server.ingest_batch(self.transport.drain());
    }

    fn start_day(&mut self, shared: &SharedWorld<'_>, day: u32) {
        let weekday: Weekday =
            SimTime::from_day_bin(day, 0).weekday(shared.config.year.campaign_start());
        let sched = DaySchedule::generate(
            &mut self.rng,
            &self.persona,
            weekday,
            self.carryover_min,
            shared.pois,
        );
        self.carryover_min = sched.carryover_min;
        // Habit, not just hardware: early-campaign users often leave the
        // phone on cellular even at home.
        self.home_wifi_today = self.rng.gen_bool(shared.config.behavior.home_assoc_daily_p);
        self.day_jitter = (self.rng.gen_range(-0.06..0.06), self.rng.gen_range(-0.06..0.06));
        // Roughly one day in five, today's outing is a visit to a friend.
        self.friend_today = if !self.friend_homes.is_empty() && self.rng.gen_bool(0.2) {
            Some(self.friend_homes[self.rng.gen_range(0..self.friend_homes.len())])
        } else {
            None
        };
        // Personal mobile-data tolerance for the day.
        let ceiling_mb = shared.config.behavior.cell_daily_ceiling_mb
            * mobitrace_behavior::persona::lognormal(&mut self.rng, 0.0, 0.5);
        self.cell_ceiling = (ceiling_mb * 1e6) as u64;
        self.cell_today = 0;
        let base = self.demand.daily_demand(&mut self.rng, &self.persona);
        self.daily_demand =
            mobitrace_model::ByteCount::bytes((base.as_bytes() as f64 * self.demand_factor) as u64);
        self.bin_weights = self.demand.bin_weights(&sched);
        self.schedule = Some(sched);
    }

    /// Simulate one 10-minute bin.
    fn step(&mut self, shared: &SharedWorld<'_>, t: SimTime) {
        // Reboot?
        if self.rng.gen_bool(shared.config.reboot_per_day / f64::from(BINS_PER_DAY)) {
            self.agent.reboot();
        }

        let activity = self.schedule.as_ref().expect("start_day ran").at_bin(t.bin_of_day());
        let pos = self.position(activity);
        // Visits to the same POI land at slightly different spots each day
        // (platform ends, café tables), rotating which of its APs is
        // strongest — that variety accumulates the paper's ~3–6.5 unique
        // public APs per user over a campaign without inflating the
        // per-day AP count.
        let pos = match activity {
            // Visit days: the outing happens at the friend's place.
            Activity::Out { .. } if self.friend_today.is_some() => {
                shared.world.ap(self.friend_today.expect("checked")).pos
            }
            Activity::Out { .. } => pos.offset_km(self.day_jitter.0, self.day_jitter.1),
            // Stations are compact: smaller day-to-day wander keeps the
            // platform APs in join range.
            Activity::Commute { .. } => {
                pos.offset_km(self.day_jitter.0 * 0.4, self.day_jitter.1 * 0.4)
            }
            _ => pos,
        };
        let geo = shared.grid.cell_of(pos);

        // WiFi interface state and scan.
        let (wifi_state, scan_summary, assoc_obs) = self.wifi_step(shared, activity, pos, t);

        // Demand realisation.
        let mut rx_3g = 0u64;
        let mut tx_3g = 0u64;
        let mut rx_lte = 0u64;
        let mut tx_lte = 0u64;
        let mut rx_wifi = 0u64;
        let mut tx_wifi = 0u64;
        let apps;
        let mut tethering = false;

        let at_home = matches!(activity, Activity::Asleep | Activity::AtHome);
        let mut base = self.demand.bin_demand(
            &mut self.rng,
            self.daily_demand,
            &self.bin_weights,
            t.bin_of_day(),
        ) + self.demand.background_rx(&mut self.rng);
        if at_home {
            // At home the phone competes with bigger screens, especially
            // in the early campaigns.
            base = (base as f64 * shared.config.behavior.home_appetite) as u64;
        }

        if let Some(obs) = &assoc_obs {
            // On WiFi: appetite unlocked, link-limited.
            let ap = shared.world.ap(obs.ap);
            let ctx = match ap.venue {
                Venue::Home { .. } => AppContext::WifiHome,
                Venue::Public(_) => AppContext::WifiPublic,
                _ => AppContext::WifiOther,
            };
            let boosted = (base as f64 * self.wifi_boost_user) as u64;
            let link_cap = (mobitrace_radio::link_rate(obs.band, obs.rssi)
                .over_seconds(600.0)
                .as_bytes() as f64
                * LINK_UTILISATION) as u64;
            let rx = boosted.min(link_cap);
            let (split, tx) = self.appmix.split(&mut self.rng, ctx, &self.persona, rx);
            rx_wifi = rx;
            tx_wifi = tx;
            apps = split;
        } else if self.persona.cellular_averse {
            // WiFi-intensive users run with mobile data switched off —
            // away from WiFi the phone is simply offline, which is what
            // puts them on the zero-cellular axis of Fig. 5.
            apps = Vec::new();
        } else {
            // Cellular path: appetite is lower than on WiFi and the soft
            // cap throttles peak hours.
            let ctx = if at_home { AppContext::CellHome } else { AppContext::CellOther };
            let rate_cap = match self.cap.rate_limit(t) {
                Some(throttle) => throttle.over_seconds(600.0).as_bytes() as f64 * LINK_UTILISATION,
                None => {
                    cell_link_rate(self.tech, t.hour()).over_seconds(600.0).as_bytes() as f64
                        * LINK_UTILISATION
                }
            };
            let mut wanted = (base as f64 * self.demand.cell_appetite()) as u64;
            if self.cap.over_threshold(t) {
                // Capped users defer heavy use — the Fig. 19 suppression.
                wanted = (wanted as f64 * 0.7) as u64;
            }
            if self.cell_today > self.cell_ceiling {
                // Past the personal tolerance: background-ish use only.
                wanted = (wanted as f64 * 0.08) as u64;
            }
            let rx = wanted.min(rate_cap as u64);
            self.cell_today += rx;
            let (split, tx) = self.appmix.split(&mut self.rng, ctx, &self.persona, rx);
            self.route_cellular(t, rx, tx, &mut rx_3g, &mut tx_3g, &mut rx_lte, &mut tx_lte);
            apps = split;
        }

        // iOS update download (WiFi only, by platform default).
        if let (Some(_plan), Some(decision)) = (self.update_plan, self.update_decision) {
            if self.updated_at.is_none() && t >= decision {
                if let Some(obs) = &assoc_obs {
                    let link_cap = (mobitrace_radio::link_rate(obs.band, obs.rssi)
                        .over_seconds(600.0)
                        .as_bytes() as f64
                        * 0.8) as u64;
                    let chunk = self.update_remaining.min(link_cap);
                    rx_wifi += chunk;
                    self.update_remaining -= chunk;
                    if self.update_remaining == 0 {
                        self.agent.set_os_version(OsVersion::IOS_8_2);
                        self.updated_at = Some(t);
                    }
                }
            }
        }

        // Occasional tethering session (removed by cleaning).
        if self.tethers && !matches!(activity, Activity::Asleep) && self.rng.gen_bool(0.006) {
            tethering = true;
            let extra = self.rng.gen_range(2_000_000u64..40_000_000);
            if assoc_obs.is_some() {
                rx_wifi += extra;
            } else {
                self.route_cellular(
                    t,
                    extra,
                    extra / 20,
                    &mut rx_3g,
                    &mut tx_3g,
                    &mut rx_lte,
                    &mut tx_lte,
                );
            }
        }

        // Meter cellular downlink for the cap.
        self.cap.record(t, ByteCount::bytes(rx_3g + rx_lte));

        let charging = matches!(activity, Activity::Asleep) || (at_home && self.rng.gen_bool(0.3));

        let obs = Observation {
            time: t,
            rx_3g,
            tx_3g,
            rx_lte,
            tx_lte,
            rx_wifi,
            tx_wifi,
            wifi: wifi_state,
            scan: scan_summary,
            apps,
            geo,
            charging,
            tethering,
        };
        self.agent.observe(&obs);
    }

    #[allow(clippy::too_many_arguments)]
    fn route_cellular(
        &self,
        _t: SimTime,
        rx: u64,
        tx: u64,
        rx_3g: &mut u64,
        tx_3g: &mut u64,
        rx_lte: &mut u64,
        tx_lte: &mut u64,
    ) {
        match self.tech {
            CellTech::G3 => {
                *rx_3g += rx;
                *tx_3g += tx;
            }
            CellTech::Lte => {
                *rx_lte += rx;
                *tx_lte += tx;
            }
        }
    }

    fn position(&self, activity: Activity) -> GeoPoint {
        match activity {
            Activity::Asleep | Activity::AtHome => self.persona.home,
            Activity::AtWork => self.persona.office.unwrap_or(self.persona.home),
            Activity::Out { spot } => spot,
            Activity::Commute { progress, to_work } => {
                // Commutes start and end at rail stations — where public
                // WiFi lives.
                let p = if to_work { progress } else { 1.0 - progress };
                // Quantize progress onto a coarse ladder so the two
                // commute directions (and consecutive bins) land on the
                // same handful of waypoints: each waypoint then maps to
                // one 1 m scan-plan key instead of a fresh key per bin,
                // so commute scans hit the shared plan cache.
                let p = (p * COMMUTE_WAYPOINTS).round() / COMMUTE_WAYPOINTS;
                if p < 0.15 {
                    self.home_station
                } else if p > 0.85 {
                    self.office_station.unwrap_or(self.home_station)
                } else {
                    let office = self.persona.office.unwrap_or(self.persona.home);
                    self.persona.home.lerp(office, p)
                }
            }
        }
    }

    /// Decide the WiFi interface state for the bin and produce the scan
    /// summary. Returns (recorded state, scan summary, association).
    /// Is the device actively hunting for WiFi to download the update?
    fn seeking_update(&self, t: SimTime) -> bool {
        matches!(
            self.update_plan.map(|p| p.path),
            Some(UpdatePath::SeekPublic) | Some(UpdatePath::SeekOffice)
        ) && self.updated_at.is_none()
            && self.update_decision.map(|d| t >= d).unwrap_or(false)
    }

    fn wifi_step(
        &mut self,
        shared: &SharedWorld<'_>,
        activity: Activity,
        pos: GeoPoint,
        t: SimTime,
    ) -> (WifiState, ScanSummary, Option<ScanObs>) {
        let at_home = matches!(activity, Activity::Asleep | Activity::AtHome);
        let seeking = self.seeking_update(t);
        let interface_on = match self.persona.attitude {
            // Even habitual WiFi-off users enable the interface when they
            // need the WiFi-only OS update (§3.7).
            WifiAttitude::AlwaysOff => seeking,
            WifiAttitude::TogglesOff => (at_home && self.persona.owns_home_ap) || seeking,
            WifiAttitude::AlwaysOn => true,
        };
        if !interface_on {
            self.current_assoc = None;
            return (WifiState::Off, ScanSummary::default(), None);
        }

        // Android sleep policy: interface enabled but parked overnight.
        if matches!(activity, Activity::Asleep) && self.persona.sleep_wifi_off {
            self.current_assoc = None;
            return (WifiState::OnUnassociated, ScanSummary::default(), None);
        }
        // Overnight micro-outages (DHCP expiry, AP hiccup) break the rest
        // of the night's association — home spells top out near the
        // paper's ~12 h instead of spanning whole weekends.
        if matches!(activity, Activity::Asleep) {
            if self.night_dropped {
                self.current_assoc = None;
                return (WifiState::OnUnassociated, ScanSummary::default(), None);
            }
            // Outages cluster deep in the night (router DHCP renewals,
            // ISP maintenance windows), producing the post-2am dip of
            // Fig. 6b without starving the 22:00–06:00 home-inference
            // window.
            if self.current_assoc.is_some()
                && t.hour() >= 1
                && t.hour() < 7
                && self.rng.gen_bool(0.04)
            {
                self.night_dropped = true;
                self.current_assoc = None;
                return (WifiState::OnUnassociated, ScanSummary::default(), None);
            }
        } else {
            self.night_dropped = false;
        }

        // Public/shop sessions expire (captive-portal timeouts): force a
        // re-login gap after ~50 minutes.
        if let Some((ap, _band)) = self.current_assoc {
            let venue = shared.world.ap(ap).venue;
            if matches!(venue, Venue::Public(_) | Venue::Shop) && self.assoc_age >= 5 {
                self.cooldown = Some((ap, t.global_bin() + 2));
                self.current_assoc = None;
            }
        }

        // Scan: fill the reusable buffer and tally the summary in one
        // pass. The cached path replays the position's precomputed plan
        // (sampling only indoor micro-distance + shadowing); the fallback
        // walks the spatial index exactly as before.
        let mut summary = ScanSummary::default();
        if shared.config.scan_cache {
            let plan = self.plan_at(shared, pos);
            let rng = &mut self.rng;
            let gauss = &mut self.gauss;
            let buf = &mut self.scan_buf;
            buf.clear();
            plan.sample(rng, gauss, |e, rssi| {
                tally_scan(&mut summary, e.band, e.public, rssi);
                buf.push(e.obs(rssi));
            });
        } else {
            shared.world.scan_into(pos, &mut self.rng, &mut self.scan_buf);
            for obs in &self.scan_buf {
                let public = shared.world.ap(obs.ap).venue.is_public();
                tally_scan(&mut summary, obs.band, public, obs.rssi);
            }
        }
        // Half of commute-bin snapshots catch the user on the train, not
        // dwelling at the station: interface on, nothing joinable.
        if matches!(activity, Activity::Commute { .. }) && self.rng.gen_bool(0.45) {
            self.current_assoc = None;
            return (WifiState::OnUnassociated, summary, None);
        }

        // Candidate set: known networks at joinable strength.
        let mut best: Option<(f64, &ScanObs)> = None;
        let mut current: Option<&ScanObs> = None;
        for obs in &self.scan_buf {
            // Stick to the same AP *and radio*: real devices don't bounce
            // between a dual-band AP's BSSIDs every few minutes, and each
            // radio is its own (BSSID, ESSID) pair in the dataset.
            if Some((obs.ap, obs.band)) == self.current_assoc {
                current = Some(obs);
            }
            if let Some((cool_ap, until)) = self.cooldown {
                if obs.ap == cool_ap && t.global_bin() < until {
                    continue;
                }
            }
            let seek_joinable = seeking
                && matches!(
                    shared.world.ap(obs.ap).venue,
                    Venue::Public(_) | Venue::Shop | Venue::Office
                );
            if (!self.is_known(shared, obs.ap) && !seek_joinable) || obs.rssi.as_f64() < JOIN_RSSI {
                continue;
            }
            let mut score = obs.rssi.as_f64()
                + if obs.band == mobitrace_model::Band::Ghz5 { FIVE_GHZ_BONUS } else { 0.0 };
            if Some(obs.ap) == self.home_ap && Some(obs.band) == self.home_band {
                // Strong preference for the remembered home radio.
                score += 25.0;
            }
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, obs));
            }
        }

        // Hysteresis: stay on the current AP while it remains usable.
        let chosen: Option<ScanObs> = match (current, best) {
            (Some(cur), _) if cur.rssi.as_f64() >= STICK_RSSI => Some(*cur),
            (_, Some((_, b))) => Some(*b),
            _ => None,
        };

        match chosen {
            Some(obs) => {
                if self.current_assoc == Some((obs.ap, obs.band)) {
                    self.assoc_age += 1;
                } else {
                    self.assoc_age = 0;
                }
                self.current_assoc = Some((obs.ap, obs.band));
                if Some(obs.ap) == self.home_ap {
                    self.home_band = Some(obs.band);
                }
                let ap = shared.world.ap(obs.ap);
                let radio = &ap.radios[obs.radio as usize];
                let info = AssocInfo {
                    bssid: radio.bssid,
                    essid: ap.essid.clone(),
                    band: obs.band,
                    channel: obs.channel,
                    rssi: obs.rssi,
                };
                (WifiState::Associated(info), summary, Some(obs))
            }
            None => {
                self.current_assoc = None;
                (WifiState::OnUnassociated, summary, None)
            }
        }
    }

    /// The scan plan for a position: per-device anchor cache first (no
    /// locks), then the shared cache (which builds and publishes on miss).
    fn plan_at(&mut self, shared: &SharedWorld<'_>, pos: GeoPoint) -> Arc<ScanPlan> {
        let key = shared.world.plan_key(pos);
        if let Some(p) = self.plan_local.get(&key) {
            self.plan_local_hits += 1;
            return Arc::clone(p);
        }
        let p = shared.plans.plan(shared.world, key);
        if self.plan_local.len() >= PLAN_LOCAL_CAP {
            self.plan_local.clear();
        }
        self.plan_local.insert(key, Arc::clone(&p));
        p
    }

    fn is_known(&self, shared: &SharedWorld<'_>, ap: ApId) -> bool {
        if Some(ap) == self.friend_today {
            // The host shares the password.
            return true;
        }
        if Some(ap) == self.home_ap {
            // TogglesOff users flip the interface on deliberately to use
            // the home AP; always-on users only bother on habit days.
            return self.persona.attitude == WifiAttitude::TogglesOff || self.home_wifi_today;
        }
        if Some(ap) == self.office_ap {
            return true;
        }
        match shared.world.ap(ap).venue {
            Venue::Public(p) => self.known_publics.contains(&p),
            Venue::Shop => self.joins_shop_wifi,
            _ => false,
        }
    }
}

/// Summarise a scan into the per-band/strength/public counts the agent
/// reports.
pub fn summarize_scan(world: &ApWorld, scan: &[ScanObs]) -> ScanSummary {
    let mut s = ScanSummary::default();
    for obs in scan {
        tally_scan(&mut s, obs.band, world.ap(obs.ap).venue.is_public(), obs.rssi);
    }
    s
}

/// Fold one observation into a [`ScanSummary`]. Extracted so the scan hot
/// path can tally while filling the scan buffer (and with venue publicness
/// pre-resolved in the plan) instead of re-walking the AP table afterwards.
pub fn tally_scan(s: &mut ScanSummary, band: Band, public: bool, rssi: Dbm) {
    let strong = rssi.is_strong();
    match band {
        Band::Ghz24 => {
            s.n24_all += 1;
            if strong {
                s.n24_strong += 1;
            }
            if public {
                s.n24_public_all += 1;
                if strong {
                    s.n24_public_strong += 1;
                }
            }
        }
        Band::Ghz5 => {
            s.n5_all += 1;
            if strong {
                s.n5_strong += 1;
            }
            if public {
                s.n5_public_all += 1;
                if strong {
                    s.n5_public_strong += 1;
                }
            }
        }
    }
}
