//! Campaign orchestration: population → world → per-device runs → dataset.

use crate::config::CampaignConfig;
use crate::device::{DeviceSim, SharedWorld};
use mobitrace_behavior::{Persona, SurveyModel, UpdateModel};
use mobitrace_cellular::CarrierModel;
use mobitrace_collector::server::IngestStats;
use mobitrace_collector::{clean, ChaosSchedule, CleanOptions, CleanStats, CollectionServer};
use mobitrace_deploy::world::WorldSpec;
use mobitrace_deploy::{ApId, ApWorld, ScanPlanCache};
use mobitrace_geo::{DensitySurface, GeoPoint, Grid, PoiSet};
use mobitrace_model::{
    CampaignMeta, Carrier, CellTech, Dataset, DeviceId, DeviceInfo, Os, Record, Year,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Aggregate upload-path counters across every device's agent and
/// channel: what the campaign's network weather did to the measurement
/// stream, independent of what the cleaner later reconstructs.
#[derive(Debug, Clone, Default)]
pub struct NetSummary {
    /// Records sampled by agents.
    pub records_made: u64,
    /// Frames accepted onto the wire.
    pub sent: u64,
    /// Failed send attempts (fault plan plus chaos link-down windows).
    pub failed: u64,
    /// Failures attributable to chaos episodes rather than base faults.
    pub chaos_failed: u64,
    /// Frames silently dropped in flight.
    pub dropped: u64,
    /// Frames duplicated in flight.
    pub duplicated: u64,
    /// Frames corrupted in flight.
    pub corrupted: u64,
    /// Frames discarded because they arrived during a server outage.
    pub lost_server_down: u64,
    /// Upload retries after failed sends.
    pub retries: u64,
    /// Upload ticks skipped inside backoff windows.
    pub backoff_skips: u64,
    /// Uploads refused by server backpressure.
    pub server_rejects: u64,
    /// Records evicted from full agent caches (oldest first).
    pub evicted: u64,
    /// Deepest pending queue any single agent reached.
    pub max_pending: usize,
    /// Scan-plan requests served by per-device anchor caches. The shared
    /// [`ScanPlanCache`] only counts requests that reach it, so the true
    /// plan-reuse rate is `(plan_local_hits + shared hits) / (plan_local_hits
    /// + shared hits + shared misses)`.
    pub plan_local_hits: u64,
}

impl NetSummary {
    /// Fold one finished device's counters into the aggregate.
    fn absorb(&mut self, dev: &DeviceSim) {
        self.records_made += dev.agent.records_made;
        self.sent += dev.transport.sent;
        self.failed += dev.transport.failed;
        self.chaos_failed += dev.transport.chaos_failed;
        self.dropped += dev.transport.dropped;
        self.duplicated += dev.transport.duplicated;
        self.corrupted += dev.transport.corrupted;
        self.lost_server_down += dev.transport.lost_server_down;
        self.retries += dev.agent.retries;
        self.backoff_skips += dev.agent.backoff_skips;
        self.server_rejects += dev.agent.server_rejects;
        self.evicted += dev.agent.dropped_records;
        self.max_pending = self.max_pending.max(dev.agent.max_pending);
        self.plan_local_hits += dev.plan_local_hits;
    }

    /// Merge another aggregate (one worker thread's share) into this one.
    fn merge(&mut self, other: &NetSummary) {
        self.records_made += other.records_made;
        self.sent += other.sent;
        self.failed += other.failed;
        self.chaos_failed += other.chaos_failed;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.lost_server_down += other.lost_server_down;
        self.retries += other.retries;
        self.backoff_skips += other.backoff_skips;
        self.server_rejects += other.server_rejects;
        self.evicted += other.evicted;
        self.max_pending = self.max_pending.max(other.max_pending);
        self.plan_local_hits += other.plan_local_hits;
    }
}

/// Summary of a simulated campaign run.
#[derive(Debug, Clone, Default)]
pub struct SimSummary {
    /// Cleaning statistics.
    pub clean: CleanStats,
    /// Server ingest statistics.
    pub ingest: IngestStats,
    /// Aggregate upload-path (transport + agent) counters.
    pub net: NetSummary,
    /// Android devices.
    pub n_android: usize,
    /// iOS devices.
    pub n_ios: usize,
    /// LTE devices.
    pub n_lte: usize,
    /// iOS devices that completed the 8.2 update during the window.
    pub n_updated: usize,
    /// Deployed APs by class: (participant home, background home, public,
    /// office, shop).
    pub ap_counts: (usize, usize, usize, usize, usize),
    /// Shared scan-plan cache hits across all devices.
    pub plan_hits: u64,
    /// Shared scan-plan cache misses (plans built from scratch).
    pub plan_misses: u64,
}

/// A finished campaign before cleaning: the device table, the records the
/// server retained (sorted by device then seq), and every counter the run
/// produced. Splitting this out of [`run_campaign_opts`] lets the live
/// analysis engine tap the server during the run and then clean the very
/// same record set for its convergence check.
#[derive(Debug, Clone)]
pub struct RawCampaign {
    /// Campaign metadata (year, start date, days, seed).
    pub meta: CampaignMeta,
    /// Per-device metadata, survey answers and ground truth attached.
    pub devices: Vec<DeviceInfo>,
    /// Records the server retained, in (device, seq) order.
    pub records: Vec<Record>,
    /// Server ingest statistics.
    pub ingest: IngestStats,
    /// Aggregate upload-path (transport + agent) counters.
    pub net: NetSummary,
    /// Android devices.
    pub n_android: usize,
    /// iOS devices.
    pub n_ios: usize,
    /// LTE devices.
    pub n_lte: usize,
    /// iOS devices that completed the 8.2 update during the window.
    pub n_updated: usize,
    /// Deployed APs by class: (participant home, background home, public,
    /// office, shop).
    pub ap_counts: (usize, usize, usize, usize, usize),
    /// Shared scan-plan cache hits across all devices.
    pub plan_hits: u64,
    /// Shared scan-plan cache misses.
    pub plan_misses: u64,
}

impl RawCampaign {
    /// Run the cleaning pipeline over the retained records and fold the
    /// counters into a [`SimSummary`].
    pub fn clean(self, clean_opts: CleanOptions) -> (Dataset, SimSummary) {
        let (dataset, clean_stats) = clean(self.meta, self.devices, &self.records, clean_opts);
        debug_assert!(dataset.validate().is_ok());
        let summary = SimSummary {
            clean: clean_stats,
            ingest: self.ingest,
            net: self.net,
            n_android: self.n_android,
            n_ios: self.n_ios,
            n_lte: self.n_lte,
            n_updated: self.n_updated,
            ap_counts: self.ap_counts,
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
        };
        (dataset, summary)
    }
}

/// Derive the independent per-device RNG stream.
fn device_rng(seed: u64, index: u32) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (u64::from(index) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run one campaign and produce the cleaned dataset.
///
/// Deterministic for a given config (including seed): personas and the AP
/// world come from dedicated streams, every device gets its own stream,
/// and the server's keyed store makes ingest order irrelevant — so the
/// device loop parallelises freely.
pub fn run_campaign(config: &CampaignConfig) -> (Dataset, SimSummary) {
    run_campaign_opts(config, CleanOptions::default())
}

/// [`run_campaign`] with explicit cleaning options (the §3.7 update
/// analysis needs the update days retained).
pub fn run_campaign_opts(
    config: &CampaignConfig,
    clean_opts: CleanOptions,
) -> (Dataset, SimSummary) {
    run_campaign_raw(config, |_| {}).clean(clean_opts)
}

/// Run the simulation and ingest phases of a campaign, stopping short of
/// cleaning. `on_server` runs after the collection server is created and
/// before any device uploads — the live engine uses it to attach its
/// [ingest tap](mobitrace_collector::IngestTap) and start draining while
/// the campaign is still in flight. The hook must not block.
pub fn run_campaign_raw(
    config: &CampaignConfig,
    on_server: impl FnOnce(&CollectionServer),
) -> RawCampaign {
    let grid = Grid::greater_tokyo();
    let residential = DensitySurface::residential();
    let office_surface = DensitySurface::office();
    // One POI (station / shopping street) per ~3 participants, floor 30,
    // shared between deployment and mobility.
    let mut poi_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(4));
    let pois = PoiSet::generate((config.n_users / 3).max(30), &mut poi_rng);

    // Population.
    let mut pop_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
    let personas: Vec<Persona> = (0..config.n_users)
        .map(|i| {
            Persona::sample(
                &mut pop_rng,
                &config.behavior,
                i as u32,
                &grid,
                &residential,
                &office_surface,
            )
        })
        .collect();
    let carriers: Vec<Carrier> =
        personas.iter().map(|_| CarrierModel::sample_carrier(&mut pop_rng)).collect();
    let techs: Vec<CellTech> = personas
        .iter()
        .zip(&carriers)
        .map(|(_, &c)| CarrierModel::new(c, config.year).sample_tech(&mut pop_rng))
        .collect();

    // World: home APs for owners, one office AP per BYOD user.
    let participant_homes: Vec<(u32, GeoPoint)> =
        personas.iter().filter(|p| p.owns_home_ap).map(|p| (p.index, p.home)).collect();
    let byod_users: Vec<&Persona> = personas.iter().filter(|p| p.office_byod).collect();
    let office_sites: Vec<GeoPoint> =
        byod_users.iter().map(|p| p.office.expect("BYOD implies office")).collect();
    let spec = WorldSpec {
        params: config.deploy.clone(),
        participant_homes,
        office_sites,
        pois: pois.clone(),
        n_participants: config.n_users,
        fon_home_share: config.fon_home_share,
    };
    let mut world_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(2));
    let world = ApWorld::generate(&spec, &mut world_rng);
    let office_ap_of: std::collections::HashMap<u32, ApId> =
        byod_users.iter().zip(&world.office_aps).map(|(p, &ap)| (p.index, ap)).collect();

    let update_model = (config.year == Year::Y2015).then(UpdateModel::ios_8_2);
    // Shared scan-plan cache: popular cells (stations, dense residential
    // blocks) are planned once and replayed by every device that visits.
    let plans = ScanPlanCache::new();
    // Campaign-global chaos: server outages hit every device over the same
    // wall-clock windows (per-device link faults are drawn inside each
    // device's own stream, in `DeviceSim::new`).
    let mut chaos_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(5));
    let server_chaos = match &config.chaos {
        Some(profile) => ChaosSchedule::server_schedule(profile, config.days, &mut chaos_rng),
        None => ChaosSchedule::none(),
    };
    let shared = SharedWorld {
        world: &world,
        grid: &grid,
        pois: &pois,
        update: update_model.as_ref(),
        config,
        plans: &plans,
        chaos: &server_chaos,
    };

    // Per-device simulation. Devices are independent but far from uniform
    // in cost (Android heavy-hitters, update-day iPhones), so static
    // chunking leaves threads idle behind the slowest chunk. Instead the
    // workers *steal* work: a shared atomic cursor hands out the next
    // un-simulated device to whichever thread is free. Scheduling cannot
    // change the output — every device draws from its own RNG stream and
    // the server's keyed store makes ingest order irrelevant.
    let server = CollectionServer::new();
    on_server(&server);
    let n_threads = config.effective_threads().min(personas.len().max(1));
    let mut updated_at: Vec<Option<mobitrace_model::SimTime>> = vec![None; personas.len()];
    let mut truths: Vec<Option<mobitrace_model::GroundTruth>> = vec![None; personas.len()];
    let mut net = NetSummary::default();
    {
        type DeviceOut = (u32, Option<mobitrace_model::SimTime>, mobitrace_model::GroundTruth);
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<(Vec<DeviceOut>, NetSummary)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let cursor = &cursor;
                    let personas = &personas;
                    let shared = &shared;
                    let server = &server;
                    let carriers = &carriers;
                    let techs = &techs;
                    let office_ap_of = &office_ap_of;
                    let world = &world;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut net = NetSummary::default();
                        loop {
                            let idx = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if idx >= personas.len() {
                                break;
                            }
                            let persona = &personas[idx];
                            let mut dev = DeviceSim::new(
                                persona.clone(),
                                carriers[idx],
                                techs[idx],
                                world.participant_home_ap.get(&persona.index).copied(),
                                office_ap_of.get(&persona.index).copied(),
                                shared,
                                device_rng(shared.config.seed, persona.index),
                            );
                            dev.run(shared, server);
                            net.absorb(&dev);
                            out.push((persona.index, dev.updated_at, dev.ground_truth(shared)));
                        }
                        (out, net)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("device thread")).collect()
        });
        for (chunk, thread_net) in results {
            net.merge(&thread_net);
            for (index, up, truth) in chunk {
                updated_at[index as usize] = up;
                truths[index as usize] = Some(truth);
            }
        }
    }

    // Survey + device table.
    let survey_model = SurveyModel::new(config.year);
    let mut survey_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(3));
    let devices: Vec<DeviceInfo> = personas
        .iter()
        .enumerate()
        .map(|(i, p)| DeviceInfo {
            device: DeviceId(p.index),
            os: p.os,
            carrier: carriers[i],
            recruited: survey_rng.gen_bool(0.985),
            survey: survey_rng
                .gen_bool(config.behavior.survey_response_rate)
                .then(|| survey_model.respond(&mut survey_rng, p)),
            truth: truths[i].take(),
        })
        .collect();

    let ingest = server.stats();
    let records = server.into_records();
    let meta = CampaignMeta {
        year: config.year,
        start: config.year.campaign_start(),
        days: config.days,
        seed: config.seed,
    };

    RawCampaign {
        meta,
        devices,
        records,
        ingest,
        net,
        n_android: personas.iter().filter(|p| p.os == Os::Android).count(),
        n_ios: personas.iter().filter(|p| p.os == Os::Ios).count(),
        n_lte: techs.iter().filter(|&&t| t == CellTech::Lte).count(),
        n_updated: updated_at.iter().filter(|u| u.is_some()).count(),
        ap_counts: (
            world.participant_home_ap.len(),
            world.count_venue(|v| v.is_home()) - world.participant_home_ap.len(),
            world.count_venue(|v| v.is_public()),
            world.office_aps.len(),
            world.count_venue(|v| matches!(v, mobitrace_deploy::Venue::Shop)),
        ),
        plan_hits: plans.hits(),
        plan_misses: plans.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::{WifiBinState, Year};

    fn tiny(year: Year, seed: u64) -> (Dataset, SimSummary) {
        let mut cfg = CampaignConfig::scaled(year, 0.03);
        cfg.days = 4;
        cfg.seed = seed;
        run_campaign(&cfg)
    }

    #[test]
    fn campaign_produces_valid_dataset() {
        let (ds, summary) = tiny(Year::Y2014, 1);
        ds.validate().unwrap();
        assert!(summary.clean.bins_out > 0);
        assert_eq!(ds.devices.len(), 50);
        // Every device produced bins (checked via the bin-range index).
        let index = mobitrace_model::DatasetIndex::build(&ds);
        for d in &ds.devices {
            assert!(!index.device_range(d.device).is_empty(), "{} empty", d.device);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let (a, _) = tiny(Year::Y2013, 7);
        let (b, _) = tiny(Year::Y2013, 7);
        assert_eq!(a.bins.len(), b.bins.len());
        assert_eq!(a.total_rx(), b.total_rx());
        assert_eq!(a.aps.len(), b.aps.len());
        // Spot-check full equality on a sample of bins.
        let (a, b) = (a.bins.to_bins(), b.bins.to_bins());
        for k in (0..a.len()).step_by(101) {
            assert_eq!(a[k], b[k]);
        }
    }

    #[test]
    fn parallelism_does_not_change_output() {
        // 1 worker vs 8 workers must produce bit-identical datasets: each
        // device owns an RNG stream and the server keys records by
        // (device, seq), so the schedule cannot leak into the output.
        let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.03);
        cfg.days = 4;
        cfg.seed = 11;
        let (a, _) = run_campaign(&cfg.clone().with_threads(1));
        let (b, _) = run_campaign(&cfg.with_threads(8));
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_campaign_is_valid_deterministic_and_behaviour_invariant() {
        use mobitrace_collector::ChaosProfile;
        let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.03).with_chaos(ChaosProfile::flaky());
        cfg.days = 4;
        cfg.seed = 12;
        cfg.tether_users = 0.0;
        let (ds, summary) = run_campaign(&cfg);
        ds.validate().unwrap();
        // ~50 devices × 4 days × 2 link-down episodes/day: chaos must be
        // visible in the counters, and the backoff machinery must engage.
        assert!(summary.net.chaos_failed > 0, "no chaos-attributed failures");
        assert!(summary.net.retries > 0, "failures without retries");
        assert!(summary.net.backoff_skips > 0, "failures without backoff");

        // Chaos perturbs *delivery*, never behaviour: the same campaign
        // without chaos samples exactly the same number of records.
        let mut calm = cfg.clone();
        calm.chaos = None;
        let (calm_ds, calm_summary) = run_campaign(&calm);
        assert_eq!(summary.net.records_made, calm_summary.net.records_made);
        assert_eq!(ds.devices.len(), calm_ds.devices.len());

        // Chaos schedules live in device-owned streams, so the thread
        // schedule still cannot leak into the output.
        let (a, _) = run_campaign(&cfg.clone().with_threads(1));
        let (b, _) = run_campaign(&cfg.with_threads(8));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = tiny(Year::Y2013, 1);
        let (b, _) = tiny(Year::Y2013, 2);
        assert_ne!(a.total_rx(), b.total_rx());
    }

    #[test]
    fn os_split_roughly_half() {
        let (ds, summary) = tiny(Year::Y2015, 3);
        assert_eq!(summary.n_android + summary.n_ios, ds.devices.len());
        let share = summary.n_android as f64 / ds.devices.len() as f64;
        assert!((0.30..0.75).contains(&share), "android share {share}");
    }

    #[test]
    fn wifi_and_cellular_both_present() {
        let (ds, _) = tiny(Year::Y2015, 4);
        let wifi: u64 = ds.bins.to_bins().iter().map(|b| b.rx_wifi).sum();
        let cell: u64 = ds.bins.to_bins().iter().map(|b| b.rx_cell()).sum();
        assert!(wifi > 0 && cell > 0);
        // 2015: WiFi carries more than cellular in aggregate.
        assert!(wifi > cell, "wifi {wifi} vs cell {cell}");
    }

    #[test]
    fn associations_reference_ap_table() {
        let (ds, _) = tiny(Year::Y2014, 5);
        let mut assoc_bins = 0;
        for b in &ds.bins.to_bins() {
            if let WifiBinState::Associated(a) = &b.wifi {
                assert!(a.ap.index() < ds.aps.len());
                assoc_bins += 1;
            }
        }
        assert!(assoc_bins > 100, "only {assoc_bins} associated bins");
    }

    #[test]
    fn ground_truth_attached() {
        let (ds, _) = tiny(Year::Y2013, 6);
        let with_truth = ds.devices.iter().filter(|d| d.truth.is_some()).count();
        assert_eq!(with_truth, ds.devices.len());
        let with_home =
            ds.devices.iter().filter(|d| !d.truth.as_ref().unwrap().home_bssids.is_empty()).count()
                as f64
                / ds.devices.len() as f64;
        assert!((0.45..0.9).contains(&with_home), "home-AP share {with_home}");
    }

    #[test]
    fn update_happens_only_in_2015() {
        let (_, s14) = tiny(Year::Y2014, 8);
        assert_eq!(s14.n_updated, 0);
        let mut cfg = CampaignConfig::scaled(Year::Y2015, 0.05);
        cfg.days = 25;
        cfg.seed = 9;
        let (_, s15) = run_campaign(&cfg);
        assert!(s15.n_updated > 0, "nobody updated");
    }
}
