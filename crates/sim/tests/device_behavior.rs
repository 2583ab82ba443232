//! Behavioural tests of the device layer: hand-built personas with exact
//! traits, run through the full pipeline, verified on the cleaned records.

use mobitrace_behavior::{Persona, WifiAttitude};
use mobitrace_collector::{clean, CleanOptions, CollectionServer};
use mobitrace_deploy::world::WorldSpec;
use mobitrace_deploy::{ApWorld, DeployParams};
use mobitrace_geo::{CommutePath, DensitySurface, GeoPoint, Grid, PoiSet};
use mobitrace_model::{
    CampaignMeta, Carrier, CellTech, Dataset, DeviceId, DeviceInfo, Occupation, Os, WifiBinState,
    Year,
};
use mobitrace_sim::device::{DeviceSim, SharedWorld};
use mobitrace_sim::CampaignConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Build a persona with explicit traits at a fixed home/office.
fn persona(attitude: WifiAttitude, owns_home_ap: bool, cellular_averse: bool) -> Persona {
    let grid = Grid::greater_tokyo();
    let home = GeoPoint::new(35.70, 139.75);
    let office = GeoPoint::new(35.69, 139.70);
    Persona {
        index: 0,
        os: Os::Android,
        occupation: Occupation::OfficeWorker,
        home,
        office: Some(office),
        commute: Some(CommutePath::between(&grid, home, office)),
        owns_home_ap,
        office_byod: false,
        attitude,
        public_wifi_configured: false,
        cellular_averse,
        demand_scale: 1.0,
        app_affinity: vec![1.0; 26],
        sleep_wifi_off: false,
        security_conscious: false,
        battery_concern: false,
    }
}

/// Run one device for `days` days and return its cleaned dataset.
fn run_device(p: Persona, days: u32, seed: u64) -> Dataset {
    let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.02).with_seed(seed);
    cfg.days = days;
    let grid = Grid::greater_tokyo();
    let pois = PoiSet::generate(30, &mut ChaCha8Rng::seed_from_u64(seed + 1));
    let participant_homes = if p.owns_home_ap { vec![(0u32, p.home)] } else { vec![] };
    let spec = WorldSpec {
        params: DeployParams::for_year(Year::Y2014),
        participant_homes,
        office_sites: vec![],
        pois: pois.clone(),
        n_participants: 10,
        fon_home_share: 0.0,
    };
    let world = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(seed + 2));
    let _ = DensitySurface::public(); // exercise the public constructor path
    let plans = mobitrace_deploy::ScanPlanCache::new();
    let chaos = mobitrace_collector::ChaosSchedule::none();
    let shared = SharedWorld {
        world: &world,
        grid: &grid,
        pois: &pois,
        update: None,
        config: &cfg,
        plans: &plans,
        chaos: &chaos,
    };
    let server = CollectionServer::new();
    let home_ap = world.participant_home_ap.get(&0).copied();
    let mut dev = DeviceSim::new(
        p,
        Carrier::A,
        CellTech::Lte,
        home_ap,
        None,
        &shared,
        ChaCha8Rng::seed_from_u64(seed + 3),
    );
    dev.run(&shared, &server);
    let records = server.into_records();
    let meta = CampaignMeta { year: Year::Y2014, start: Year::Y2014.campaign_start(), days, seed };
    let devices = vec![DeviceInfo {
        device: DeviceId(0),
        os: Os::Android,
        carrier: Carrier::A,
        recruited: true,
        survey: None,
        truth: None,
    }];
    let (ds, _) = clean(meta, devices, &records, CleanOptions::default());
    ds.validate().unwrap();
    ds
}

#[test]
fn always_off_user_never_touches_wifi() {
    let ds = run_device(persona(WifiAttitude::AlwaysOff, true, false), 4, 1);
    assert!(!ds.bins.is_empty());
    for b in &ds.bins.to_bins() {
        assert_eq!(b.wifi, WifiBinState::Off, "at {}", b.time);
        assert_eq!(b.rx_wifi, 0);
    }
    // All traffic rides cellular.
    assert!(ds.bins.to_bins().iter().map(|b| b.rx_cell()).sum::<u64>() > 0);
}

#[test]
fn toggles_off_user_is_off_away_and_on_at_home() {
    let ds = run_device(persona(WifiAttitude::TogglesOff, true, false), 6, 2);
    let mut on_bins = 0;
    let mut off_bins = 0;
    for b in &ds.bins.to_bins() {
        match &b.wifi {
            WifiBinState::Off => off_bins += 1,
            _ => on_bins += 1,
        }
    }
    assert!(on_bins > 0, "never enabled WiFi at home");
    assert!(off_bins > 0, "never disabled WiFi away");
    // Associated bins happen (home AP exists and is known).
    let assoc = ds.bins.to_bins().iter().filter(|b| b.wifi.assoc().is_some()).count();
    assert!(assoc > 20, "only {assoc} associated bins");
    // Work-hour weekday bins (Tue 11:00-16:00, day 3 of the Sat-started
    // campaign) must be Off: the user toggles off when leaving home.
    for b in &ds.bins.to_bins() {
        if b.time.day() == 3 && (11..16).contains(&b.time.hour()) {
            assert_eq!(b.wifi, WifiBinState::Off, "at {}", b.time);
        }
    }
}

#[test]
fn toggles_off_without_home_ap_is_always_off() {
    let ds = run_device(persona(WifiAttitude::TogglesOff, false, false), 3, 3);
    for b in &ds.bins.to_bins() {
        assert_eq!(b.wifi, WifiBinState::Off);
    }
}

#[test]
fn averse_user_has_zero_cellular_off_wifi() {
    let ds = run_device(persona(WifiAttitude::AlwaysOn, true, true), 5, 4);
    // Mobile data is switched off: cellular is exactly zero everywhere.
    let cell: u64 = ds.bins.to_bins().iter().map(|b| b.rx_cell() + b.tx_cell()).sum();
    assert_eq!(cell, 0, "averse user leaked {cell} cellular bytes");
    // WiFi still carries traffic at home.
    assert!(ds.bins.to_bins().iter().map(|b| b.rx_wifi).sum::<u64>() > 0);
}

#[test]
fn always_on_user_associates_at_home_most_evenings() {
    let ds = run_device(persona(WifiAttitude::AlwaysOn, true, false), 8, 5);
    // Count evenings (20:00-23:00) with at least one association.
    let mut evenings_assoc = 0;
    for day in 0..8 {
        let any = ds.bins.to_bins().iter().any(|b| {
            b.time.day() == day && (20..23).contains(&b.time.hour()) && b.wifi.assoc().is_some()
        });
        if any {
            evenings_assoc += 1;
        }
    }
    // home_assoc_daily_p for 2014 is 0.75: expect most but not all.
    assert!((3..=8).contains(&evenings_assoc), "{evenings_assoc}/8 evenings associated");
}

#[test]
fn no_home_ap_always_on_user_stays_unassociated_at_home() {
    let ds = run_device(persona(WifiAttitude::AlwaysOn, false, false), 3, 6);
    for b in &ds.bins.to_bins() {
        if let Some(a) = b.wifi.assoc() {
            // Any association must be non-home (no home AP exists, public
            // not configured) — with neither, none should occur at all.
            panic!("unexpected association to ap {} at {}", a.ap.0, b.time);
        }
    }
    // But the interface stays enabled: WiFi-available user.
    let on = ds.bins.to_bins().iter().filter(|b| b.wifi.is_on()).count();
    assert!(on > ds.bins.len() / 2);
}
