//! Integration tests of the measurement pipeline under stress: hostile
//! transports, determinism across runs.

use mobitrace_collector::{CleanOptions, FaultPlan};
use mobitrace_model::{OsVersion, Year};
use mobitrace_sim::campaign::run_campaign_opts;
use mobitrace_sim::{run_campaign, CampaignConfig};

fn tiny(year: Year, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::scaled(year, 0.02).with_seed(seed);
    cfg.days = 5;
    cfg
}

#[test]
fn hostile_transport_still_yields_consistent_dataset() {
    let mut cfg = tiny(Year::Y2014, 1);
    cfg.faults = FaultPlan::hostile();
    let (ds, summary) = run_campaign(&cfg);
    ds.validate().unwrap();
    // Corruption was detected (checksums) rather than admitted.
    assert!(summary.ingest.rejected > 0, "hostile channel must corrupt something");
    assert!(summary.ingest.duplicates > 0);
    // Even so every device contributed data.
    for d in &ds.devices {
        assert!(!ds.device_rows(d.device).is_empty(), "{} lost", d.device);
    }
    // Volume survives: totals within a few percent of a reliable run of
    // the same campaign (cumulative counters absorb mid-stream loss; only
    // tail loss can shave volume).
    let mut reliable = tiny(Year::Y2014, 1);
    reliable.faults = FaultPlan::reliable();
    let (ds_ok, _) = run_campaign(&reliable);
    let (a, b) = (ds.total_rx().as_bytes() as f64, ds_ok.total_rx().as_bytes() as f64);
    assert!((a - b).abs() / b < 0.05, "hostile {a} vs reliable {b}");
}

#[test]
fn campaigns_are_deterministic() {
    let (a, _) = run_campaign(&tiny(Year::Y2013, 9));
    let (b, _) = run_campaign(&tiny(Year::Y2013, 9));
    assert_eq!(a, b, "same seed must give bit-identical datasets");
    let (c, _) = run_campaign(&tiny(Year::Y2013, 10));
    assert_ne!(a.total_rx(), c.total_rx());
}

#[test]
fn update_day_stripping_matches_inline_cleaning() {
    let mut cfg = CampaignConfig::scaled(Year::Y2015, 0.03).with_seed(5);
    cfg.days = 25;
    // Run once keeping update days, then strip post-hoc...
    let keep = CleanOptions { remove_update_days: false, ..CleanOptions::default() };
    let (with_updates, _) = run_campaign_opts(&cfg, keep);
    let (stripped, removed) = mobitrace_collector::strip_update_days(&with_updates);
    // ...and once cleaning inline: the two must agree.
    let (inline, _) = run_campaign_opts(&cfg, CleanOptions::default());
    assert_eq!(stripped.bins.len(), inline.bins.len());
    assert_eq!(stripped.total_rx(), inline.total_rx());
    if removed > 0 {
        assert!(with_updates.bins.len() > stripped.bins.len());
    }
    // No update-day bins survive in the stripped variant: every device
    // that transitioned to 8.2 has a 2-day hole.
    let mut prev = std::collections::HashMap::new();
    for b in &stripped.bins.to_bins() {
        if let Some(&p) = prev.get(&b.device) {
            assert!(
                !(p < OsVersion::IOS_8_2 && b.os_version >= OsVersion::IOS_8_2) || b.time.day() > 0,
                "transition bin should have been removed"
            );
        }
        prev.insert(b.device, b.os_version);
    }
    stripped.validate().unwrap();
}

#[test]
fn scale_invariance_of_key_ratios() {
    // Per-user statistics should not drift wildly with population size.
    let small = {
        let (ds, _) = run_campaign(&CampaignConfig::scaled(Year::Y2015, 0.03).with_seed(11));
        let ctx = mobitrace_core::AnalysisContext::new(&ds);
        mobitrace_core::ratios::wifi_traffic_ratio(&ctx, mobitrace_core::ratios::ClassFilter::All)
            .mean
    };
    let larger = {
        let (ds, _) = run_campaign(&CampaignConfig::scaled(Year::Y2015, 0.09).with_seed(11));
        let ctx = mobitrace_core::AnalysisContext::new(&ds);
        mobitrace_core::ratios::wifi_traffic_ratio(&ctx, mobitrace_core::ratios::ClassFilter::All)
            .mean
    };
    assert!(
        (small - larger).abs() < 0.12,
        "wifi-traffic ratio drifts with scale: {small} vs {larger}"
    );
}
