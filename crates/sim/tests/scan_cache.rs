//! Regression tests for the scan-plan cache: the cached scan path must
//! reproduce the uncached path's paper-matching distributions (association
//! rate, RSSI shape, scan sizes) within statistical tolerance, and each
//! path must stay bit-deterministic across thread counts.

use mobitrace_model::{Dataset, Year};
use mobitrace_sim::{run_campaign, CampaignConfig};

fn run(scan_cache: bool, threads: usize) -> Dataset {
    let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.05)
        .with_seed(4242)
        .with_threads(threads)
        .with_scan_cache(scan_cache);
    cfg.days = 6;
    run_campaign(&cfg).0
}

/// Association-focused statistics of one dataset.
struct AssocStats {
    assoc_share: f64,
    mean_rssi: f64,
    weak_share: f64,
    mean_n24: f64,
}

fn stats(ds: &Dataset) -> AssocStats {
    let mut assoc = 0usize;
    let mut rssi_sum = 0.0;
    let mut weak = 0usize;
    let mut on_bins = 0usize;
    let mut n24_sum = 0u64;
    for b in &ds.bins.to_bins() {
        if b.wifi.is_on() {
            on_bins += 1;
            n24_sum += u64::from(b.scan.n24_all);
        }
        if let Some(a) = b.wifi.assoc() {
            assoc += 1;
            rssi_sum += a.rssi.as_f64();
            if a.rssi.as_f64() < -70.0 {
                weak += 1;
            }
        }
    }
    assert!(assoc > 500, "too few associated bins ({assoc}) for stable statistics");
    assert!(on_bins > 0);
    AssocStats {
        assoc_share: assoc as f64 / ds.bins.len() as f64,
        mean_rssi: rssi_sum / assoc as f64,
        weak_share: weak as f64 / assoc as f64,
        mean_n24: n24_sum as f64 / on_bins as f64,
    }
}

#[test]
fn cached_path_matches_uncached_distributions() {
    let cached = stats(&run(true, 4));
    let uncached = stats(&run(false, 4));

    // Association rate: same share of bins end up on WiFi.
    let rel = (cached.assoc_share - uncached.assoc_share).abs() / uncached.assoc_share;
    assert!(
        rel < 0.15,
        "assoc share diverged: cached {} vs uncached {}",
        cached.assoc_share,
        uncached.assoc_share
    );

    // RSSI shape (Fig. 15): mean within 2 dB, weak tail within 5 points.
    assert!(
        (cached.mean_rssi - uncached.mean_rssi).abs() < 2.0,
        "mean assoc RSSI diverged: cached {} vs uncached {}",
        cached.mean_rssi,
        uncached.mean_rssi
    );
    assert!(
        (cached.weak_share - uncached.weak_share).abs() < 0.05,
        "weak share diverged: cached {} vs uncached {}",
        cached.weak_share,
        uncached.weak_share
    );

    // Scan-size distribution: 8σ-pruned plans may drop statistically
    // invisible candidates but must not change what devices actually see.
    let rel = (cached.mean_n24 - uncached.mean_n24).abs() / uncached.mean_n24;
    assert!(
        rel < 0.20,
        "mean 2.4 GHz scan size diverged: cached {} vs uncached {}",
        cached.mean_n24,
        uncached.mean_n24
    );
}

#[test]
fn parallelism_invariant_with_scan_cache() {
    // Plans are pure functions of (world, quantized key), so shared-cache
    // races affect timing only: 1 worker and 8 workers must still produce
    // bit-identical datasets with caching enabled.
    let a = run(true, 1);
    let b = run(true, 8);
    assert_eq!(a, b);
}

#[test]
fn parallelism_invariant_without_scan_cache() {
    let a = run(false, 1);
    let b = run(false, 8);
    assert_eq!(a, b);
}

#[test]
fn cached_run_is_deterministic_across_repeats() {
    let a = run(true, 4);
    let b = run(true, 4);
    assert_eq!(a, b);
}
