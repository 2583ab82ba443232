//! Fault-convergence proofs: for seeded chaos schedules — including a
//! server crash mid-campaign and a full link-down day — the cleaned
//! dataset is record-identical to the reliable-channel run minus exactly
//! the losses the cleaner's sequence-gap counters (plus the surviving
//! sequence numbers, for tails) report. The agent cache never exceeds its
//! bound and every eviction is counted. `run_convergence` verifies all of
//! that internally; these tests pin the scenarios and fuzz the space.

use mobitrace_collector::transport::EpisodeKind;
use mobitrace_collector::{run_convergence, ChaosProfile, ChaosRunConfig, Episode, FaultPlan};
use mobitrace_model::SimTime;
use proptest::prelude::*;

/// Scenario 1: the server crashes mid-campaign (and recovers) under
/// a flaky chaos profile.
#[test]
fn server_crash_mid_campaign_converges() {
    let cfg = ChaosRunConfig {
        n_devices: 8,
        days: 4,
        crash_at: Some(SimTime::from_day_bin(2, 30)),
        crash_duration_min: 180,
        ..ChaosRunConfig::quick(20151028)
    };
    let report = run_convergence(&cfg);
    assert!(report.converged, "{report}");
    assert_eq!(report.crashes, 1);
    assert!(report.retries > 0, "flaky chaos must cause visible failures");
    assert!(report.server_rejects > 0, "the crash window must refuse uploads");
}

/// Scenario 2: a full link-down day with a tiny cache. Every send on day
/// 1 fails, the backlog (144 bins) overflows the 8-frame cache, evictions
/// are counted, and the stream still converges: the evicted records show
/// up as exactly the losses the cleaner reports.
#[test]
fn full_link_down_day_with_evictions_converges() {
    let cfg = ChaosRunConfig {
        n_devices: 4,
        days: 3,
        seed: 99,
        faults: FaultPlan::mobile(),
        profile: None,
        extra_episodes: vec![Episode {
            start: SimTime::from_day_bin(1, 0),
            end: SimTime::from_day_bin(2, 0),
            kind: EpisodeKind::LinkDown,
        }],
        cache_cap: 8,
        crash_at: None,
        crash_duration_min: 0,
        soft_limit: 0,
    };
    let report = run_convergence(&cfg);
    assert!(report.converged, "{report}");
    assert!(report.chaos_failed > 0, "the dead day must fail sends");
    assert!(report.evicted > 0, "a 144-bin backlog must overflow an 8-frame cache");
    assert!(report.missing >= report.evicted, "evictions are witnessed as gaps");
    assert_eq!(report.max_pending, 8, "cache pinned at its bound through the outage");
}

/// Scenario 3: hostile everything — hostile base faults, hostile episode
/// profile, a crash, and a small cache.
#[test]
fn hostile_profile_with_small_cache_converges() {
    let cfg = ChaosRunConfig {
        n_devices: 6,
        days: 3,
        faults: FaultPlan::hostile(),
        profile: Some(ChaosProfile::hostile()),
        cache_cap: 32,
        crash_at: Some(SimTime::from_day_bin(1, 100)),
        crash_duration_min: 240,
        ..ChaosRunConfig::quick(42)
    };
    let report = run_convergence(&cfg);
    assert!(report.converged, "{report}");
    assert!(report.max_pending <= 32, "cache bound held");
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// Fuzz the space: any seed, campaign shape, cache bound, crash point.
    /// `run_convergence` asserts the full invariant internally.
    #[test]
    fn any_chaos_schedule_converges(
        seed in any::<u64>(),
        n_devices in 2u32..6,
        days in 2u32..4,
        cache_cap in 16usize..128,
        crash in any::<bool>(),
    ) {
        let cfg = ChaosRunConfig {
            n_devices,
            days,
            seed,
            faults: FaultPlan::mobile(),
            profile: Some(ChaosProfile::flaky()),
            extra_episodes: Vec::new(),
            cache_cap,
            crash_at: crash.then(|| SimTime::from_day_bin(days / 2, 17)),
            crash_duration_min: 150,
            soft_limit: 0,
        };
        let report = run_convergence(&cfg);
        prop_assert!(report.converged, "{}", report);
        prop_assert!(report.max_pending <= cache_cap);
    }
}
