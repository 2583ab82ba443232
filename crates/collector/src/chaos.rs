//! Fault-convergence harness: the proof that chaos cannot corrupt the
//! dataset, only thin it in ways the cleaner accounts for.
//!
//! [`run_convergence`] drives the *same* deterministic observation stream
//! through two full pipelines in lockstep:
//!
//! - a **reliable** lane: default agent, [`FaultPlan::reliable`] channel,
//!   plain server — every record arrives;
//! - a **chaos** lane: bounded-cache agent with backoff, a channel under a
//!   seeded [`ChaosSchedule`] on top of an arbitrary [`FaultPlan`], and a
//!   server that may crash mid-campaign and recover, with
//!   optional ingest backpressure.
//!
//! Afterwards it checks the invariant the whole analysis layer depends
//! on: the chaos lane's stored records are an *exact subset* of the
//! reliable lane's (equal record-for-record after filtering the reliable
//! set to the delivered (device, seq) keys), the cleaned datasets of the
//! two sets are identical, the agent cache never exceeded its bound, and
//! every lost record is accounted for — interior/leading losses by the
//! cleaner's gap counters, tail losses by the surviving sequence numbers.

use crate::agent::{DeviceAgent, Observation};
use crate::clean::{clean, CleanOptions};
use crate::server::CollectionServer;
use crate::transport::{ChaosProfile, ChaosSchedule, Episode, FaultPlan, LossyTransport};
use mobitrace_model::{
    AppBin, AppCategory, AssocInfo, Band, Bssid, CampaignMeta, Carrier, CellId, Channel, Dbm,
    DeviceId, DeviceInfo, Essid, Os, OsVersion, Record, ScanSummary, SimTime, WifiState, Year,
    BINS_PER_DAY, BIN_MINUTES,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Flush rounds after campaign end before the harness gives up (each
/// round advances simulated time one bin, so backoff windows close).
const MAX_FLUSH_ROUNDS: u32 = 5_000;

/// One convergence run's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRunConfig {
    /// Devices in the campaign.
    pub n_devices: u32,
    /// Campaign length in days.
    pub days: u32,
    /// Master seed (drives behavior, channels, and chaos schedules).
    pub seed: u64,
    /// Base i.i.d. fault plan for the chaos lane.
    pub faults: FaultPlan,
    /// Episode rates for the chaos lane; `None` disables episodes.
    pub profile: Option<ChaosProfile>,
    /// Explicit episodes merged into every device's schedule (e.g. a
    /// pinned full link-down day for a scenario test).
    pub extra_episodes: Vec<Episode>,
    /// Upload-cache bound for the chaos lane's agents.
    pub cache_cap: usize,
    /// Crash the server at this instant.
    pub crash_at: Option<SimTime>,
    /// How long a crash lasts before recovery, in minutes.
    pub crash_duration_min: u32,
    /// Soft ingest limit for backpressure; 0 disables it.
    pub soft_limit: usize,
}

impl ChaosRunConfig {
    /// A small but representative run: a few devices, a flaky profile.
    pub fn quick(seed: u64) -> ChaosRunConfig {
        ChaosRunConfig {
            n_devices: 6,
            days: 3,
            seed,
            faults: FaultPlan::mobile(),
            profile: Some(ChaosProfile::flaky()),
            extra_episodes: Vec::new(),
            cache_cap: 64,
            crash_at: Some(SimTime::from_day_bin(1, 60)),
            crash_duration_min: 120,
            soft_limit: 0,
        }
    }
}

/// What a convergence run measured, and whether the invariant held.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Devices simulated.
    pub devices: u32,
    /// Records produced per lane (identical streams by construction).
    pub records_made: u64,
    /// Records the chaos lane's server ended up storing.
    pub delivered: u64,
    /// Losses witnessed by the cleaner's sequence-gap counters.
    pub missing: u64,
    /// Losses at the tail of a device's stream (no later record to
    /// witness them; reconciled against surviving sequence numbers).
    pub tail_lost: u64,
    /// Frames evicted from full agent caches.
    pub evicted: u64,
    /// Highest cache fill observed across agents.
    pub max_pending: usize,
    /// The configured cache bound.
    pub cache_cap: usize,
    /// Visible upload failures across agents.
    pub retries: u64,
    /// Ticks skipped inside backoff windows.
    pub backoff_skips: u64,
    /// Upload rounds refused by server backpressure.
    pub server_rejects: u64,
    /// Visible failures caused by chaos episodes.
    pub chaos_failed: u64,
    /// Frames lost in transit to server-outage windows.
    pub lost_to_outage: u64,
    /// Deliveries lost at a crashed server.
    pub lost_to_crash: u64,
    /// Server crashes simulated.
    pub crashes: u64,
    /// Duplicate deliveries the server deduplicated.
    pub duplicates: u64,
    /// Corrupted frames the server's checksum rejected.
    pub rejected: u64,
    /// Sequence gaps the cleaner counted.
    pub gaps: u64,
    /// Whether every convergence check passed.
    pub converged: bool,
    /// First failed check, when `converged` is false.
    pub mismatch: Option<String>,
}

impl std::fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos convergence: {} devices, {} records made, {} delivered",
            self.devices, self.records_made, self.delivered
        )?;
        writeln!(
            f,
            "  losses: {} witnessed by gaps ({} gaps), {} at stream tails, \
             {} evicted, {} to outages, {} to crashes ({} crashes)",
            self.missing,
            self.gaps,
            self.tail_lost,
            self.evicted,
            self.lost_to_outage,
            self.lost_to_crash,
            self.crashes
        )?;
        writeln!(
            f,
            "  agent: max cache {}/{} frames, {} retries, {} backoff skips, {} rejects",
            self.max_pending, self.cache_cap, self.retries, self.backoff_skips, self.server_rejects
        )?;
        writeln!(
            f,
            "  server: {} duplicates deduped, {} corrupt frames rejected",
            self.duplicates, self.rejected
        )?;
        match &self.mismatch {
            None => write!(f, "  invariant: HELD (chaos dataset ≡ reliable dataset minus losses)"),
            Some(m) => write!(f, "  invariant: VIOLATED — {m}"),
        }
    }
}

/// Per-device lockstep state: one behavior stream feeding both lanes.
struct DevicePair {
    behavior: ChaCha8Rng,
    net_rel: ChaCha8Rng,
    net_chaos: ChaCha8Rng,
    agent_rel: DeviceAgent,
    agent_chaos: DeviceAgent,
    link_rel: LossyTransport,
    link_chaos: LossyTransport,
}

/// Run the two lanes in lockstep and verify the convergence invariant.
pub fn run_convergence(cfg: &ChaosRunConfig) -> ConvergenceReport {
    let mut seed_rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let global = match &cfg.profile {
        Some(p) => ChaosSchedule::server_schedule(p, cfg.days, &mut seed_rng),
        None => ChaosSchedule::none(),
    };

    let server_rel = CollectionServer::new();
    let server_chaos = CollectionServer::new();
    if cfg.soft_limit > 0 {
        server_chaos.set_soft_limit(cfg.soft_limit);
    }

    let mut pairs: Vec<DevicePair> = (0..cfg.n_devices)
        .map(|d| {
            let mut behavior = ChaCha8Rng::seed_from_u64(
                cfg.seed ^ (u64::from(d) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let net_rel = ChaCha8Rng::seed_from_u64(behavior.gen());
            let mut net_chaos = ChaCha8Rng::seed_from_u64(behavior.gen());
            let schedule = match &cfg.profile {
                Some(p) => {
                    ChaosSchedule::device_schedule(p, cfg.days, &mut net_chaos).merged_with(&global)
                }
                None => global.clone(),
            }
            .merged_with(&ChaosSchedule::from_episodes(cfg.extra_episodes.clone()));
            DevicePair {
                behavior,
                net_rel,
                net_chaos,
                agent_rel: DeviceAgent::new(DeviceId(d), Os::Android, OsVersion::new(4, 4)),
                agent_chaos: DeviceAgent::new(DeviceId(d), Os::Android, OsVersion::new(4, 4))
                    .with_cache_cap(cfg.cache_cap),
                link_rel: LossyTransport::new(FaultPlan::reliable()),
                link_chaos: LossyTransport::with_chaos(cfg.faults, schedule),
            }
        })
        .collect();

    let recover_at = cfg.crash_at.map(|t| t.plus_minutes(cfg.crash_duration_min));

    // Lockstep campaign loop.
    for day in 0..cfg.days {
        for bin in 0..BINS_PER_DAY {
            let t = SimTime::from_day_bin(day, bin);
            if cfg.crash_at == Some(t) {
                server_chaos.crash();
            }
            if let Some(r) = recover_at {
                if server_chaos.is_crashed() && t >= r {
                    server_chaos.recover();
                }
            }
            for pair in &mut pairs {
                if pair.behavior.gen_bool(0.004) {
                    pair.agent_rel.reboot();
                    pair.agent_chaos.reboot();
                }
                let obs = sample_observation(t, &mut pair.behavior);
                pair.agent_rel.observe(&obs);
                pair.agent_chaos.observe(&obs);

                pair.agent_rel.try_upload(&mut pair.net_rel, t, &mut pair.link_rel);
                server_rel.ingest_batch(pair.link_rel.deliver_due(t));

                if server_chaos.accepting() {
                    pair.agent_chaos.try_upload(&mut pair.net_chaos, t, &mut pair.link_chaos);
                } else {
                    pair.agent_chaos.note_server_reject(&mut pair.net_chaos, t);
                }
                // In-flight frames land regardless; a crashed server loses
                // them (counted), which is exactly what a real outage does.
                server_chaos.ingest_batch(pair.link_chaos.deliver_due(t));
            }
        }
    }

    // End of campaign: heal the server, lift backpressure, and flush with
    // advancing time so backoff windows can close.
    if server_chaos.is_crashed() {
        server_chaos.recover();
    }
    server_chaos.set_soft_limit(0);
    let end = SimTime::from_day_bin(cfg.days, 0);
    for round in 0..MAX_FLUSH_ROUNDS {
        let t = end.plus_minutes(round * BIN_MINUTES);
        let mut all_idle = true;
        for pair in &mut pairs {
            pair.agent_rel.try_upload(&mut pair.net_rel, t, &mut pair.link_rel);
            server_rel.ingest_batch(pair.link_rel.deliver_due(t));
            pair.agent_chaos.try_upload(&mut pair.net_chaos, t, &mut pair.link_chaos);
            server_chaos.ingest_batch(pair.link_chaos.deliver_due(t));
            if pair.agent_rel.pending() > 0
                || pair.agent_chaos.pending() > 0
                || pair.link_rel.in_flight_len() > 0
                || pair.link_chaos.in_flight_len() > 0
            {
                all_idle = false;
            }
        }
        if all_idle {
            break;
        }
    }
    for pair in &mut pairs {
        server_rel.ingest_batch(pair.link_rel.drain());
        server_chaos.ingest_batch(pair.link_chaos.drain());
    }

    // Aggregate agent/channel counters.
    let mut report = ConvergenceReport {
        devices: cfg.n_devices,
        records_made: pairs.iter().map(|p| p.agent_chaos.records_made).sum(),
        delivered: 0,
        missing: 0,
        tail_lost: 0,
        evicted: pairs.iter().map(|p| p.agent_chaos.dropped_records).sum(),
        max_pending: pairs.iter().map(|p| p.agent_chaos.max_pending).max().unwrap_or(0),
        cache_cap: cfg.cache_cap,
        retries: pairs.iter().map(|p| p.agent_chaos.retries).sum(),
        backoff_skips: pairs.iter().map(|p| p.agent_chaos.backoff_skips).sum(),
        server_rejects: pairs.iter().map(|p| p.agent_chaos.server_rejects).sum(),
        chaos_failed: pairs.iter().map(|p| p.link_chaos.chaos_failed).sum(),
        lost_to_outage: pairs.iter().map(|p| p.link_chaos.lost_server_down).sum(),
        lost_to_crash: server_chaos.stats().lost_down,
        crashes: server_chaos.stats().crashes,
        duplicates: server_chaos.stats().duplicates,
        rejected: server_chaos.stats().rejected,
        gaps: 0,
        converged: false,
        mismatch: None,
    };
    let flushed = pairs.iter().all(|p| p.agent_chaos.pending() == 0 && p.agent_rel.pending() == 0);

    let records_rel = server_rel.into_records();
    let records_chaos = server_chaos.into_records();
    report.delivered = records_chaos.len() as u64;

    let checks = verify(cfg, &records_rel, &records_chaos, &mut report, flushed);
    report.converged = checks.is_none();
    report.mismatch = checks;
    report
}

/// The convergence checks; returns the first violation's description.
fn verify(
    cfg: &ChaosRunConfig,
    records_rel: &[Record],
    records_chaos: &[Record],
    report: &mut ConvergenceReport,
    flushed: bool,
) -> Option<String> {
    if !flushed {
        return Some("agent caches never drained within the flush budget".into());
    }
    // The reliable lane must have received every record ever made.
    if records_rel.len() as u64 != report.records_made {
        return Some(format!(
            "reliable lane stored {} of {} records",
            records_rel.len(),
            report.records_made
        ));
    }
    // Exact-subset: every chaos record is byte-identical to the reliable
    // record with the same key, i.e. chaos == reliable ∖ lost keys.
    let chaos_keys: HashSet<(DeviceId, u32)> =
        records_chaos.iter().map(|r| (r.device, r.seq)).collect();
    if chaos_keys.len() != records_chaos.len() {
        return Some("duplicate (device, seq) keys in the chaos store".into());
    }
    let filtered: Vec<Record> =
        records_rel.iter().filter(|r| chaos_keys.contains(&(r.device, r.seq))).cloned().collect();
    if filtered.len() != records_chaos.len() {
        return Some("chaos store holds keys the reliable lane never produced".into());
    }
    if filtered != records_chaos {
        return Some("a delivered record differs from its reliable twin".into());
    }

    // The cleaned datasets over the two (identical) record sets agree.
    let meta = CampaignMeta {
        year: Year::Y2014,
        start: Year::Y2014.campaign_start(),
        days: cfg.days,
        seed: cfg.seed,
    };
    let devices: Vec<DeviceInfo> = (0..cfg.n_devices)
        .map(|d| DeviceInfo {
            device: DeviceId(d),
            os: Os::Android,
            carrier: Carrier::A,
            recruited: true,
            survey: None,
            truth: None,
        })
        .collect();
    let opts = CleanOptions::default();
    let (ds_chaos, stats_chaos) = clean(meta.clone(), devices.clone(), records_chaos, opts);
    let (ds_rel, _) = clean(meta, devices, &filtered, opts);
    if let Err(e) = ds_chaos.validate() {
        return Some(format!("chaos dataset failed validation: {e:?}"));
    }
    if ds_chaos != ds_rel {
        return Some("cleaned chaos dataset differs from cleaned filtered-reliable dataset".into());
    }
    report.gaps = stats_chaos.gaps;
    report.missing = stats_chaos.missing_records;

    // Loss accounting: every record not delivered is either witnessed by
    // a sequence gap (the cleaner's `missing_records`) or lost at a
    // stream tail, where the surviving max sequence number bounds it.
    let mut tail = 0u64;
    for d in 0..cfg.n_devices {
        let made = u64::from(max_seq_plus_one_made(records_rel, DeviceId(d)));
        let seen = records_chaos
            .iter()
            .filter(|r| r.device == DeviceId(d))
            .map(|r| u64::from(r.seq) + 1)
            .max()
            .unwrap_or(0);
        tail += made - seen;
    }
    report.tail_lost = tail;
    let lost = report.records_made - report.delivered;
    if report.missing + report.tail_lost != lost {
        return Some(format!(
            "loss accounting: {} missing + {} tail != {} lost",
            report.missing, report.tail_lost, lost
        ));
    }

    // The bounded cache held its bound, and every eviction was counted.
    if report.max_pending > cfg.cache_cap {
        return Some(format!(
            "cache exceeded its bound: {} > {}",
            report.max_pending, cfg.cache_cap
        ));
    }
    None
}

/// Records made for a device == its max sequence number + 1 (the reliable
/// lane stores everything, so this reads it off the reliable records).
fn max_seq_plus_one_made(records_rel: &[Record], device: DeviceId) -> u32 {
    records_rel.iter().filter(|r| r.device == device).map(|r| r.seq + 1).max().unwrap_or(0)
}

/// Deterministic synthetic behavior: diurnal volumes, occasional WiFi
/// association, some app traffic. Tethering stays off — the cleaner
/// *removes* tethered bins (with their volume), while a lost record folds
/// its volume into the next delta, so tethering under loss shifts volume
/// between the lanes by design and would make exact comparison vacuous.
fn sample_observation<R: Rng + ?Sized>(t: SimTime, rng: &mut R) -> Observation {
    let awake = (6..23).contains(&t.hour());
    let scale = if awake { 1.0 } else { 0.05 };
    let volume = |rng: &mut R, hi: u64| -> u64 {
        let hi = ((hi as f64) * scale) as u64;
        if hi == 0 {
            0
        } else {
            rng.gen_range(0..hi)
        }
    };
    let rx_wifi = volume(rng, 2_000_000);
    let wifi = if rng.gen_bool(0.3) {
        WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(u64::from(rng.gen_range(0..4u32))),
            essid: Essid::new(if rng.gen_bool(0.5) { "home" } else { "cafe" }),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-50 - rng.gen_range(0..30)),
        })
    } else if rng.gen_bool(0.5) {
        WifiState::OnUnassociated
    } else {
        WifiState::Off
    };
    Observation {
        time: t,
        rx_3g: volume(rng, 50_000),
        tx_3g: volume(rng, 10_000),
        rx_lte: volume(rng, 800_000),
        tx_lte: volume(rng, 100_000),
        rx_wifi,
        tx_wifi: rx_wifi / 5,
        wifi,
        scan: ScanSummary::default(),
        apps: vec![AppBin {
            category: AppCategory::Browser,
            rx_bytes: rx_wifi / 2,
            tx_bytes: rx_wifi / 20,
        }],
        geo: CellId::new(rng.gen_range(0..8), rng.gen_range(0..8)),
        charging: !awake,
        tethering: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_converges_with_crash_and_chaos() {
        let report = run_convergence(&ChaosRunConfig::quick(7));
        assert!(report.converged, "{report}");
        assert_eq!(report.crashes, 1, "the configured crash must happen");
        assert!(report.records_made > 0);
        assert!(report.delivered > 0);
        assert!(report.retries > 0, "chaos must cause visible failures");
    }

    #[test]
    fn chaos_free_run_delivers_everything() {
        let cfg = ChaosRunConfig {
            faults: FaultPlan::reliable(),
            profile: None,
            crash_at: None,
            ..ChaosRunConfig::quick(1)
        };
        let report = run_convergence(&cfg);
        assert!(report.converged, "{report}");
        assert_eq!(report.delivered, report.records_made);
        assert_eq!(report.missing + report.tail_lost, 0);
    }
}
