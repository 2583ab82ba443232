//! Cohort-multiplexed live engines.
//!
//! The fleet frontend runs one collection server per cohort; when live
//! analysis rides along, each cohort gets its own [`LiveEngine`] fed
//! from its own server's [`IngestTap`]. [`EngineGroup`] owns that row of
//! engines and routes tap batches by cohort index.
//!
//! Every engine is built over the *full* fleet device table: lanes are
//! indexed by device, and a cohort's engine simply never sees records
//! for devices routed elsewhere, so its lanes for them stay empty. That
//! keeps routing out of the engine entirely — the cohort router already
//! decided placement at the server door, and whatever batches a cohort's
//! tap publishes belong to it by construction.
//!
//! The convergence contract is inherited per cohort: each engine's final
//! snapshot is bit-identical to the batch pipeline run over that
//! cohort's records alone ([`check_convergence`] per engine).
//!
//! [`IngestTap`]: mobitrace_collector::IngestTap
//! [`check_convergence`]: crate::check_convergence

use mobitrace_collector::TapBatch;
use mobitrace_model::{CampaignMeta, DeviceInfo};

use crate::engine::{FinishedLive, LiveEngine, LiveOptions};

/// A row of per-cohort live engines (see module docs).
pub struct EngineGroup {
    engines: Vec<LiveEngine>,
}

impl EngineGroup {
    /// One engine per cohort, each over the full `devices` table.
    pub fn with_devices(
        meta: CampaignMeta,
        devices: Vec<DeviceInfo>,
        cohorts: usize,
        opts: LiveOptions,
    ) -> EngineGroup {
        assert!(cohorts >= 1, "a group needs at least one engine");
        let engines = (0..cohorts)
            .map(|_| LiveEngine::with_devices(meta.clone(), devices.clone(), opts))
            .collect();
        EngineGroup { engines }
    }

    /// One engine per cohort over `n_devices` placeholder devices
    /// (metadata installed later via [`install_devices`]
    /// (EngineGroup::install_devices), as single-engine flows do).
    pub fn new(
        meta: CampaignMeta,
        n_devices: usize,
        cohorts: usize,
        opts: LiveOptions,
    ) -> EngineGroup {
        EngineGroup::with_devices(
            meta,
            crate::engine::placeholder_devices(n_devices),
            cohorts,
            opts,
        )
    }

    /// Engines in the group.
    pub fn n_cohorts(&self) -> usize {
        self.engines.len()
    }

    /// Direct access to one cohort's engine.
    pub fn engine_mut(&mut self, cohort: usize) -> &mut LiveEngine {
        &mut self.engines[cohort]
    }

    /// Route one tap batch to its cohort's engine.
    pub fn ingest_batch(&mut self, cohort: usize, batch: &TapBatch) {
        self.engines[cohort].ingest_batch(batch);
    }

    /// Install the real device table into every engine.
    pub fn install_devices(&mut self, devices: Vec<DeviceInfo>) {
        for engine in &mut self.engines {
            engine.install_devices(devices.clone());
        }
    }

    /// Finish every engine, in cohort order.
    pub fn finish(self) -> Vec<FinishedLive> {
        self.engines.into_iter().map(LiveEngine::finish).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_convergence;
    use mobitrace_collector::CleanOptions;
    use mobitrace_model::{
        CellId, CounterSnapshot, DeviceId, Os, OsVersion, Record, ScanSummary, SimTime, WifiState,
        Year,
    };

    fn meta() -> CampaignMeta {
        CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days: 2, seed: 0 }
    }

    fn rec(device: u32, seq: u32) -> Record {
        Record {
            device: DeviceId(device),
            seq,
            time: SimTime::from_minutes(seq * 10),
            boot_epoch: 0,
            os: Os::Android,
            os_version: OsVersion::new(4, 4),
            counters: CounterSnapshot::default(),
            wifi: WifiState::Off,
            scan: ScanSummary::default(),
            apps: Vec::new(),
            geo: CellId::new(1, 1),
            battery_pct: 90,
            tethering: false,
        }
    }

    /// Two cohort engines over one fleet device table: each converges to
    /// the batch reference over its own cohort's records, and neither
    /// sees the other's devices.
    #[test]
    fn cohort_engines_converge_independently() {
        let n_devices = 6usize;
        // Even devices → cohort 0, odd → cohort 1 (any stable split works;
        // the real router is exercised in the fleet crate).
        let cohort_of = |d: u32| (d % 2) as usize;
        let opts = LiveOptions {
            clean: CleanOptions { remove_update_days: false, ..CleanOptions::default() },
            ..LiveOptions::default()
        };
        let mut group = EngineGroup::new(meta(), n_devices, 2, opts);
        assert_eq!(group.n_cohorts(), 2);

        let mut per_cohort: Vec<Vec<Record>> = vec![Vec::new(), Vec::new()];
        for d in 0..n_devices as u32 {
            for s in 0..40u32 {
                per_cohort[cohort_of(d)].push(rec(d, s));
            }
        }
        // Interleave deliveries across cohorts in small tap batches.
        for k in 0..40usize {
            for (c, records) in per_cohort.iter().enumerate() {
                let chunk: Vec<Record> =
                    records.iter().filter(|r| r.seq as usize == k).cloned().collect();
                group.ingest_batch(c, &TapBatch { replay: false, records: chunk });
            }
        }
        let finished = group.finish();
        assert_eq!(finished.len(), 2);
        for (c, fin) in finished.iter().enumerate() {
            let stats = check_convergence(fin, &per_cohort[c], opts.clean)
                .unwrap_or_else(|e| panic!("cohort {c} diverged: {e}"));
            assert_eq!(stats.records_in, per_cohort[c].len() as u64);
            // The other cohort's devices contributed nothing here.
            assert_eq!(fin.stats.folded, per_cohort[c].len() as u64);
        }
    }
}
