//! Fleet-vs-batch determinism: a campaign pushed through the fleet
//! ingest frontend — any worker count, any cohort count — must clean to
//! a dataset **bit-identical** to the batch pipeline's. This is the
//! invariant that makes the frontend a pure scaling layer: cohort
//! routing and worker fan-out may reorder work arbitrarily, but never
//! the data.

use bytes::BytesMut;
use mobitrace_collector::{clean, encode_batch, CleanOptions};
use mobitrace_fleet::{FleetConfig, FleetIngest};
use mobitrace_model::{Dataset, Record};
use mobitrace_sim::{run_campaign_raw, CampaignConfig, RawCampaign};

fn small_campaign() -> RawCampaign {
    let mut cfg = CampaignConfig::scaled(mobitrace_model::Year::Y2015, 40.0 / 1600.0);
    cfg.days = 2;
    cfg.seed = 1177;
    run_campaign_raw(&cfg, |_| {})
}

/// Push the campaign's records through a fleet pipeline as per-device
/// upload streams (chunked, so one device spans several batches) and
/// clean whatever the cohort servers retain.
fn clean_via_fleet(raw: &RawCampaign, workers: usize, cohorts: usize) -> Dataset {
    let fleet = FleetIngest::new(FleetConfig {
        cohorts,
        workers,
        queue_cap: 64,
        pin_workers: false,
        ..FleetConfig::default()
    });
    let mut i = 0;
    while i < raw.records.len() {
        let device = raw.records[i].device;
        let mut j = i;
        while j < raw.records.len() && raw.records[j].device == device {
            j += 1;
        }
        let cohort = fleet.router().cohort_of(device);
        // Chunk each device's trace into several upload rounds.
        for chunk in raw.records[i..j].chunks(16) {
            let mut buf = BytesMut::new();
            let n = encode_batch(chunk.iter(), &mut buf);
            fleet.submit(cohort, n as u32, buf.freeze());
        }
        i = j;
    }
    let stats = fleet.finish();
    assert_eq!(stats.committed, raw.records.len() as u64, "every record commits");
    assert_eq!(stats.duplicates + stats.lost_crash + stats.shed_records, 0);
    let records: Vec<Record> = stats.into_records();
    let (dataset, _) =
        clean(raw.meta.clone(), raw.devices.clone(), &records, CleanOptions::default());
    dataset
}

#[test]
fn fleet_ingest_is_bit_identical_to_batch_across_workers_and_cohorts() {
    let raw = small_campaign();
    let (reference, _) =
        clean(raw.meta.clone(), raw.devices.clone(), &raw.records, CleanOptions::default());
    assert!(!reference.bins.is_empty());
    for (workers, cohorts) in [(1, 1), (1, 4), (8, 1), (8, 4), (3, 5)] {
        let via_fleet = clean_via_fleet(&raw, workers, cohorts);
        assert_eq!(
            via_fleet, reference,
            "fleet({workers} workers, {cohorts} cohorts) diverged from batch"
        );
    }
}

#[test]
fn interleaved_and_duplicated_delivery_still_converges() {
    // Same campaign, but devices' chunks are submitted round-robin
    // (interleaved arrival) and every third chunk is sent twice — the
    // dedup path must erase the difference.
    let raw = small_campaign();
    let (reference, _) =
        clean(raw.meta.clone(), raw.devices.clone(), &raw.records, CleanOptions::default());
    let fleet = FleetIngest::new(FleetConfig {
        cohorts: 3,
        workers: 4,
        pin_workers: false,
        ..FleetConfig::default()
    });
    let mut chunks: Vec<(u32, &[Record])> = Vec::new();
    let mut i = 0;
    while i < raw.records.len() {
        let device = raw.records[i].device;
        let mut j = i;
        while j < raw.records.len() && raw.records[j].device == device {
            j += 1;
        }
        for chunk in raw.records[i..j].chunks(8) {
            chunks.push((fleet.router().cohort_of(device), chunk));
        }
        i = j;
    }
    // Round-robin by position: submit chunk k of every device, then k+1…
    chunks.sort_by_key(|(_, c)| c[0].seq);
    for (k, (cohort, chunk)) in chunks.iter().enumerate() {
        let mut buf = BytesMut::new();
        let n = encode_batch(chunk.iter(), &mut buf);
        let stream = buf.freeze();
        fleet.submit(*cohort, n as u32, stream.clone());
        if k % 3 == 0 {
            fleet.submit(*cohort, n as u32, stream);
        }
    }
    let stats = fleet.finish();
    assert_eq!(stats.committed, raw.records.len() as u64);
    assert!(stats.duplicates > 0, "the doubled chunks must be refused");
    let records: Vec<Record> = stats.into_records();
    let (dataset, _) =
        clean(raw.meta.clone(), raw.devices.clone(), &records, CleanOptions::default());
    assert_eq!(dataset, reference);
}
