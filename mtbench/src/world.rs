//! Set-up, the "world" layer: the simulated campaigns as the load
//! generator, their records cut into seeded upload schedules, and the
//! references every workload's output is checked against.
//!
//! The simulator is not the system under test here. It runs once per
//! set-up to produce the records phones would have uploaded. Everything
//! the workloads measure starts from the encoded uploads.

use crate::workloads::render_experiments;
use bytes::{Bytes, BytesMut};
use mobitrace_collector::{clean, encode_batch, strip_update_days, CleanOptions};
use mobitrace_core::AnalysisContext;
use mobitrace_model::{CampaignMeta, Dataset, DeviceId, DeviceInfo, Record, Year};
use mobitrace_query::{evaluate_payload, MetricPayload};
use mobitrace_report::CampaignSet;
use mobitrace_sim::{run_campaign_raw, CampaignConfig};
use std::ops::Range;
use std::time::Instant;

/// Open-loop send rate of the `live_serve` generator, records/s. Duplicate
/// re-sends are placed "up to 2 s later" in records at this rate.
pub const LIVE_RATE: f64 = 50_000.0;
/// Share of uploads re-sent as duplicates.
const DUP_SHARE: f64 = 0.01;
/// Furthest a duplicate trails its original, seconds at [`LIVE_RATE`].
const DUP_WINDOW_S: f64 = 2.0;
/// An upload holds one device's records of one simulated hour.
const UPLOAD_MINUTES: u32 = 60;

/// A small seeded generator (splitmix64): every choice set-up makes
/// derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One upload: a device's consecutive records of one simulated hour,
/// encoded as one `encode_batch` stream.
#[derive(Debug, Clone)]
pub struct Upload {
    /// Campaign year index (0 = 2013).
    pub year: usize,
    /// Device id as encoded in the frames.
    pub device: DeviceId,
    /// The records, as a range of the year's [`YearData::records`].
    pub records: Range<usize>,
    /// Minute of the last record (the schedule's sort key).
    pub last_minute: u32,
    /// A re-send of an earlier upload.
    pub dup: bool,
    /// The encoded stream.
    pub bytes: Bytes,
}

impl Upload {
    /// Records in the upload.
    pub fn n(&self) -> u32 {
        self.records.len() as u32
    }
}

/// One campaign year's inputs.
pub struct YearData {
    /// Campaign metadata.
    pub meta: CampaignMeta,
    /// Device table (survey answers and ground truth attached).
    pub devices: Vec<DeviceInfo>,
    /// Records the simulated server retained, sorted by (device, seq).
    pub records: Vec<Record>,
    /// Upload schedule, duplicates included.
    pub uploads: Vec<Upload>,
}

/// Where set-up time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Simulating the three campaigns.
    pub sim_s: f64,
    /// Cutting, encoding and scheduling uploads.
    pub encode_s: f64,
    /// Building the references.
    pub reference_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// Everything the workloads start from.
pub struct World {
    /// 2013, 2014, 2015.
    pub years: Vec<YearData>,
    /// All three years' uploads in one schedule, device ids shifted by
    /// [`fleet_offsets`](Self::fleet_offsets) so the years are disjoint.
    pub fleet: Vec<Upload>,
    /// Device-id shift of each year in [`fleet`](Self::fleet).
    pub fleet_offsets: [u32; 3],
    /// The campaign set exactly as `CampaignSet::simulate_opts` builds it.
    pub reference: Option<CampaignSet>,
    /// The 35 experiments rendered from the reference set.
    pub reports: Vec<(&'static str, String)>,
    /// The unfiltered query payload of the 2015 batch clean with the live
    /// engine's cleaning options.
    pub live_payload: Option<MetricPayload>,
    /// Where set-up time went.
    pub timing: SetupTiming,
}

impl World {
    /// Records the simulated servers retained, all years.
    pub fn records(&self) -> usize {
        self.years.iter().map(|y| y.records.len()).sum()
    }

    /// The reference campaign set (built when [`Needs::reference`]).
    pub fn reference(&self) -> &CampaignSet {
        self.reference.as_ref().expect("set-up was asked for the reference set")
    }
}

/// Cut sorted records into hourly per-device uploads. `device_offset`
/// shifts the encoded device ids.
fn cut_uploads(year: usize, records: &[Record], device_offset: u32) -> Vec<Upload> {
    let mut out = Vec::new();
    let mut buf = BytesMut::new();
    let mut shifted: Vec<Record> = Vec::new();
    let mut i = 0;
    while i < records.len() {
        let first = &records[i];
        let hour = first.time.minute / UPLOAD_MINUTES;
        let mut j = i + 1;
        while j < records.len()
            && records[j].device == first.device
            && records[j].time.minute / UPLOAD_MINUTES == hour
        {
            j += 1;
        }
        let device = DeviceId(first.device.0 + device_offset);
        if device_offset == 0 {
            encode_batch(&records[i..j], &mut buf);
        } else {
            shifted.clear();
            shifted.extend(records[i..j].iter().cloned().map(|mut r| {
                r.device = device;
                r
            }));
            encode_batch(&shifted, &mut buf);
        }
        out.push(Upload {
            year,
            device,
            records: i..j,
            last_minute: records[j - 1].time.minute,
            dup: false,
            bytes: buf.split().freeze(),
        });
        i = j;
    }
    out
}

/// Order uploads by their last record's time, ties broken by the seed,
/// then re-send a seeded share of them up to [`DUP_WINDOW_S`] later.
fn schedule(mut uploads: Vec<Upload>, seed: u64, rng: &mut SplitMix) -> Vec<Upload> {
    let tiebreak = |u: &Upload| {
        SplitMix::new(seed ^ ((u.year as u64) << 40) ^ u64::from(u.device.0)).next_u64()
    };
    uploads.sort_by_cached_key(|u| (u.last_minute, tiebreak(u)));
    let window = DUP_WINDOW_S * LIVE_RATE;
    let mut keyed: Vec<(f64, Upload)> = Vec::with_capacity(uploads.len() + uploads.len() / 64);
    let mut cum = 0.0;
    for u in uploads {
        let start = cum;
        cum += f64::from(u.n());
        if rng.unit() < DUP_SHARE {
            let dup = Upload { dup: true, ..u.clone() };
            keyed.push((cum + rng.unit() * window, dup));
        }
        keyed.push((start, u));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, u)| u).collect()
}

/// Which inputs and references the selected workloads need; set-up
/// builds nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct Needs {
    /// Per-year upload schedules.
    pub uploads: [bool; 3],
    /// The merged fleet schedule.
    pub fleet: bool,
    /// The reference campaign set and its 35 rendered experiments.
    pub reference: bool,
    /// The live engine's reference payload.
    pub live: bool,
}

/// Build the world for `scale` and `seed`. Every schedule draws from its
/// own seeded stream, so it is the same whatever else is built.
pub fn build(scale: f64, seed: u64, needs: Needs) -> World {
    let t0 = Instant::now();
    let mut years: Vec<YearData> = Year::ALL
        .iter()
        .map(|&year| {
            let cfg = CampaignConfig::scaled(year, scale).with_seed(seed).with_threads(2);
            let raw = run_campaign_raw(&cfg, |_| {});
            YearData {
                meta: raw.meta,
                devices: raw.devices,
                records: raw.records,
                uploads: Vec::new(),
            }
        })
        .collect();
    let sim_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let stream = |k: u64| SplitMix::new(seed ^ 0x6D74_6265_6E63_6821 ^ k);
    let mut fleet_offsets = [0u32; 3];
    let mut next = 0u32;
    let mut fleet = Vec::new();
    for (y, yd) in years.iter_mut().enumerate() {
        fleet_offsets[y] = next;
        next += u32::try_from(yd.devices.len()).expect("device count fits u32");
        if needs.uploads[y] {
            yd.uploads = schedule(cut_uploads(y, &yd.records, 0), seed, &mut stream(y as u64));
        }
        if needs.fleet {
            fleet.extend(cut_uploads(y, &yd.records, fleet_offsets[y]));
        }
    }
    if needs.fleet {
        fleet = schedule(fleet, seed, &mut stream(3));
    }
    let encode_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let (reference, reports) = if needs.reference {
        let keep_updates = CleanOptions { remove_update_days: false, ..CleanOptions::default() };
        let mut cleaned: Vec<Dataset> = years
            .iter()
            .map(|yd| clean(yd.meta.clone(), yd.devices.clone(), &yd.records, keep_updates).0)
            .collect();
        let update_2015 = cleaned.pop().expect("three years");
        let y2014 = cleaned.pop().expect("three years");
        let y2013 = cleaned.pop().expect("three years");
        let (main_2015, _) = strip_update_days(&update_2015);
        let set = CampaignSet { years: [y2013, y2014, main_2015], update_2015 };
        let ctxs = set.contexts();
        let reports = render_experiments(&set, &ctxs)
            .into_iter()
            .map(|(id, r)| (id, r.expect("every registered experiment renders")))
            .collect();
        drop(ctxs);
        (Some(set), reports)
    } else {
        (None, Vec::new())
    };
    let live_payload = needs.live.then(|| {
        let y = &years[2];
        let ds = clean(y.meta.clone(), y.devices.clone(), &y.records, CleanOptions::default()).0;
        evaluate_payload(&AnalysisContext::new(&ds))
    });
    let reference_s = t2.elapsed().as_secs_f64();

    World {
        years,
        fleet,
        fleet_offsets,
        reference,
        reports,
        live_payload,
        timing: SetupTiming { sim_s, encode_s, reference_s, total_s: t0.elapsed().as_secs_f64() },
    }
}
