//! Pool round-trip property tests: arbitrary datasets → write → mmap →
//! decode → `AnalysisContext::from_parts` → every columnar pass must be
//! bit-equal (including f64 aggregates) to the same pass over the
//! in-memory dataset. This is the pool's contract: persistence is
//! invisible to analysis.

use mobitrace_core::daily::TrafficClass;
use mobitrace_core::ratios::ClassFilter;
use mobitrace_core::{
    apclass, apps, availability, daily, overview, quality, ratios, timeseries, AnalysisContext,
};
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_pool::{PoolReader, PoolWriter};
use proptest::prelude::*;
use std::path::PathBuf;

const N_DEV: u32 = 4;
const N_APS: u32 = 3;

fn wifi_strategy() -> impl Strategy<Value = WifiBinState> {
    prop_oneof![
        Just(WifiBinState::Off),
        Just(WifiBinState::OnUnassociated),
        (0..N_APS, any::<bool>(), 1u8..=13, -90i16..=-30).prop_map(|(ap, five, ch, rssi)| {
            WifiBinState::Associated(WifiAssoc {
                ap: ApRef(ap),
                band: if five { Band::Ghz5 } else { Band::Ghz24 },
                channel: Channel(ch),
                rssi: Dbm::new(rssi),
            })
        }),
    ]
}

fn apps_strategy() -> impl Strategy<Value = Vec<AppBin>> {
    proptest::collection::vec(
        (0usize..AppCategory::ALL.len(), 0u64..2_000_000, 0u64..200_000).prop_map(
            |(cat, rx, tx)| AppBin { category: AppCategory::ALL[cat], rx_bytes: rx, tx_bytes: tx },
        ),
        0..3,
    )
}

fn bin_strategy() -> impl Strategy<Value = BinRecord> {
    (
        (0..N_DEV, 0u32..7, 0u32..1440, wifi_strategy()),
        proptest::array::uniform6(0u64..5_000_000),
        proptest::array::uniform8(0u16..20),
        apps_strategy(),
        (-4i16..4, -4i16..4),
    )
        .prop_map(|((dev, day, minute, wifi), vol, scan, apps, (gx, gy))| BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_minute(day, minute),
            rx_3g: vol[0],
            tx_3g: vol[1],
            rx_lte: vol[2],
            tx_lte: vol[3],
            rx_wifi: vol[4],
            tx_wifi: vol[5],
            wifi,
            scan: ScanSummary {
                n24_all: scan[0],
                n24_strong: scan[1],
                n5_all: scan[2],
                n5_strong: scan[3],
                n24_public_all: scan[4],
                n24_public_strong: scan[5],
                n5_public_all: scan[6],
                n5_public_strong: scan[7],
            },
            apps,
            geo: CellId::new(gx, gy),
            os_version: OsVersion::new(4, 4),
        })
}

fn dataset(mut bins: Vec<BinRecord>) -> Dataset {
    bins.sort_by_key(|b| (b.device, b.time));
    bins.dedup_by_key(|b| (b.device, b.time));
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2013,
            start: Year::Y2013.campaign_start(),
            days: 7,
            seed: 0,
        },
        devices: (0..N_DEV)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: if i % 3 == 2 { Os::Ios } else { Os::Android },
                carrier: Carrier::ALL[(i % 3) as usize],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: (0..N_APS)
            .map(|i| ApEntry {
                bssid: Bssid::from_u64(u64::from(i) + 1),
                // Repeat one name so the dictionary dedup path is hit.
                essid: Essid::new(if i == 2 { "ap-0".to_string() } else { format!("ap-{i}") }),
            })
            .collect(),
        bins: DatasetColumns::build(&bins),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtpool-roundtrip-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Write `ds` to a fresh pool, mmap it back, and return the decoded
/// parts. Asserts the raw parts are bit-equal to their in-memory twins.
fn roundtrip(ds: &Dataset, tag: &str) -> (Dataset, DatasetIndex) {
    let dir = scratch(tag);
    let path = dir.join("rt.mtpool");
    let index = DatasetIndex::build(ds);
    {
        let mut w = PoolWriter::replace(&path).expect("replace pool");
        w.append_dataset(0, ds, &index).expect("append");
        w.finish().expect("finish");
    }
    let r = PoolReader::open(&path).expect("open pool");
    let pd = r.decode_dataset(0).expect("decode");
    assert_eq!(&pd.ds, ds, "decoded dataset differs");
    assert_eq!(pd.index, index, "persisted index differs");
    assert_eq!(pd.ds.bins, ds.bins, "decoded columns differ");
    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
    (pd.ds, pd.index)
}

/// All twelve columnar passes, pool context vs in-memory context.
fn assert_passes_bit_equal(mem: &Dataset, pool: &AnalysisContext<'_>) {
    let ctx = AnalysisContext::new(mem);
    let (a, b) = (&ctx, pool);
    let (ca, cb) = (&a.cols, &b.cols);

    assert_eq!(daily::user_days_cols(ca), daily::user_days_cols(cb));
    assert_eq!(apclass::classify_cols(mem, ca), apclass::classify_cols(b.ds, cb));
    assert_eq!(overview::overview(mem, ca), overview::overview(b.ds, cb));
    assert_eq!(timeseries::aggregate_series(mem, ca), timeseries::aggregate_series(b.ds, cb));
    assert_eq!(
        timeseries::venue_series(mem, ca, &a.aps),
        timeseries::venue_series(b.ds, cb, &b.aps)
    );
    assert_eq!(quality::rssi_analysis(ca, &a.aps), quality::rssi_analysis(cb, &b.aps));
    assert_eq!(quality::channel_analysis(ca, &a.aps), quality::channel_analysis(cb, &b.aps));
    assert_eq!(
        availability::detected_public_aps(mem, ca),
        availability::detected_public_aps(b.ds, cb)
    );
    assert_eq!(availability::offload_potential(mem, ca), availability::offload_potential(b.ds, cb));
    for filter in [ClassFilter::All, ClassFilter::Only(TrafficClass::Heavy)] {
        assert_eq!(ratios::wifi_traffic_ratio(a, filter), ratios::wifi_traffic_ratio(b, filter));
        assert_eq!(ratios::wifi_user_ratio(a, filter), ratios::wifi_user_ratio(b, filter));
    }
    assert_eq!(apps::app_breakdown(a, None), apps::app_breakdown(b, None));
    assert_eq!(
        apps::app_breakdown(a, Some(TrafficClass::Light)),
        apps::app_breakdown(b, Some(TrafficClass::Light))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pool_roundtrip_passes_bit_equal(
        bins in proptest::collection::vec(bin_strategy(), 0..160),
    ) {
        let ds = dataset(bins);
        let (pds, pindex) = roundtrip(&ds, "prop");
        let pool_ctx = AnalysisContext::from_parts(&pds, pindex, pds.bins.clone());
        assert_passes_bit_equal(&ds, &pool_ctx);
    }
}

#[test]
fn multi_stream_append_and_reopen() {
    let a = dataset(vec![]);
    let mut bins = Vec::new();
    for d in 0..N_DEV {
        for day in 0..3u32 {
            bins.push(BinRecord {
                device: DeviceId(d),
                time: SimTime::from_day_minute(day, 60 * d),
                rx_3g: u64::from(d) * 1000 + u64::from(day),
                tx_3g: 1,
                rx_lte: 2,
                tx_lte: 3,
                rx_wifi: 4,
                tx_wifi: 5,
                wifi: WifiBinState::OnUnassociated,
                scan: ScanSummary::default(),
                apps: vec![AppBin { category: AppCategory::ALL[1], rx_bytes: 7, tx_bytes: 8 }],
                geo: CellId::new(0, 0),
                os_version: OsVersion::new(4, 4),
            });
        }
    }
    let b = dataset(bins);

    let dir = scratch("multi");
    let path = dir.join("multi.mtpool");
    {
        let mut w = PoolWriter::replace(&path).expect("replace");
        w.append_dataset(0, &a, &DatasetIndex::build(&a)).expect("append 0");
        w.append_dataset(1, &b, &DatasetIndex::build(&b)).expect("append 1");
        w.finish().expect("finish");
    }
    let r = PoolReader::open(&path).expect("open");
    assert_eq!(r.dataset_streams(), vec![0, 1]);
    assert_eq!(r.decode_dataset(0).expect("ds 0").ds, a);
    assert_eq!(r.decode_dataset(1).expect("ds 1").ds, b);
    let report = r.verify().expect("verify");
    assert_eq!(report.datasets, 2);
    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dataset persists from its bin columns and decodes back to them; an
/// index that disagrees with the bins is refused.
#[test]
fn dataset_persists_and_mismatched_index_is_refused() {
    let mut bins = Vec::new();
    for d in 0..N_DEV {
        for (k, wifi) in [
            WifiBinState::Off,
            WifiBinState::OnUnassociated,
            WifiBinState::Associated(WifiAssoc {
                ap: ApRef(d % N_APS),
                band: Band::Ghz5,
                channel: Channel(36),
                rssi: Dbm::new(-55),
            }),
        ]
        .into_iter()
        .enumerate()
        {
            bins.push(BinRecord {
                device: DeviceId(d),
                time: SimTime::from_day_minute(k as u32, 30 * d),
                rx_3g: u64::from(d),
                tx_3g: 1,
                rx_lte: 2,
                tx_lte: 3,
                rx_wifi: 4,
                tx_wifi: 5,
                wifi,
                scan: ScanSummary::default(),
                apps: vec![AppBin { category: AppCategory::ALL[k], rx_bytes: 7, tx_bytes: 8 }; k],
                geo: CellId::new(0, 0),
                os_version: OsVersion::new(4, 4),
            });
        }
    }
    let short = dataset(bins[..bins.len() - 1].to_vec());
    let full = dataset(bins);
    let index = DatasetIndex::build(&full);
    let dir = scratch("cols-only");
    let path = dir.join("cols.mtpool");
    {
        let mut w = PoolWriter::replace(&path).expect("replace");
        w.append_dataset(0, &full, &index).expect("append");
        assert!(w.append_dataset(1, &short, &index).is_err(), "index mismatch accepted");
        w.finish().expect("finish");
    }
    let r = PoolReader::open(&path).expect("open");
    let pd = r.decode_dataset(0).expect("decode");
    assert_eq!(pd.ds, full);
    assert_eq!(pd.index, index);
    assert_eq!(pd.ds.bins, full.bins);
    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replace_keeps_old_pool_until_finish() {
    let dir = scratch("replace");
    let path = dir.join("replace.mtpool");
    {
        let mut w = PoolWriter::replace(&path).expect("replace");
        w.append_raw(mobitrace_pool::kind::RAW, 0, 1, b"old-payload").expect("append");
        w.finish().expect("finish");
    }
    // A reader holds a live map of the original pool across the whole
    // replacement — the rename must never invalidate its inode.
    let old = PoolReader::open(&path).expect("open v1");
    assert_eq!(old.raw_segment(0).expect("v1 raw").0, b"old-payload");

    // Abandoned replace (a crash mid-rewrite, minus the crash): the
    // target is untouched and the temp sibling is cleaned up.
    {
        let mut w = PoolWriter::replace(&path).expect("replace");
        w.append_raw(mobitrace_pool::kind::RAW, 0, 1, b"half-written").expect("append");
        // Dropped without finish.
    }
    let names: Vec<_> =
        std::fs::read_dir(&dir).expect("ls").map(|e| e.expect("entry").file_name()).collect();
    assert_eq!(names, vec![std::ffi::OsString::from("replace.mtpool")]);
    assert_eq!(
        PoolReader::open(&path).expect("reopen v1").raw_segment(0).expect("raw").0,
        b"old-payload"
    );

    // Completed replace: new bytes at the path, old map still verifies.
    {
        let mut w = PoolWriter::replace(&path).expect("replace 2");
        w.append_raw(mobitrace_pool::kind::RAW, 0, 1, b"new-payload").expect("append");
        w.finish().expect("finish");
    }
    assert_eq!(
        PoolReader::open(&path).expect("open v2").raw_segment(0).expect("raw").0,
        b"new-payload"
    );
    assert_eq!(old.raw_segment(0).expect("old map after replace").0, b"old-payload");
    old.verify().expect("old map verifies after replace");
    drop(old);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads replacing one path at once both succeed, each through
/// its own temp file; the target is one of the two whole pools and no
/// temp file is left behind.
#[test]
fn concurrent_replaces_install_one_whole_pool() {
    let dir = scratch("concurrent");
    let path = dir.join("race.mtpool");
    let payloads: [&[u8]; 2] = [b"first-writer-payload", b"second-writer-payload"];
    for round in 0..8 {
        let both_open = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let writers: Vec<_> = payloads
                .iter()
                .map(|&payload| {
                    let (path, both_open) = (&path, &both_open);
                    scope.spawn(move || {
                        let mut w = PoolWriter::replace(path)?;
                        w.append_raw(mobitrace_pool::kind::RAW, 0, 1, payload)?;
                        // Both writers hold open temp files before either
                        // renames.
                        both_open.wait();
                        w.finish()
                    })
                })
                .collect();
            for h in writers {
                h.join().expect("writer thread").expect("concurrent replace");
            }
        });
        let r = PoolReader::open(&path).expect("open");
        r.verify().expect("whole pool");
        let got = r.raw_segment(0).expect("raw").0;
        assert!(payloads.contains(&got), "round {round}: unexpected payload {got:?}");
        let names: Vec<_> =
            std::fs::read_dir(&dir).expect("ls").map(|e| e.expect("entry").file_name()).collect();
        assert_eq!(names, vec![std::ffi::OsString::from("race.mtpool")], "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
