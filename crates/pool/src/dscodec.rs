//! Dataset ⇄ segment codec.
//!
//! A dataset stream is written in the exact `DatasetColumns` SoA shapes:
//! each segment concatenates fixed-width little-endian columns whose
//! lengths derive from the directory's row count, so decoding a column
//! is one bulk `from_le_bytes` sweep (a memcpy-class loop on LE
//! targets) into a single allocation — no serde, no per-record parse,
//! no transpose. The only JSON in the format is the cold [`kind::META`]
//! segment (campaign metadata + the survey-bearing device table), which
//! is small and structurally irregular.
//!
//! Decoding re-checks every structural invariant (tags in range, CSR
//! offsets monotone and closed, selection vectors strictly ascending,
//! index consistent with the row count) and finishes with the same
//! `Dataset::validate` the JSON load path runs, so a corrupt-but-
//! checksummed (i.e. miswritten) pool surfaces as
//! [`PoolError::Corrupt`], never a panic downstream.

use crate::err::PoolError;
use crate::format::kind;
use crate::le::{Cursor, Enc};
use crate::reader::{PoolDataset, PoolReader};
use crate::writer::PoolWriter;
use mobitrace_model::{
    ApRef, AppBin, AppCategory, Band, Bssid, CampaignMeta, CellId, Channel, Dataset,
    DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, IndexColumns, OsVersion,
    ScanColumns, SimTime, WifiTag,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The cold JSON segment: everything that is not a hot column.
#[derive(Serialize, Deserialize)]
struct MetaSeg {
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
}

fn corrupt(what: impl Into<String>) -> PoolError {
    PoolError::Corrupt { what: what.into() }
}

/// Encode `band` as its on-disk discriminant.
fn band_u8(b: Band) -> u8 {
    match b {
        Band::Ghz24 => 0,
        Band::Ghz5 => 1,
    }
}

fn band_from_u8(raw: u8) -> Result<Band, PoolError> {
    match raw {
        0 => Ok(Band::Ghz24),
        1 => Ok(Band::Ghz5),
        _ => Err(corrupt(format!("band discriminant {raw}"))),
    }
}

/// Write all segments of one dataset stream.
pub fn encode_dataset(
    w: &mut PoolWriter,
    stream: u16,
    ds: &Dataset,
    index: &DatasetIndex,
    cols: &DatasetColumns,
) -> Result<(), PoolError> {
    // The columns are the rows; a row table, when present, must agree.
    let n = cols.len();
    if !ds.bins.is_empty() && ds.bins.len() != n {
        return Err(corrupt(format!(
            "columns cover {n} rows but dataset has {} bins",
            ds.bins.len()
        )));
    }
    let nr = n as u64;

    // META: campaign metadata + device table, JSON (cold).
    let meta =
        serde_json::to_string(&MetaSeg { meta: ds.meta.clone(), devices: ds.devices.clone() })
            .map_err(|e| corrupt(format!("meta encode: {e}")))?;
    w.append_raw(kind::META, stream, ds.devices.len() as u64, meta.as_bytes())?;

    // APS: raw BSSIDs + deduplicated ESSID dictionary.
    {
        let mut names: Vec<&str> = Vec::new();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut name_id = Vec::with_capacity(ds.aps.len());
        for ap in &ds.aps {
            let id = *ids.entry(ap.essid.as_str()).or_insert_with(|| {
                names.push(ap.essid.as_str());
                (names.len() - 1) as u32
            });
            name_id.push(id);
        }
        let name_bytes: usize = names.iter().map(|s| s.len()).sum();
        let mut e = Enc::with_capacity(24 + ds.aps.len() * 12 + names.len() * 4 + name_bytes);
        e.u64(ds.aps.len() as u64);
        e.u64(names.len() as u64);
        e.u64(name_bytes as u64);
        for ap in &ds.aps {
            e.bytes(&ap.bssid.0);
            e.u16(0); // pad each BSSID to 8 bytes
        }
        e.u32s(&name_id);
        let mut off = 0u32;
        let mut offsets = Vec::with_capacity(names.len() + 1);
        offsets.push(0u32);
        for s in &names {
            off += s.len() as u32;
            offsets.push(off);
        }
        e.u32s(&offsets);
        for s in &names {
            e.bytes(s.as_bytes());
        }
        w.append_raw(kind::APS, stream, ds.aps.len() as u64, &e.into_bytes())?;
    }

    // COUNTERS: the six traffic columns.
    {
        let mut e = Enc::with_capacity(n * 48);
        e.u64s(&cols.rx_3g);
        e.u64s(&cols.tx_3g);
        e.u64s(&cols.rx_lte);
        e.u64s(&cols.tx_lte);
        e.u64s(&cols.rx_wifi);
        e.u64s(&cols.tx_wifi);
        w.append_raw(kind::COUNTERS, stream, nr, &e.into_bytes())?;
    }

    // ROWMETA: device, time, geo, OS version.
    {
        let mut e = Enc::with_capacity(n * 14);
        for d in &cols.device {
            e.u32(d.0);
        }
        for t in &cols.time {
            e.u32(t.minute);
        }
        for g in &cols.geo {
            e.u16(g.x as u16);
        }
        for g in &cols.geo {
            e.u16(g.y as u16);
        }
        for v in &cols.os_version {
            e.u8(v.major);
        }
        for v in &cols.os_version {
            e.u8(v.minor);
        }
        w.append_raw(kind::ROWMETA, stream, nr, &e.into_bytes())?;
    }

    // WIFI: state tag + association columns (fillers preserved verbatim).
    {
        let mut e = Enc::with_capacity(n * 9);
        for t in &cols.wifi_tag {
            e.u8(*t as u8);
        }
        for a in &cols.assoc_ap {
            e.u32(a.0);
        }
        for b in &cols.assoc_band {
            e.u8(band_u8(*b));
        }
        for c in &cols.assoc_channel {
            e.u8(c.0);
        }
        let rssi: Vec<i16> = cols.assoc_rssi.iter().map(|d| d.to_tenths()).collect();
        e.i16s(&rssi);
        w.append_raw(kind::WIFI, stream, nr, &e.into_bytes())?;
    }

    // SCAN: eight u16 columns.
    {
        let s = &cols.scan;
        let mut e = Enc::with_capacity(n * 16);
        e.u16s(&s.n24_all);
        e.u16s(&s.n24_strong);
        e.u16s(&s.n5_all);
        e.u16s(&s.n5_strong);
        e.u16s(&s.n24_public_all);
        e.u16s(&s.n24_public_strong);
        e.u16s(&s.n5_public_all);
        e.u16s(&s.n5_public_strong);
        w.append_raw(kind::SCAN, stream, nr, &e.into_bytes())?;
    }

    // APPS: CSR offsets + (category, rx, tx) columns.
    {
        let m = cols.apps.len();
        let mut e = Enc::with_capacity(8 + (n + 1) * 4 + m * 17);
        e.u64(m as u64);
        e.u32s(&cols.app_offsets);
        for a in &cols.apps {
            e.u8(a.category.index() as u8);
        }
        for a in &cols.apps {
            e.u64(a.rx_bytes);
        }
        for a in &cols.apps {
            e.u64(a.tx_bytes);
        }
        w.append_raw(kind::APPS, stream, nr, &e.into_bytes())?;
    }

    // SEL: the two selection vectors.
    {
        let mut e =
            Enc::with_capacity(16 + (cols.sel_associated.len() + cols.sel_available.len()) * 4);
        e.u64(cols.sel_associated.len() as u64);
        e.u64(cols.sel_available.len() as u64);
        e.u32s(&cols.sel_associated);
        e.u32s(&cols.sel_available);
        w.append_raw(kind::SEL, stream, nr, &e.into_bytes())?;
    }

    // INDEX: the persisted DatasetIndex columns.
    {
        let ic = index.to_columns();
        let mut e =
            Enc::with_capacity(16 + (ic.device_start.len() * 2 + ic.span_day.len() * 3) * 4);
        e.u64(ic.device_start.len() as u64);
        e.u64(ic.span_day.len() as u64);
        e.u32s(&ic.device_start);
        e.u32s(&ic.day_offsets);
        e.u32s(&ic.span_day);
        e.u32s(&ic.span_start);
        e.u32s(&ic.span_end);
        w.append_raw(kind::INDEX, stream, nr, &e.into_bytes())?;
    }

    Ok(())
}

/// Decode one dataset stream back into row table + index + columns.
pub fn decode_dataset(r: &PoolReader, stream: u16) -> Result<PoolDataset, PoolError> {
    // Row count: every bin-column segment must agree.
    let mut rows: Option<u64> = None;
    for s in r.segments() {
        if s.stream == stream
            && matches!(
                s.kind,
                kind::COUNTERS | kind::ROWMETA | kind::WIFI | kind::SCAN | kind::APPS | kind::SEL
            )
        {
            match rows {
                None => rows = Some(s.rows),
                Some(n) if n == s.rows => {}
                Some(n) => {
                    return Err(corrupt(format!(
                        "stream {stream}: segment kind {} claims {} rows, others {n}",
                        s.kind, s.rows
                    )))
                }
            }
        }
    }
    let n =
        usize::try_from(rows.ok_or(PoolError::MissingSegment { kind: kind::COUNTERS, stream })?)
            .map_err(|_| corrupt("row count overflows usize"))?;

    // META.
    let meta: MetaSeg = serde_json::from_slice(r.segment_bytes(kind::META, stream)?)
        .map_err(|e| corrupt(format!("meta decode: {e}")))?;

    // APS.
    let aps = {
        let mut c = Cursor::new(r.segment_bytes(kind::APS, stream)?, "aps segment");
        let n_aps = c.len_u64()?;
        let n_names = c.len_u64()?;
        let name_bytes = c.len_u64()?;
        let mut bssids = Vec::with_capacity(n_aps);
        for _ in 0..n_aps {
            let raw = c.bytes(8)?;
            bssids.push(Bssid(raw[..6].try_into().expect("6 bytes")));
        }
        let name_id = c.u32s(n_aps)?;
        let offsets = c.u32s(n_names + 1)?;
        let blob = c.bytes(name_bytes)?;
        c.finish()?;
        if offsets.first() != Some(&0)
            || offsets.last().copied().unwrap_or(1) as usize != name_bytes
        {
            return Err(corrupt("essid dictionary offsets do not close over the blob"));
        }
        let mut names = Vec::with_capacity(n_names);
        for w in offsets.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if a > b || b > blob.len() {
                return Err(corrupt("essid dictionary offsets not monotone"));
            }
            let s = std::str::from_utf8(&blob[a..b])
                .map_err(|_| corrupt("essid dictionary holds invalid utf-8"))?;
            names.push(Essid::new(s));
        }
        let mut aps = Vec::with_capacity(n_aps);
        for (i, id) in name_id.iter().enumerate() {
            let essid = names
                .get(*id as usize)
                .ok_or_else(|| corrupt(format!("ap {i} references essid {id} out of range")))?
                .clone();
            aps.push(mobitrace_model::ApEntry { bssid: bssids[i], essid });
        }
        aps
    };

    // COUNTERS.
    let mut c = Cursor::new(r.segment_bytes(kind::COUNTERS, stream)?, "counters segment");
    let rx_3g = c.u64s(n)?;
    let tx_3g = c.u64s(n)?;
    let rx_lte = c.u64s(n)?;
    let tx_lte = c.u64s(n)?;
    let rx_wifi = c.u64s(n)?;
    let tx_wifi = c.u64s(n)?;
    c.finish()?;

    // ROWMETA.
    let mut c = Cursor::new(r.segment_bytes(kind::ROWMETA, stream)?, "rowmeta segment");
    let device: Vec<DeviceId> = c.u32s(n)?.into_iter().map(DeviceId).collect();
    let time: Vec<SimTime> = c.u32s(n)?.into_iter().map(|m| SimTime { minute: m }).collect();
    let geo_x = c.u16s(n)?;
    let geo_y = c.u16s(n)?;
    let os_major = c.u8s(n)?.to_vec();
    let os_minor = c.u8s(n)?.to_vec();
    c.finish()?;
    let geo: Vec<CellId> =
        geo_x.iter().zip(&geo_y).map(|(&x, &y)| CellId { x: x as i16, y: y as i16 }).collect();
    let os_version: Vec<OsVersion> =
        os_major.iter().zip(&os_minor).map(|(&major, &minor)| OsVersion { major, minor }).collect();

    // WIFI.
    let mut c = Cursor::new(r.segment_bytes(kind::WIFI, stream)?, "wifi segment");
    let tag_raw = c.u8s(n)?.to_vec();
    let assoc_ap: Vec<ApRef> = c.u32s(n)?.into_iter().map(ApRef).collect();
    let band_raw = c.u8s(n)?.to_vec();
    let assoc_channel: Vec<Channel> = c.u8s(n)?.iter().copied().map(Channel).collect();
    let assoc_rssi: Vec<Dbm> = c.i16s(n)?.into_iter().map(Dbm::from_tenths).collect();
    c.finish()?;
    let mut wifi_tag = Vec::with_capacity(n);
    for (i, &t) in tag_raw.iter().enumerate() {
        wifi_tag
            .push(WifiTag::from_u8(t).ok_or_else(|| corrupt(format!("row {i}: wifi tag {t}")))?);
    }
    let mut assoc_band = Vec::with_capacity(n);
    for &b in &band_raw {
        assoc_band.push(band_from_u8(b)?);
    }

    // SCAN.
    let mut c = Cursor::new(r.segment_bytes(kind::SCAN, stream)?, "scan segment");
    let scan = ScanColumns {
        n24_all: c.u16s(n)?,
        n24_strong: c.u16s(n)?,
        n5_all: c.u16s(n)?,
        n5_strong: c.u16s(n)?,
        n24_public_all: c.u16s(n)?,
        n24_public_strong: c.u16s(n)?,
        n5_public_all: c.u16s(n)?,
        n5_public_strong: c.u16s(n)?,
    };
    c.finish()?;

    // APPS.
    let mut c = Cursor::new(r.segment_bytes(kind::APPS, stream)?, "apps segment");
    let m = c.len_u64()?;
    let app_offsets = c.u32s(n + 1)?;
    let cat_raw = c.u8s(m)?.to_vec();
    let app_rx = c.u64s(m)?;
    let app_tx = c.u64s(m)?;
    c.finish()?;
    if app_offsets.first() != Some(&0) || app_offsets.last().copied().unwrap_or(1) as usize != m {
        return Err(corrupt("app offsets do not close over the app table"));
    }
    if app_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("app offsets not monotone"));
    }
    let mut apps = Vec::with_capacity(m);
    for i in 0..m {
        let category = AppCategory::from_index(cat_raw[i] as usize)
            .ok_or_else(|| corrupt(format!("app {i}: category {}", cat_raw[i])))?;
        apps.push(AppBin { category, rx_bytes: app_rx[i], tx_bytes: app_tx[i] });
    }

    // SEL.
    let mut c = Cursor::new(r.segment_bytes(kind::SEL, stream)?, "sel segment");
    let n_assoc = c.len_u64()?;
    let n_avail = c.len_u64()?;
    let sel_associated = c.u32s(n_assoc)?;
    let sel_available = c.u32s(n_avail)?;
    c.finish()?;
    for sel in [&sel_associated, &sel_available] {
        if sel.windows(2).any(|w| w[0] >= w[1]) || sel.last().is_some_and(|&i| i as usize >= n) {
            return Err(corrupt("selection vector not strictly ascending within rows"));
        }
    }

    // INDEX.
    let mut c = Cursor::new(r.segment_bytes(kind::INDEX, stream)?, "index segment");
    let nd = c.len_u64()?;
    let ns = c.len_u64()?;
    let ic = IndexColumns {
        device_start: c.u32s(nd)?,
        day_offsets: c.u32s(nd)?,
        span_day: c.u32s(ns)?,
        span_start: c.u32s(ns)?,
        span_end: c.u32s(ns)?,
    };
    c.finish()?;
    let index = DatasetIndex::from_columns(ic).map_err(|e| corrupt(e.to_string()))?;
    if index.n_devices() != meta.devices.len() || index.n_bins() != n {
        return Err(corrupt(format!(
            "index covers {} devices / {} bins, dataset has {} / {n}",
            index.n_devices(),
            index.n_bins(),
            meta.devices.len()
        )));
    }

    let cols = DatasetColumns {
        device,
        time,
        rx_3g,
        tx_3g,
        rx_lte,
        tx_lte,
        rx_wifi,
        tx_wifi,
        wifi_tag,
        assoc_ap,
        assoc_band,
        assoc_channel,
        assoc_rssi,
        scan,
        app_offsets,
        apps,
        geo,
        os_version,
        sel_associated,
        sel_available,
    };

    // Materialize the row table (the retained row-scan reference passes
    // and the serde-equality tests still read `Dataset::bins`).
    let bins = cols.to_bins();
    let ds = Dataset { meta: meta.meta, devices: meta.devices, aps, bins };
    ds.validate().map_err(|e| corrupt(format!("dataset invariants: {e}")))?;
    Ok(PoolDataset { ds, index, cols })
}
