//! Dataset ⇄ segment codec.
//!
//! A dataset's bins are its columns ([`DatasetColumns`]), so a dataset
//! stream is written straight from `ds.bins`, column by column, with no
//! transpose, and decoded straight back into `ds.bins`, with no row
//! rebuilt. Each column is stored in the
//! cheapest in-tree encoding its values allow — a campaign is mostly idle
//! 10-minute bins, so the columns are mostly zeros and small deltas:
//!
//! - **COUNTERS**: the six traffic columns as LEB128 varints (a zero
//!   counter is one byte).
//! - **ROWMETA**: `time` as per-device deltas (each device's first row
//!   absolute), `geo` x and y as zig-zag deltas from the previous row,
//!   and `os_version` as (run length, major, minor) runs.
//! - **WIFI**: one tag byte per row; the association columns only for the
//!   associated rows — AP and RSSI as zig-zag deltas from the previous
//!   associated row, band and channel as bytes. The filler values of the
//!   other rows are not stored.
//! - **SCAN**: the eight scan counts as zig-zag deltas from the previous
//!   row.
//! - **APPS**: a varint app count per row, then one category byte and
//!   varint rx/tx per app entry.
//! - **INDEX**: the persisted `DatasetIndex` columns, fixed-width `u32`.
//! - **APS** (BSSIDs + deduplicated ESSID dictionary) and the cold JSON
//!   **META** segment (campaign metadata + the survey-bearing device
//!   table) are small and irregular.
//!
//! The `device` column and the two selection vectors are not stored: the
//! decoder rebuilds them exactly from the index's per-device runs and the
//! WiFi tags. [`encode_dataset`] refuses parts that would not round-trip
//! (a device column that disagrees with the index, selection vectors that
//! disagree with the tags, non-filler association values on unassociated
//! rows), so decoding always hands back the columns that were written.
//!
//! Encoding is pure and per stream, so callers can encode streams on
//! separate threads and append the results in stream order
//! ([`PoolWriter::append_encoded`](crate::PoolWriter::append_encoded)); the file bytes do not depend on
//! which thread finished first. Decoding is one bounds-checked
//! [`Cursor`] sweep per column that re-checks every structural invariant
//! (tags in range, counts that close over their segment, varints within
//! their column's width, the index consistent with the rows) and finishes
//! with `Dataset::validate`, so a corrupt-but-checksummed (i.e.
//! miswritten) pool surfaces as [`PoolError::Corrupt`] or
//! [`PoolError::Truncated`], never a panic downstream.

use crate::err::PoolError;
use crate::format::{kind, pool_hash};
use crate::le::{unzigzag16, unzigzag32, zigzag16, zigzag32, Cursor, Enc};
use crate::reader::{PoolDataset, PoolReader};
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

/// One encoded segment, hashed and ready to append.
pub(crate) struct EncodedSeg {
    pub(crate) kind: u16,
    pub(crate) rows: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) hash: u64,
}

impl EncodedSeg {
    fn new(kind: u16, rows: u64, bytes: Vec<u8>) -> EncodedSeg {
        let hash = pool_hash(&bytes);
        EncodedSeg { kind, rows, bytes, hash }
    }
}

/// One dataset stream encoded into its segments (in append order), each
/// already hashed: what
/// [`PoolWriter::append_encoded`](crate::PoolWriter::append_encoded)
/// writes.
pub struct EncodedDataset {
    pub(crate) stream: u16,
    pub(crate) segs: Vec<EncodedSeg>,
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

/// Minutes in a campaign day (`SimTime::day` divides by this).
const MINUTES_PER_DAY: u32 = 24 * 60;

/// Association filler values of an unassociated row (what
/// `DatasetColumns` stores there; see its `assoc_*` docs).
const FILLER_AP: ApRef = ApRef(u32::MAX);
const FILLER_BAND: Band = Band::Ghz24;
const FILLER_CHANNEL: Channel = Channel(0);
const FILLER_RSSI: Dbm = Dbm::new(0);

/// Append `col` as zig-zag deltas from the previous value (the first
/// from 0), wrapping in 16 bits so every value round-trips.
fn put_delta16(e: &mut Enc, col: impl Iterator<Item = u16>) {
    let mut prev = 0u16;
    e.varints_iter(col.map(|v| {
        let d = zigzag16(v.wrapping_sub(prev) as i16);
        prev = v;
        u64::from(d)
    }));
}

/// Inverse of [`put_delta16`].
fn get_delta16(c: &mut Cursor<'_>, n: usize) -> Result<Vec<u16>, PoolError> {
    let mut out = Vec::with_capacity(n.min(c.remaining()));
    let mut prev = 0u16;
    c.varints_each(n, u64::from(u16::MAX), |d| {
        prev = prev.wrapping_add(unzigzag16(d as u16) as u16);
        out.push(prev);
    })?;
    Ok(out)
}

/// Check that the parts agree on every column the format does not store
/// (so decoding rebuilds exactly what was written).
fn check_derived_columns(
    ic: &IndexColumns,
    n_devices: usize,
    cols: &DatasetColumns,
) -> Result<(), PoolError> {
    let n = cols.len();
    if ic.device_start.len() != n_devices + 1
        || ic.device_start.first() != Some(&0)
        || ic.device_start.last().copied() != Some(n as u32)
    {
        return Err(corrupt(format!(
            "index covers {} devices / {:?} bins, columns have {n_devices} / {n}",
            ic.device_start.len().saturating_sub(1),
            ic.device_start.last()
        )));
    }
    for (d, w) in ic.device_start.windows(2).enumerate() {
        if cols.device[w[0] as usize..w[1] as usize].iter().any(|dev| dev.index() != d) {
            return Err(corrupt(format!("device column disagrees with index run of device {d}")));
        }
    }
    let (mut assoc, mut avail) = (cols.sel_associated.iter(), cols.sel_available.iter());
    for (i, tag) in cols.wifi_tag.iter().enumerate() {
        let sel = match tag {
            WifiTag::Associated => Some(&mut assoc),
            WifiTag::OnUnassociated => Some(&mut avail),
            WifiTag::Off => None,
        };
        if sel.is_some_and(|s| s.next() != Some(&(i as u32))) {
            return Err(corrupt(format!("selection vectors disagree with the tag of row {i}")));
        }
        if *tag != WifiTag::Associated
            && (cols.assoc_ap[i] != FILLER_AP
                || cols.assoc_band[i] != FILLER_BAND
                || cols.assoc_channel[i] != FILLER_CHANNEL
                || cols.assoc_rssi[i] != FILLER_RSSI)
        {
            return Err(corrupt(format!("unassociated row {i} carries association values")));
        }
    }
    if assoc.next().is_some() || avail.next().is_some() {
        return Err(corrupt("selection vectors name rows past their tags"));
    }
    Ok(())
}

/// Encode all segments of one dataset stream. Pure: touches no file, so
/// streams can be encoded concurrently and appended later with
/// [`PoolWriter::append_encoded`](crate::PoolWriter::append_encoded).
pub fn encode_dataset(
    stream: u16,
    ds: &Dataset,
    index: &DatasetIndex,
) -> Result<EncodedDataset, PoolError> {
    let cols = &ds.bins;
    let n = cols.len();
    if u32::try_from(n).is_err() {
        return Err(corrupt(format!("{n} rows overflow the u32 row numbering")));
    }
    let ic = index.to_columns();
    check_derived_columns(&ic, ds.devices.len(), cols)?;
    let nr = n as u64;
    let mut segs = Vec::with_capacity(8);

    // META: campaign metadata + device table, JSON (cold).
    let meta =
        serde_json::to_string(&MetaSeg { meta: ds.meta.clone(), devices: ds.devices.clone() })
            .map_err(|e| corrupt(format!("meta encode: {e}")))?;
    segs.push(EncodedSeg::new(kind::META, ds.devices.len() as u64, meta.into_bytes()));

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
        segs.push(EncodedSeg::new(kind::APS, ds.aps.len() as u64, e.into_bytes()));
    }

    // COUNTERS: the six traffic columns, LEB128.
    {
        let mut e = Enc::with_capacity(n * 12);
        for col in
            [&cols.rx_3g, &cols.tx_3g, &cols.rx_lte, &cols.tx_lte, &cols.rx_wifi, &cols.tx_wifi]
        {
            e.varints(col);
        }
        segs.push(EncodedSeg::new(kind::COUNTERS, nr, e.into_bytes()));
    }

    // ROWMETA: per-device delta time, delta geo, OS version runs.
    {
        let mut e = Enc::with_capacity(n * 4);
        let (mut prev, mut prev_dev) = (0u32, None);
        e.varints_iter(cols.time.iter().zip(&cols.device).map(|(t, &d)| {
            if prev_dev != Some(d) {
                (prev, prev_dev) = (0, Some(d));
            }
            let delta = t.minute.wrapping_sub(prev);
            prev = t.minute;
            u64::from(delta)
        }));
        put_delta16(&mut e, cols.geo.iter().map(|g| g.x as u16));
        put_delta16(&mut e, cols.geo.iter().map(|g| g.y as u16));
        let mut runs: Vec<(u64, OsVersion)> = Vec::new();
        for &v in &cols.os_version {
            match runs.last_mut() {
                Some((len, run)) if *run == v => *len += 1,
                _ => runs.push((1, v)),
            }
        }
        e.varint(runs.len() as u64);
        for (len, v) in runs {
            e.varint(len);
            e.u8(v.major);
            e.u8(v.minor);
        }
        segs.push(EncodedSeg::new(kind::ROWMETA, nr, e.into_bytes()));
    }

    // WIFI: tags, then the association columns of the associated rows.
    {
        let sel = &cols.sel_associated;
        let mut e = Enc::with_capacity(n + sel.len() * 5);
        for t in &cols.wifi_tag {
            e.u8(*t as u8);
        }
        let mut prev = 0u32;
        e.varints_iter(sel.iter().map(|&r| {
            let ap = cols.assoc_ap[r as usize].0;
            let d = zigzag32(ap.wrapping_sub(prev) as i32);
            prev = ap;
            u64::from(d)
        }));
        for &r in sel {
            e.u8(band_u8(cols.assoc_band[r as usize]));
        }
        for &r in sel {
            e.u8(cols.assoc_channel[r as usize].0);
        }
        put_delta16(&mut e, sel.iter().map(|&r| cols.assoc_rssi[r as usize].to_tenths() as u16));
        segs.push(EncodedSeg::new(kind::WIFI, nr, e.into_bytes()));
    }

    // SCAN: eight zig-zag delta columns.
    {
        let s = &cols.scan;
        let mut e = Enc::with_capacity(n * 8);
        for col in [
            &s.n24_all,
            &s.n24_strong,
            &s.n5_all,
            &s.n5_strong,
            &s.n24_public_all,
            &s.n24_public_strong,
            &s.n5_public_all,
            &s.n5_public_strong,
        ] {
            put_delta16(&mut e, col.iter().copied());
        }
        segs.push(EncodedSeg::new(kind::SCAN, nr, e.into_bytes()));
    }

    // APPS: a count per row, then (category, rx, tx) columns.
    {
        let m = cols.apps.len();
        let mut e = Enc::with_capacity(n + m * 6);
        e.varints_iter(cols.app_offsets.windows(2).map(|w| u64::from(w[1] - w[0])));
        for a in &cols.apps {
            e.u8(a.category.index() as u8);
        }
        e.varints_iter(cols.apps.iter().map(|a| a.rx_bytes));
        e.varints_iter(cols.apps.iter().map(|a| a.tx_bytes));
        segs.push(EncodedSeg::new(kind::APPS, nr, e.into_bytes()));
    }

    // INDEX: the persisted DatasetIndex columns.
    {
        let mut e =
            Enc::with_capacity(16 + (ic.device_start.len() * 2 + ic.span_day.len() * 3) * 4);
        e.u64(ic.device_start.len() as u64);
        e.u64(ic.span_day.len() as u64);
        e.u32s(&ic.device_start);
        e.u32s(&ic.day_offsets);
        e.u32s(&ic.span_day);
        e.u32s(&ic.span_start);
        e.u32s(&ic.span_end);
        segs.push(EncodedSeg::new(kind::INDEX, nr, e.into_bytes()));
    }

    Ok(EncodedDataset { stream, segs })
}

/// Decode the AP table segment.
fn decode_aps(bytes: &[u8]) -> Result<Vec<mobitrace_model::ApEntry>, PoolError> {
    let mut c = Cursor::new(bytes, "aps segment");
    let n_aps = c.len_u64()?;
    let n_names = c.len_u64()?;
    let name_bytes = c.len_u64()?;
    let raw = c.bytes(n_aps.checked_mul(8).ok_or_else(|| corrupt("ap count overflows"))?)?;
    let bssids: Vec<Bssid> =
        raw.chunks_exact(8).map(|b| Bssid(b[..6].try_into().expect("6 bytes"))).collect();
    let name_id = c.u32s(n_aps)?;
    let offsets =
        c.u32s(n_names.checked_add(1).ok_or_else(|| corrupt("essid count overflows"))?)?;
    let blob = c.bytes(name_bytes)?;
    c.finish()?;
    if offsets.first() != Some(&0) || offsets.last().copied().unwrap_or(1) as usize != name_bytes {
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
    Ok(aps)
}

/// Decode the INDEX segment and check it covers `n_devices` devices and
/// `n` rows starting at row 0.
fn decode_index(bytes: &[u8], n_devices: usize, n: usize) -> Result<DatasetIndex, PoolError> {
    let mut c = Cursor::new(bytes, "index segment");
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
    if ic.device_start.first() != Some(&0) {
        return Err(corrupt("index device runs do not start at row 0"));
    }
    let index = DatasetIndex::from_columns(ic).map_err(|e| corrupt(e.to_string()))?;
    if index.n_devices() != n_devices || index.n_bins() != n {
        return Err(corrupt(format!(
            "index covers {} devices / {} bins, dataset has {n_devices} / {n}",
            index.n_devices(),
            index.n_bins(),
        )));
    }
    Ok(index)
}

/// Decode one dataset stream back into its dataset (the decoded columns
/// are its bins) and index.
pub fn decode_dataset(r: &PoolReader, stream: u16) -> Result<PoolDataset, PoolError> {
    // Row count: every bin-column segment must agree.
    let mut rows: Option<u64> = None;
    for s in r.segments() {
        if s.stream == stream
            && matches!(
                s.kind,
                kind::COUNTERS | kind::ROWMETA | kind::WIFI | kind::SCAN | kind::APPS
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
    let n = rows.ok_or(PoolError::MissingSegment { kind: kind::COUNTERS, stream })?;
    let n = u32::try_from(n).map_err(|_| corrupt(format!("{n} rows overflow u32")))? as usize;

    let meta: MetaSeg = serde_json::from_slice(r.segment_bytes(kind::META, stream)?)
        .map_err(|e| corrupt(format!("meta decode: {e}")))?;
    let aps = decode_aps(r.segment_bytes(kind::APS, stream)?)?;
    let index = decode_index(r.segment_bytes(kind::INDEX, stream)?, meta.devices.len(), n)?;

    // COUNTERS. Six varints per row prove the row count before any
    // column is sized by it.
    let mut c = Cursor::new(r.segment_bytes(kind::COUNTERS, stream)?, "counters segment");
    let rx_3g = c.varints(n)?;
    let tx_3g = c.varints(n)?;
    let rx_lte = c.varints(n)?;
    let tx_lte = c.varints(n)?;
    let rx_wifi = c.varints(n)?;
    let tx_wifi = c.varints(n)?;
    c.finish()?;

    // The device column: the index's per-device runs.
    let mut device = Vec::with_capacity(n);
    for d in 0..meta.devices.len() {
        let id = DeviceId(d as u32);
        device.resize(index.device_range(id).end, id);
    }

    // ROWMETA. Time restarts at each device run, and every row must fall
    // on the day of the index span that holds it.
    let mut c = Cursor::new(r.segment_bytes(kind::ROWMETA, stream)?, "rowmeta segment");
    c.expect_varints(n)?;
    let mut time = Vec::with_capacity(n);
    for d in 0..meta.devices.len() {
        let mut prev = 0u32;
        for (day, span) in index.day_spans(DeviceId(d as u32)) {
            let mut on_day = true;
            c.varints_each(span.len(), u64::from(u32::MAX), |delta| {
                prev = prev.wrapping_add(delta as u32);
                on_day &= prev / MINUTES_PER_DAY == day;
                time.push(SimTime { minute: prev });
            })?;
            if !on_day {
                return Err(corrupt(format!("device {d}: a row lies outside its day-{day} span")));
            }
        }
    }
    let geo_x = get_delta16(&mut c, n)?;
    let geo_y = get_delta16(&mut c, n)?;
    let geo: Vec<CellId> =
        geo_x.iter().zip(&geo_y).map(|(&x, &y)| CellId { x: x as i16, y: y as i16 }).collect();
    let n_runs = c.varint_max(n as u64)? as usize;
    let mut os_version = Vec::with_capacity(n);
    for _ in 0..n_runs {
        let len = c.varint_max((n - os_version.len()) as u64)? as usize;
        let v = OsVersion { major: c.u8()?, minor: c.u8()? };
        os_version.resize(os_version.len() + len, v);
    }
    if os_version.len() != n {
        return Err(corrupt(format!("os version runs cover {} of {n} rows", os_version.len())));
    }
    c.finish()?;

    // WIFI. The selection vectors follow from the tags.
    let mut c = Cursor::new(r.segment_bytes(kind::WIFI, stream)?, "wifi segment");
    let tags = c.u8s(n)?;
    if let Some(i) = tags.iter().position(|&t| WifiTag::from_u8(t).is_none()) {
        return Err(corrupt(format!("row {i}: wifi tag {}", tags[i])));
    }
    let (mut sel_associated, mut sel_available) = (Vec::new(), Vec::new());
    for (i, &t) in tags.iter().enumerate() {
        if t == WifiTag::Associated as u8 {
            sel_associated.push(i as u32);
        } else if t == WifiTag::OnUnassociated as u8 {
            sel_available.push(i as u32);
        }
    }
    let wifi_tag: Vec<WifiTag> = tags
        .iter()
        .map(|&t| match t {
            0 => WifiTag::Off,
            1 => WifiTag::OnUnassociated,
            _ => WifiTag::Associated,
        })
        .collect();
    let m = sel_associated.len();
    let mut assoc_ap = vec![FILLER_AP; n];
    let mut assoc_band = vec![FILLER_BAND; n];
    let mut assoc_channel = vec![FILLER_CHANNEL; n];
    let mut assoc_rssi = vec![FILLER_RSSI; n];
    let (mut prev, mut k) = (0u32, 0usize);
    c.varints_each(m, u64::from(u32::MAX), |d| {
        prev = prev.wrapping_add(unzigzag32(d as u32) as u32);
        assoc_ap[sel_associated[k] as usize] = ApRef(prev);
        k += 1;
    })?;
    let bands = c.u8s(m)?;
    if let Some(&b) = bands.iter().find(|&&b| b > 1) {
        return Err(corrupt(format!("band discriminant {b}")));
    }
    for (&r, &b) in sel_associated.iter().zip(bands) {
        assoc_band[r as usize] = if b == 0 { Band::Ghz24 } else { Band::Ghz5 };
    }
    for (&r, &ch) in sel_associated.iter().zip(c.u8s(m)?) {
        assoc_channel[r as usize] = Channel(ch);
    }
    for (&r, rssi) in sel_associated.iter().zip(get_delta16(&mut c, m)?) {
        assoc_rssi[r as usize] = Dbm::from_tenths(rssi as i16);
    }
    c.finish()?;

    // SCAN.
    let mut c = Cursor::new(r.segment_bytes(kind::SCAN, stream)?, "scan segment");
    let scan = ScanColumns {
        n24_all: get_delta16(&mut c, n)?,
        n24_strong: get_delta16(&mut c, n)?,
        n5_all: get_delta16(&mut c, n)?,
        n5_strong: get_delta16(&mut c, n)?,
        n24_public_all: get_delta16(&mut c, n)?,
        n24_public_strong: get_delta16(&mut c, n)?,
        n5_public_all: get_delta16(&mut c, n)?,
        n5_public_strong: get_delta16(&mut c, n)?,
    };
    c.finish()?;

    // APPS. Each entry takes at least three bytes, which bounds the
    // total before it sizes the app table.
    let bytes = r.segment_bytes(kind::APPS, stream)?;
    let mut c = Cursor::new(bytes, "apps segment");
    let most = (bytes.len() as u64 / 3).min(u64::from(u32::MAX));
    let mut app_offsets = Vec::with_capacity(n.min(bytes.len()) + 1);
    app_offsets.push(0u32);
    let mut total = 0u64;
    c.varints_each(n, most, |k| {
        total = total.saturating_add(k);
        app_offsets.push(total as u32);
    })?;
    if total > most {
        return Err(corrupt("app counts exceed the apps segment"));
    }
    let m = total as usize;
    let mut apps = Vec::with_capacity(m);
    for (i, &raw) in c.u8s(m)?.iter().enumerate() {
        let category = AppCategory::from_index(raw as usize)
            .ok_or_else(|| corrupt(format!("app {i}: category {raw}")))?;
        apps.push(AppBin { category, rx_bytes: 0, tx_bytes: 0 });
    }
    let mut k = 0;
    c.varints_each(m, u64::MAX, |v| {
        apps[k].rx_bytes = v;
        k += 1;
    })?;
    let mut k = 0;
    c.varints_each(m, u64::MAX, |v| {
        apps[k].tx_bytes = v;
        k += 1;
    })?;
    c.finish()?;

    let bins = DatasetColumns {
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

    let ds = Dataset { meta: meta.meta, devices: meta.devices, aps, bins };
    ds.validate().map_err(|e| corrupt(format!("dataset invariants: {e}")))?;
    Ok(PoolDataset { ds, index })
}
