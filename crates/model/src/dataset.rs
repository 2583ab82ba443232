//! The cleaned dataset consumed by the analysis library.
//!
//! After ingest, dedup and cleaning, the collection pipeline produces a
//! [`Dataset`]: one row per device per 10-minute bin, stored as the
//! columns of a [`DatasetColumns`] ([`BinRecord`] is the same row as one
//! value, for fixtures and row-at-a-time references), with per-interface
//! *delta* volumes (reconstructed from cumulative counters),
//! the associated AP (interned through an AP table), a compact scan summary,
//! per-app-category volumes (Android), coarse geolocation, and per-device
//! metadata including the post-campaign survey response and — in simulated
//! campaigns — ground-truth labels that let us score the paper's
//! classification heuristics.

use crate::apps::AppCategory;
use crate::columns::{DatasetColumns, WifiTag};
use crate::ids::{Bssid, CellId, DeviceId, Essid};
use crate::net::{AssocInfo, Band, Channel, WifiState};
use crate::record::{Os, OsVersion};
use crate::time::{CivilDate, SimTime, Year, BINS_PER_DAY};
use crate::units::{ByteCount, Dbm};
use crate::ModelError;
use serde::{Deserialize, Serialize};

/// Cellular carrier (anonymised, as in the paper which never names the
/// three major Japanese providers in its per-carrier comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Carrier {
    /// Largest carrier.
    A,
    /// Second carrier.
    B,
    /// Third carrier.
    C,
}

impl Carrier {
    /// All carriers.
    pub const ALL: [Carrier; 3] = [Carrier::A, Carrier::B, Carrier::C];

    /// Stable index.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Occupation categories from the user survey (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Occupation {
    /// Government worker.
    Government,
    /// Office worker.
    OfficeWorker,
    /// Engineer.
    Engineer,
    /// Worker (other).
    WorkerOther,
    /// Professional.
    Professional,
    /// Self-owned business.
    SelfOwned,
    /// Part timer.
    PartTimer,
    /// Housewife.
    Housewife,
    /// Student.
    Student,
    /// Other.
    Other,
}

impl Occupation {
    /// All occupations in Table 2 order.
    pub const ALL: [Occupation; 10] = [
        Occupation::Government,
        Occupation::OfficeWorker,
        Occupation::Engineer,
        Occupation::WorkerOther,
        Occupation::Professional,
        Occupation::SelfOwned,
        Occupation::PartTimer,
        Occupation::Housewife,
        Occupation::Student,
        Occupation::Other,
    ];

    /// Row label as printed in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            Occupation::Government => "government worker",
            Occupation::OfficeWorker => "office worker",
            Occupation::Engineer => "engineer",
            Occupation::WorkerOther => "worker (other)",
            Occupation::Professional => "professional",
            Occupation::SelfOwned => "self-owned business",
            Occupation::PartTimer => "part timer",
            Occupation::Housewife => "housewife",
            Occupation::Student => "student",
            Occupation::Other => "other",
        }
    }

    /// Does this occupation commute to a workplace on weekdays?
    pub fn commutes(self) -> bool {
        !matches!(self, Occupation::Housewife | Occupation::Other)
    }
}

/// A reference into the dataset's AP table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ApRef(pub u32);

impl ApRef {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One entry of the dataset AP table: a unique (BSSID, ESSID) pair, which is
/// the paper's unit of AP identity (§3.4.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApEntry {
    /// AP radio MAC.
    pub bssid: Bssid,
    /// Network name.
    pub essid: Essid,
}

/// The WiFi association observed in one bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WifiAssoc {
    /// Which AP (interned).
    pub ap: ApRef,
    /// Band of the association.
    pub band: Band,
    /// Channel of the association.
    pub channel: Channel,
    /// Max RSSI observed in the bin.
    pub rssi: Dbm,
}

/// Compact WiFi interface state per bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WifiBinState {
    /// Interface explicitly off.
    Off,
    /// On but unassociated ("WiFi-available" user in that bin).
    OnUnassociated,
    /// Associated.
    Associated(WifiAssoc),
}

impl WifiBinState {
    /// The bin state of a raw WiFi state; an association is stored under
    /// the AP reference `ap` gives its (BSSID, ESSID) pair.
    pub fn of(wifi: &WifiState, ap: impl FnOnce(&AssocInfo) -> ApRef) -> WifiBinState {
        match wifi {
            WifiState::Off => WifiBinState::Off,
            WifiState::OnUnassociated => WifiBinState::OnUnassociated,
            WifiState::Associated(a) => WifiBinState::Associated(WifiAssoc {
                ap: ap(a),
                band: a.band,
                channel: a.channel,
                rssi: a.rssi,
            }),
        }
    }

    /// Association, if any.
    pub fn assoc(&self) -> Option<&WifiAssoc> {
        match self {
            WifiBinState::Associated(a) => Some(a),
            _ => None,
        }
    }

    /// Interface enabled?
    pub fn is_on(&self) -> bool {
        !matches!(self, WifiBinState::Off)
    }
}

/// Counts of APs seen in the scan list of one bin, split by band and by the
/// -70 dBm "strong" threshold. `*_public_*` count only public-ESSID APs
/// (used for the §3.5 availability analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScanSummary {
    /// All 2.4 GHz APs detected.
    pub n24_all: u16,
    /// 2.4 GHz APs with RSSI ≥ -70 dBm.
    pub n24_strong: u16,
    /// All 5 GHz APs detected.
    pub n5_all: u16,
    /// 5 GHz APs with RSSI ≥ -70 dBm.
    pub n5_strong: u16,
    /// Public-ESSID 2.4 GHz APs detected.
    pub n24_public_all: u16,
    /// Public-ESSID 2.4 GHz APs with RSSI ≥ -70 dBm.
    pub n24_public_strong: u16,
    /// Public-ESSID 5 GHz APs detected.
    pub n5_public_all: u16,
    /// Public-ESSID 5 GHz APs with RSSI ≥ -70 dBm.
    pub n5_public_strong: u16,
}

impl ScanSummary {
    /// Total APs detected on both bands.
    pub fn total(&self) -> u32 {
        u32::from(self.n24_all) + u32::from(self.n5_all)
    }
}

/// Per-app-category volume within one bin (Android only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppBin {
    /// Application category.
    pub category: AppCategory,
    /// Bytes received in the bin.
    pub rx_bytes: u64,
    /// Bytes transmitted in the bin.
    pub tx_bytes: u64,
}

/// One device × one 10-minute bin of the cleaned dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinRecord {
    /// Device.
    pub device: DeviceId,
    /// Bin start time.
    pub time: SimTime,
    /// 3G downlink bytes in the bin.
    pub rx_3g: u64,
    /// 3G uplink bytes in the bin.
    pub tx_3g: u64,
    /// LTE downlink bytes in the bin.
    pub rx_lte: u64,
    /// LTE uplink bytes in the bin.
    pub tx_lte: u64,
    /// WiFi downlink bytes in the bin.
    pub rx_wifi: u64,
    /// WiFi uplink bytes in the bin.
    pub tx_wifi: u64,
    /// WiFi interface state.
    pub wifi: WifiBinState,
    /// Scan summary (zeroed for iOS).
    pub scan: ScanSummary,
    /// Per-app volumes (empty for iOS).
    pub apps: Vec<AppBin>,
    /// Coarse geolocation.
    pub geo: CellId,
    /// OS version at sample time.
    pub os_version: OsVersion,
}

impl BinRecord {
    /// Total cellular downlink bytes in the bin.
    pub fn rx_cell(&self) -> u64 {
        self.rx_3g + self.rx_lte
    }

    /// Total cellular uplink bytes in the bin.
    pub fn tx_cell(&self) -> u64 {
        self.tx_3g + self.tx_lte
    }

    /// Total downlink bytes in the bin.
    pub fn rx_total(&self) -> u64 {
        self.rx_cell() + self.rx_wifi
    }

    /// Total uplink bytes in the bin.
    pub fn tx_total(&self) -> u64 {
        self.tx_cell() + self.tx_wifi
    }

    /// Downlink volume as [`ByteCount`].
    pub fn rx_total_bytes(&self) -> ByteCount {
        ByteCount::bytes(self.rx_total())
    }
}

/// Ground truth attached to simulated devices, used to *score* the paper's
/// inference heuristics (home/office AP classification) against known labels
/// — an evaluation the original authors could not perform.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GroundTruth {
    /// Radio MACs of the device's true home AP (one per band), if the
    /// household owns one.
    pub home_bssids: Vec<Bssid>,
    /// Radio MACs of the device's true office AP, if the workplace allows
    /// BYOD.
    pub office_bssids: Vec<Bssid>,
    /// Home 5 km cell.
    pub home_cell: CellId,
    /// Office 5 km cell (if the user commutes).
    pub office_cell: Option<CellId>,
}

impl GroundTruth {
    /// Does a BSSID belong to the user's true home AP?
    pub fn is_home_bssid(&self, b: Bssid) -> bool {
        self.home_bssids.contains(&b)
    }

    /// Does a BSSID belong to the user's true office AP?
    pub fn is_office_bssid(&self, b: Bssid) -> bool {
        self.office_bssids.contains(&b)
    }
}

/// Answer to a yes/no survey question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum YesNoNa {
    /// Yes.
    Yes,
    /// No.
    No,
    /// No answer.
    Na,
}

/// Locations asked about in the post-campaign survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SurveyLocation {
    /// At home.
    Home,
    /// At the office.
    Office,
    /// In public spaces.
    Public,
}

impl SurveyLocation {
    /// All locations in table order.
    pub const ALL: [SurveyLocation; 3] =
        [SurveyLocation::Home, SurveyLocation::Office, SurveyLocation::Public];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            SurveyLocation::Home => "home",
            SurveyLocation::Office => "office",
            SurveyLocation::Public => "public",
        }
    }
}

/// Reasons for WiFi unavailability offered in the survey (Table 9).
/// `SecurityIssue` and `LteEnough` were only offered from 2014.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SurveyReason {
    /// "There is no deployment of APs."
    NoAvailableAps,
    /// "Difficult to set up."
    DifficultSetup,
    /// "No configuration."
    NoConfiguration,
    /// "Battery drain."
    BatteryDrain,
    /// "Tried and failed."
    Failed,
    /// "Security concern." (2014+)
    SecurityIssue,
    /// "Communication speed in LTE is enough." (2014+)
    LteEnough,
    /// "Other."
    Other,
}

impl SurveyReason {
    /// All reasons in Table 9 row order.
    pub const ALL: [SurveyReason; 8] = [
        SurveyReason::NoAvailableAps,
        SurveyReason::DifficultSetup,
        SurveyReason::NoConfiguration,
        SurveyReason::BatteryDrain,
        SurveyReason::Failed,
        SurveyReason::SecurityIssue,
        SurveyReason::LteEnough,
        SurveyReason::Other,
    ];

    /// Row label as printed in Table 9.
    pub fn label(self) -> &'static str {
        match self {
            SurveyReason::NoAvailableAps => "No available APs",
            SurveyReason::DifficultSetup => "Difficult to set up",
            SurveyReason::NoConfiguration => "No configuration",
            SurveyReason::BatteryDrain => "Battery drain",
            SurveyReason::Failed => "Failed",
            SurveyReason::SecurityIssue => "Security issue",
            SurveyReason::LteEnough => "LTE is enough",
            SurveyReason::Other => "Other",
        }
    }
}

/// One user's post-campaign survey response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurveyResponse {
    /// Self-reported occupation.
    pub occupation: Occupation,
    /// "Did you connect to WiFi at «location»?" per location.
    pub connected: [YesNoNa; 3],
    /// "Why did you not connect at «location»?" — multiple answers allowed.
    pub reasons: [Vec<SurveyReason>; 3],
}

/// Per-device metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceInfo {
    /// Device id (index into `Dataset::devices`).
    pub device: DeviceId,
    /// OS.
    pub os: Os,
    /// Carrier.
    pub carrier: Carrier,
    /// Whether the device was recruited (vs organic app-store install).
    pub recruited: bool,
    /// Survey response, if the user answered.
    pub survey: Option<SurveyResponse>,
    /// Simulation ground truth (absent for real datasets).
    pub truth: Option<GroundTruth>,
}

/// Campaign-level metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignMeta {
    /// Which campaign.
    pub year: Year,
    /// First measurement day (midnight JST).
    pub start: CivilDate,
    /// Number of measured days.
    pub days: u32,
    /// Random seed the campaign was generated with (0 for real data).
    pub seed: u64,
}

impl CampaignMeta {
    /// Total number of bins in the campaign window.
    pub fn total_bins(&self) -> u32 {
        self.days * BINS_PER_DAY
    }

    /// Does `t` fall within the campaign window?
    pub fn contains(&self, t: SimTime) -> bool {
        t.day() < self.days
    }
}

/// A cleaned measurement dataset: the input to every analysis in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Campaign metadata.
    pub meta: CampaignMeta,
    /// Per-device metadata, indexed by `DeviceId`.
    pub devices: Vec<DeviceInfo>,
    /// AP table: unique (BSSID, ESSID) pairs referenced by bins.
    pub aps: Vec<ApEntry>,
    /// The bin table as columns, rows sorted by (device, time).
    pub bins: DatasetColumns,
}

impl Dataset {
    /// Look up an AP entry.
    pub fn ap(&self, r: ApRef) -> &ApEntry {
        &self.aps[r.index()]
    }

    /// Device metadata.
    pub fn device(&self, d: DeviceId) -> &DeviceInfo {
        &self.devices[d.index()]
    }

    /// Number of devices by OS.
    pub fn count_os(&self, os: Os) -> usize {
        self.devices.iter().filter(|d| d.os == os).count()
    }

    /// The row range of one device (relies on the (device, time) sort
    /// order).
    pub fn device_rows(&self, d: DeviceId) -> std::ops::Range<usize> {
        let device = &self.bins.device;
        device.partition_point(|&x| x < d)..device.partition_point(|&x| x <= d)
    }

    /// Validate sort order, reference integrity and time bounds.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (i, dev) in self.devices.iter().enumerate() {
            if dev.device.index() != i {
                return Err(ModelError::Inconsistent(format!(
                    "device table entry {i} has id {}",
                    dev.device
                )));
            }
        }
        let c = &self.bins;
        let n = c.len();
        if c.time.len() != n || c.wifi_tag.len() != n || c.assoc_ap.len() != n {
            return Err(ModelError::Inconsistent(format!("bin columns not all {n} rows long")));
        }
        let mut prev: Option<(DeviceId, SimTime)> = None;
        for (i, (&device, &time)) in c.device.iter().zip(&c.time).enumerate() {
            if device.index() >= self.devices.len() {
                return Err(ModelError::UnknownDevice(device));
            }
            if !self.meta.contains(time) {
                return Err(ModelError::Inconsistent(format!(
                    "bin at {time} outside {}-day window",
                    self.meta.days
                )));
            }
            if c.wifi_tag[i] == WifiTag::Associated && c.assoc_ap[i].index() >= self.aps.len() {
                return Err(ModelError::Inconsistent(format!(
                    "dangling ApRef {} at {time}",
                    c.assoc_ap[i].0
                )));
            }
            if prev.is_some_and(|(pd, pt)| device < pd || (device == pd && time <= pt)) {
                return Err(ModelError::OutOfOrder { device });
            }
            prev = Some((device, time));
        }
        Ok(())
    }

    /// Total downlink volume across all bins.
    pub fn total_rx(&self) -> ByteCount {
        ByteCount::bytes((0..self.bins.len()).map(|i| self.bins.rx_total(i)).sum())
    }

    /// Total uplink volume across all bins.
    pub fn total_tx(&self) -> ByteCount {
        ByteCount::bytes((0..self.bins.len()).map(|i| self.bins.tx_total(i)).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        tiny_with(|_| {})
    }

    /// The tiny dataset with its rows edited before they become columns.
    fn tiny_with(edit: impl FnOnce(&mut Vec<BinRecord>)) -> Dataset {
        let meta = CampaignMeta {
            year: Year::Y2015,
            start: Year::Y2015.campaign_start(),
            days: 2,
            seed: 1,
        };
        let devices = vec![
            DeviceInfo {
                device: DeviceId(0),
                os: Os::Android,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: None,
            },
            DeviceInfo {
                device: DeviceId(1),
                os: Os::Ios,
                carrier: Carrier::B,
                recruited: true,
                survey: None,
                truth: None,
            },
        ];
        let aps = vec![ApEntry { bssid: Bssid::from_u64(7), essid: Essid::new("home-ap") }];
        let mk = |dev: u32, minute: u32, wifi_rx: u64| BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_minutes(minute),
            rx_3g: 100,
            tx_3g: 10,
            rx_lte: 1000,
            tx_lte: 100,
            rx_wifi: wifi_rx,
            tx_wifi: wifi_rx / 5,
            wifi: WifiBinState::Associated(WifiAssoc {
                ap: ApRef(0),
                band: Band::Ghz24,
                channel: Channel(6),
                rssi: Dbm::new(-55),
            }),
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(8, 1),
        };
        let mut rows = vec![mk(0, 0, 5000), mk(0, 10, 2000), mk(1, 0, 1000)];
        edit(&mut rows);
        Dataset { meta, devices, aps, bins: DatasetColumns::build(&rows) }
    }

    #[test]
    fn validate_accepts_well_formed() {
        tiny_dataset().validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_order() {
        let ds = tiny_with(|b| b.swap(0, 1));
        assert!(matches!(ds.validate(), Err(ModelError::OutOfOrder { .. })));
    }

    #[test]
    fn validate_rejects_out_of_window() {
        let ds = tiny_with(|b| b[2].time = SimTime::from_day_minute(5, 0));
        assert!(ds.validate().is_err());
    }

    #[test]
    fn validate_rejects_dangling_ap() {
        let ds = tiny_with(|b| {
            if let WifiBinState::Associated(a) = &mut b[0].wifi {
                a.ap = ApRef(99);
            }
        });
        assert!(ds.validate().is_err());
    }

    #[test]
    fn validate_rejects_ragged_columns() {
        let mut ds = tiny_dataset();
        ds.bins.wifi_tag.pop();
        assert!(matches!(ds.validate(), Err(ModelError::Inconsistent(_))));
    }

    #[test]
    fn device_rows_selects_range() {
        let ds = tiny_dataset();
        assert_eq!(ds.device_rows(DeviceId(0)).len(), 2);
        assert_eq!(ds.device_rows(DeviceId(1)).len(), 1);
    }

    #[test]
    fn totals_sum_interfaces() {
        let ds = tiny_dataset();
        assert_eq!(ds.total_rx().as_bytes(), (100 + 1000) * 3 + 5000 + 2000 + 1000);
        let b = &ds.bins.to_bins()[0];
        assert_eq!(b.rx_cell(), 1100);
        assert_eq!(b.rx_total(), 6100);
    }

    #[test]
    fn count_os_splits() {
        let ds = tiny_dataset();
        assert_eq!(ds.count_os(Os::Android), 1);
        assert_eq!(ds.count_os(Os::Ios), 1);
    }

    #[test]
    fn occupation_labels_and_commuting() {
        assert_eq!(Occupation::ALL.len(), 10);
        assert!(Occupation::OfficeWorker.commutes());
        assert!(!Occupation::Housewife.commutes());
        assert_eq!(Occupation::SelfOwned.label(), "self-owned business");
    }
}
