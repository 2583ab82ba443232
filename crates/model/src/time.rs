//! Simulation time.
//!
//! The measurement campaigns run on a 10-minute sampling grid in Japan
//! Standard Time (JST, UTC+9, no daylight saving). We represent time as
//! minutes since the campaign epoch ([`SimTime`]) and map it to civil dates
//! through [`CivilDate`] using the days-from-civil algorithm, so that the
//! analysis can reason about weekdays, commute hours and specific calendar
//! days (e.g. the iOS 8.2 release on 2015-03-10) without an external date
//! library.

use serde::{Deserialize, Serialize};

/// Length of one sampling bin in minutes (the agent samples every 10 min).
pub const BIN_MINUTES: u32 = 10;

/// Number of sampling bins in one day.
pub const BINS_PER_DAY: u32 = 24 * 60 / BIN_MINUTES;

/// Measurement campaign year. The paper ran three campaigns, each in
/// February/March of 2013, 2014 and 2015 (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Year {
    /// 07 Mar - 22 Mar 2013 campaign (1755 devices, 25% LTE).
    Y2013,
    /// 28 Feb - 22 Mar 2014 campaign (1676 devices, 70% LTE).
    Y2014,
    /// 25 Feb - 25 Mar 2015 campaign (1616 devices, 80% LTE).
    Y2015,
}

impl Year {
    /// All campaign years in chronological order.
    pub const ALL: [Year; 3] = [Year::Y2013, Year::Y2014, Year::Y2015];

    /// The calendar year as a number.
    pub fn as_u16(self) -> u16 {
        match self {
            Year::Y2013 => 2013,
            Year::Y2014 => 2014,
            Year::Y2015 => 2015,
        }
    }

    /// Campaign start date (first full measurement day).
    ///
    /// We align every campaign to start on a Saturday so the weekly figures
    /// (which the paper draws Saturday-to-Saturday) line up across years:
    /// 2013-03-09, 2014-03-01 and 2015-02-28 are all Saturdays within the
    /// paper's measurement windows.
    pub fn campaign_start(self) -> CivilDate {
        match self {
            Year::Y2013 => CivilDate::new(2013, 3, 9),
            Year::Y2014 => CivilDate::new(2014, 3, 1),
            Year::Y2015 => CivilDate::new(2015, 2, 28),
        }
    }

    /// Zero-based index of the campaign (2013 → 0).
    pub fn index(self) -> usize {
        match self {
            Year::Y2013 => 0,
            Year::Y2014 => 1,
            Year::Y2015 => 2,
        }
    }
}

impl std::fmt::Display for Year {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_u16())
    }
}

/// Day of week. `Monday == 0` through `Sunday == 6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    /// Construct from `0 == Monday` … `6 == Sunday`.
    pub fn from_index(i: u32) -> Weekday {
        match i % 7 {
            0 => Weekday::Mon,
            1 => Weekday::Tue,
            2 => Weekday::Wed,
            3 => Weekday::Thu,
            4 => Weekday::Fri,
            5 => Weekday::Sat,
            _ => Weekday::Sun,
        }
    }

    /// `0 == Monday` … `6 == Sunday`.
    pub fn index(self) -> u32 {
        self as u32
    }

    /// Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }

    /// Three-letter English abbreviation, as used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
            Weekday::Sun => "Sun",
        }
    }
}

/// A proleptic-Gregorian civil date (JST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CivilDate {
    /// Calendar year, e.g. 2015.
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
}

impl CivilDate {
    /// Construct a date. Panics on an obviously invalid month/day so that
    /// hard-coded campaign dates fail fast.
    pub fn new(year: i32, month: u8, day: u8) -> CivilDate {
        assert!((1..=12).contains(&month), "invalid month {month}");
        assert!((1..=31).contains(&day), "invalid day {day}");
        CivilDate { year, month, day }
    }

    /// Days since 1970-01-01 (may be negative), via the days-from-civil
    /// algorithm (Howard Hinnant, "chrono-compatible low-level date
    /// algorithms").
    pub fn days_from_epoch(self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as u64; // [0, 399]
        let m = i64::from(self.month);
        let d = u64::from(self.day);
        let doy = ((153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5) as u64 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe as i64 - 719468
    }

    /// Inverse of [`days_from_epoch`](Self::days_from_epoch).
    pub fn from_days_from_epoch(z: i64) -> CivilDate {
        let z = z + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = (z - era * 146097) as u64; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe as i64 + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        CivilDate::new(y as i32 + i64::from(m <= 2) as i32, m, d)
    }

    /// Weekday of this date (1970-01-01 was a Thursday).
    pub fn weekday(self) -> Weekday {
        let days = self.days_from_epoch();
        // 1970-01-01 = Thursday = index 3 (Mon=0).
        Weekday::from_index(((days % 7 + 7) % 7 + 3) as u32)
    }

    /// The date `n` days after this one.
    pub fn plus_days(self, n: i64) -> CivilDate {
        CivilDate::from_days_from_epoch(self.days_from_epoch() + n)
    }
}

impl std::fmt::Display for CivilDate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A point in campaign time: minutes since local midnight of the campaign
/// start date (JST). All agent samples are aligned to `BIN_MINUTES`
/// boundaries, but `SimTime` itself is minute-granular so transport delays
/// can be modelled.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime {
    /// Minutes since campaign epoch (midnight JST of day 0).
    pub minute: u32,
}

impl SimTime {
    /// Campaign epoch.
    pub const ZERO: SimTime = SimTime { minute: 0 };

    /// From raw minutes since epoch.
    pub fn from_minutes(minute: u32) -> SimTime {
        SimTime { minute }
    }

    /// From a day index and a minute-of-day.
    pub fn from_day_minute(day: u32, minute_of_day: u32) -> SimTime {
        SimTime { minute: day * 24 * 60 + minute_of_day }
    }

    /// From a day index and a bin index within the day.
    pub fn from_day_bin(day: u32, bin: u32) -> SimTime {
        SimTime::from_day_minute(day, bin * BIN_MINUTES)
    }

    /// Campaign day index (0-based).
    pub fn day(self) -> u32 {
        self.minute / (24 * 60)
    }

    /// Minute within the day, `0..1440`.
    pub fn minute_of_day(self) -> u32 {
        self.minute % (24 * 60)
    }

    /// Hour of day, `0..24`.
    pub fn hour(self) -> u32 {
        self.minute_of_day() / 60
    }

    /// Sampling-bin index within the day, `0..BINS_PER_DAY`.
    pub fn bin_of_day(self) -> u32 {
        self.minute_of_day() / BIN_MINUTES
    }

    /// Global sampling-bin index since the campaign epoch.
    pub fn global_bin(self) -> u32 {
        self.minute / BIN_MINUTES
    }

    /// Round down to the enclosing sampling bin.
    pub fn align_to_bin(self) -> SimTime {
        SimTime { minute: self.minute - self.minute % BIN_MINUTES }
    }

    /// The time `m` minutes later.
    pub fn plus_minutes(self, m: u32) -> SimTime {
        SimTime { minute: self.minute + m }
    }

    /// Civil date of this time given the campaign start date.
    pub fn date(self, campaign_start: CivilDate) -> CivilDate {
        campaign_start.plus_days(i64::from(self.day()))
    }

    /// Weekday of this time given the campaign start date: the start's
    /// weekday advanced by the campaign day, with no civil-date round trip
    /// per call.
    pub fn weekday(self, campaign_start: CivilDate) -> Weekday {
        Weekday::from_index(campaign_start.weekday().index() + self.day())
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}+{:02}:{:02}", self.day(), self.hour(), self.minute_of_day() % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(CivilDate::new(1970, 1, 1).weekday(), Weekday::Thu);
        assert_eq!(CivilDate::new(1970, 1, 1).days_from_epoch(), 0);
    }

    #[test]
    fn campaign_starts_are_saturdays() {
        for y in Year::ALL {
            assert_eq!(y.campaign_start().weekday(), Weekday::Sat, "{y}");
        }
    }

    #[test]
    fn known_dates_roundtrip() {
        let cases = [
            (CivilDate::new(2015, 3, 10), Weekday::Tue), // iOS 8.2 release
            (CivilDate::new(2013, 3, 9), Weekday::Sat),
            (CivilDate::new(2000, 2, 29), Weekday::Tue), // leap day
            (CivilDate::new(1999, 12, 31), Weekday::Fri),
            (CivilDate::new(2016, 2, 29), Weekday::Mon),
        ];
        for (d, wd) in cases {
            assert_eq!(d.weekday(), wd, "{d}");
            assert_eq!(CivilDate::from_days_from_epoch(d.days_from_epoch()), d);
        }
    }

    #[test]
    fn plus_days_crosses_month_boundary() {
        let d = CivilDate::new(2015, 2, 28).plus_days(1);
        assert_eq!(d, CivilDate::new(2015, 3, 1));
        let d = CivilDate::new(2012, 2, 28).plus_days(1);
        assert_eq!(d, CivilDate::new(2012, 2, 29));
    }

    #[test]
    fn simtime_decomposition() {
        let t = SimTime::from_day_minute(3, 605); // day 3, 10:05
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour(), 10);
        assert_eq!(t.minute_of_day(), 605);
        assert_eq!(t.bin_of_day(), 60);
        assert_eq!(t.align_to_bin().minute_of_day(), 600);
    }

    #[test]
    fn simtime_weekday_tracks_campaign_start() {
        let start = Year::Y2015.campaign_start();
        assert_eq!(SimTime::from_day_minute(0, 0).weekday(start), Weekday::Sat);
        assert_eq!(SimTime::from_day_minute(2, 0).weekday(start), Weekday::Mon);
        // 2015-03-10 is day 10 of the 2015 campaign.
        assert_eq!(SimTime::from_day_minute(10, 0).date(start), CivilDate::new(2015, 3, 10));
    }

    /// The day-offset weekday equals the civil date's own weekday across
    /// leap and non-leap Jan/Feb, a year boundary and every campaign.
    #[test]
    fn simtime_weekday_matches_civil_date() {
        let mut starts = vec![
            CivilDate::new(2012, 1, 15),
            CivilDate::new(2012, 2, 28),
            CivilDate::new(2013, 2, 1),
            CivilDate::new(2015, 12, 30),
            CivilDate::new(2016, 2, 29),
        ];
        starts.extend(Year::ALL.map(Year::campaign_start));
        for start in starts {
            for day in 0..1500 {
                let t = SimTime::from_day_minute(day, 0);
                assert_eq!(t.weekday(start), t.date(start).weekday(), "{start} + {day}");
            }
        }
    }

    #[test]
    fn bins_per_day_consistent() {
        assert_eq!(BINS_PER_DAY, 144);
        assert_eq!(SimTime::from_day_bin(1, 0).global_bin(), BINS_PER_DAY);
    }

    proptest! {
        #[test]
        fn civil_date_epoch_roundtrip(z in -1_000_000i64..1_000_000) {
            let d = CivilDate::from_days_from_epoch(z);
            prop_assert_eq!(d.days_from_epoch(), z);
            prop_assert!((1..=12).contains(&d.month));
            prop_assert!((1..=31).contains(&d.day));
        }

        #[test]
        fn plus_days_is_additive(z in -100_000i64..100_000, a in 0i64..1000, b in 0i64..1000) {
            let d = CivilDate::from_days_from_epoch(z);
            prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
        }

        #[test]
        fn consecutive_days_have_consecutive_weekdays(z in -100_000i64..100_000) {
            let d = CivilDate::from_days_from_epoch(z);
            let next = d.plus_days(1);
            prop_assert_eq!(
                (d.weekday().index() + 1) % 7,
                next.weekday().index()
            );
        }

        #[test]
        fn simtime_decomposition_consistent(minute in 0u32..10_000_000) {
            let t = SimTime::from_minutes(minute);
            prop_assert_eq!(
                SimTime::from_day_minute(t.day(), t.minute_of_day()),
                t
            );
            prop_assert_eq!(t.bin_of_day(), t.minute_of_day() / BIN_MINUTES);
            prop_assert!(t.hour() < 24);
            prop_assert_eq!(t.align_to_bin().minute % BIN_MINUTES, 0);
            prop_assert!(t.align_to_bin().minute <= t.minute);
            prop_assert!(t.minute - t.align_to_bin().minute < BIN_MINUTES);
        }
    }
}
