//! Survey tabulation (Tables 8–9).

use mobitrace_model::{Dataset, SurveyLocation, SurveyReason, YesNoNa};
use serde::{Deserialize, Serialize};

/// Table 8: per location, the percentage of yes / no / NA answers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ConnectedTable {
    /// Percentages indexed by `[location][answer]`; locations in `SurveyLocation::ALL`
    /// order, answers as (yes, no, na).
    pub pct: [[f64; 3]; 3],
}

/// Tabulate Table 8.
pub fn connected_table(ds: &Dataset) -> ConnectedTable {
    let mut counts = [[0usize; 3]; 3];
    let mut total = 0usize;
    for dev in &ds.devices {
        let Some(s) = &dev.survey else { continue };
        total += 1;
        for (loc, answer) in s.connected.iter().enumerate() {
            let a = match answer {
                YesNoNa::Yes => 0,
                YesNoNa::No => 1,
                YesNoNa::Na => 2,
            };
            counts[loc][a] += 1;
        }
    }
    let mut out = ConnectedTable::default();
    if total > 0 {
        for (loc, row) in counts.iter().enumerate() {
            for (a, &n) in row.iter().enumerate() {
                out.pct[loc][a] = n as f64 / total as f64 * 100.0;
            }
        }
    }
    out
}

/// Table 9: per location, percentage of non-connecting respondents who
/// ticked each reason (multiple answers allowed). `None` marks options not
/// offered that year (nobody could tick them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ReasonsTable {
    /// Percentages indexed by `[reason][location]`, reasons in `SurveyReason::ALL`
    /// order; `None` when the option never appears.
    pub pct: Vec<[Option<f64>; 3]>,
}

/// Tabulate Table 9.
pub fn reasons_table(ds: &Dataset) -> ReasonsTable {
    let mut counts = vec![[0usize; 3]; SurveyReason::ALL.len()];
    let mut responders = [0usize; 3];
    for dev in &ds.devices {
        let Some(s) = &dev.survey else { continue };
        for (loc, answer) in s.connected.iter().enumerate() {
            if *answer == YesNoNa::Yes {
                continue;
            }
            responders[loc] += 1;
            for reason in &s.reasons[loc] {
                let idx =
                    SurveyReason::ALL.iter().position(|r| r == reason).expect("reason in ALL");
                counts[idx][loc] += 1;
            }
        }
    }
    let mut pct = vec![[None; 3]; SurveyReason::ALL.len()];
    for (ri, row) in counts.iter().enumerate() {
        let ever = row.iter().any(|&c| c > 0);
        for loc in 0..3 {
            if responders[loc] > 0 && ever {
                pct[ri][loc] = Some(row[loc] as f64 / responders[loc] as f64 * 100.0);
            }
        }
    }
    ReasonsTable { pct }
}

/// Convenience: location label list matching the table columns.
pub fn location_labels() -> [&'static str; 3] {
    [SurveyLocation::Home.label(), SurveyLocation::Office.label(), SurveyLocation::Public.label()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn ds(surveys: Vec<Option<SurveyResponse>>) -> Dataset {
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2014,
                start: Year::Y2014.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: surveys
                .into_iter()
                .enumerate()
                .map(|(i, survey)| DeviceInfo {
                    device: DeviceId(i as u32),
                    os: Os::Android,
                    carrier: Carrier::A,
                    recruited: true,
                    survey,
                    truth: None,
                })
                .collect(),
            aps: vec![],
            bins: DatasetColumns::default(),
        }
    }

    fn resp(connected: [YesNoNa; 3], public_reasons: Vec<SurveyReason>) -> SurveyResponse {
        SurveyResponse {
            occupation: Occupation::Engineer,
            connected,
            reasons: [vec![], vec![], public_reasons],
        }
    }

    #[test]
    fn connected_percentages() {
        let d = ds(vec![
            Some(resp([YesNoNa::Yes, YesNoNa::No, YesNoNa::No], vec![])),
            Some(resp([YesNoNa::Yes, YesNoNa::No, YesNoNa::Yes], vec![])),
            Some(resp([YesNoNa::Na, YesNoNa::Yes, YesNoNa::No], vec![])),
            None,
        ]);
        let t = connected_table(&d);
        // Home: 2 yes, 0 no... wait: third answers Na.
        assert!((t.pct[0][0] - 66.67).abs() < 0.1);
        assert!((t.pct[0][2] - 33.33).abs() < 0.1);
        assert!((t.pct[1][0] - 33.33).abs() < 0.1);
        for loc in 0..3 {
            let sum: f64 = t.pct[loc].iter().sum();
            assert!((sum - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reasons_among_non_connecting() {
        let d = ds(vec![
            Some(resp(
                [YesNoNa::Yes, YesNoNa::Yes, YesNoNa::No],
                vec![SurveyReason::SecurityIssue, SurveyReason::LteEnough],
            )),
            Some(resp([YesNoNa::Yes, YesNoNa::Yes, YesNoNa::No], vec![SurveyReason::LteEnough])),
            // Public = Yes: excluded from the public denominator.
            Some(resp([YesNoNa::Yes, YesNoNa::Yes, YesNoNa::Yes], vec![])),
        ]);
        let t = reasons_table(&d);
        let lte_idx = SurveyReason::ALL.iter().position(|&r| r == SurveyReason::LteEnough).unwrap();
        let sec_idx =
            SurveyReason::ALL.iter().position(|&r| r == SurveyReason::SecurityIssue).unwrap();
        assert_eq!(t.pct[lte_idx][2], Some(100.0));
        assert_eq!(t.pct[sec_idx][2], Some(50.0));
        // Never-ticked options stay None (e.g. battery here).
        let bat_idx =
            SurveyReason::ALL.iter().position(|&r| r == SurveyReason::BatteryDrain).unwrap();
        assert_eq!(t.pct[bat_idx][2], None);
    }

    #[test]
    fn empty_survey_tables() {
        let d = ds(vec![None, None]);
        assert_eq!(connected_table(&d), ConnectedTable::default());
        let r = reasons_table(&d);
        assert!(r.pct.iter().all(|row| row.iter().all(|v| v.is_none())));
    }
}
