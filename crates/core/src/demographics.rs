//! User demographics tabulation (Table 2) from survey responses.

use mobitrace_model::{Dataset, Occupation};

/// Occupation shares (percent of survey respondents), in
/// `Occupation::ALL` order.
pub fn occupation_table(ds: &Dataset) -> [f64; 10] {
    let mut counts = [0usize; 10];
    let mut total = 0usize;
    for dev in &ds.devices {
        if let Some(survey) = &dev.survey {
            let idx = Occupation::ALL
                .iter()
                .position(|&o| o == survey.occupation)
                .expect("occupation is in ALL");
            counts[idx] += 1;
            total += 1;
        }
    }
    let mut out = [0.0; 10];
    if total > 0 {
        for i in 0..10 {
            out[i] = counts[i] as f64 / total as f64 * 100.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    #[test]
    fn tabulates_respondents_only() {
        let survey = |occ| SurveyResponse {
            occupation: occ,
            connected: [YesNoNa::Na; 3],
            reasons: [vec![], vec![], vec![]],
        };
        let dev = |i, s| DeviceInfo {
            device: DeviceId(i),
            os: Os::Android,
            carrier: Carrier::A,
            recruited: true,
            survey: s,
            truth: None,
        };
        let ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: vec![
                dev(0, Some(survey(Occupation::Engineer))),
                dev(1, Some(survey(Occupation::Engineer))),
                dev(2, Some(survey(Occupation::Housewife))),
                dev(3, None), // non-respondent excluded
            ],
            aps: vec![],
            bins: DatasetColumns::default(),
        };
        let t = occupation_table(&ds);
        let eng = Occupation::ALL.iter().position(|&o| o == Occupation::Engineer).unwrap();
        let hw = Occupation::ALL.iter().position(|&o| o == Occupation::Housewife).unwrap();
        assert!((t[eng] - 66.666).abs() < 0.1);
        assert!((t[hw] - 33.333).abs() < 0.1);
        assert!((t.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_is_all_zero() {
        let ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: vec![],
            aps: vec![],
            bins: DatasetColumns::default(),
        };
        assert_eq!(occupation_table(&ds), [0.0; 10]);
    }
}
