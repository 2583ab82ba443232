//! Table reproductions (Tables 1–9) plus the home-inference scoring bonus.

use super::{ExperimentReport, Metric, YEAR_LABELS};
use crate::data::CampaignSet;
use crate::render::Table;
use mobitrace_core::apclass::{aps_per_user_day, hpo_breakdown, score_home_inference};
use mobitrace_core::apps::{app_breakdown, AppBreakdown, TableContext};
use mobitrace_core::daily::TrafficClass;
use mobitrace_core::stats::annual_growth_rate;
use mobitrace_core::{overview, AnalysisContext};
use mobitrace_model::{AppCategory, Occupation, SurveyReason, Year};

pub(super) fn table1(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["year", "duration", "#And", "#iOS", "#total", "%LTE traffic"]);
    let mut metrics = Vec::new();
    let paper_totals = [1755.0, 1676.0, 1616.0];
    let paper_lte = [0.32, 0.70, 0.80];
    for (i, year) in Year::ALL.iter().enumerate() {
        let o = overview::overview(set.year(*year), &ctxs[i].cols);
        t.row(vec![
            o.year.to_string(),
            format!("{} - {}", o.window.0, o.window.1),
            o.n_android.to_string(),
            o.n_ios.to_string(),
            o.n_total.to_string(),
            format!("{:.0}%", o.lte_traffic_share * 100.0),
        ]);
        metrics.push(Metric::new(
            format!("{}: LTE share of cellular traffic", YEAR_LABELS[i]),
            paper_lte[i],
            o.lte_traffic_share,
        ));
        metrics.push(Metric::measured(
            format!("{}: devices (paper {} at full scale)", YEAR_LABELS[i], paper_totals[i]),
            o.n_total as f64,
        ));
    }
    ExperimentReport { id: "table1", title: "Overview of datasets", metrics, rendering: t.render() }
}

pub(super) fn table2(set: &CampaignSet) -> ExperimentReport {
    let mut t = Table::new(vec!["occupation", "2013", "2014", "2015"]);
    let tabs: Vec<[f64; 10]> = Year::ALL
        .iter()
        .map(|y| mobitrace_core::demographics::occupation_table(set.year(*y)))
        .collect();
    for (i, occ) in Occupation::ALL.iter().enumerate() {
        t.row(vec![
            occ.label().to_string(),
            format!("{:.1}", tabs[0][i]),
            format!("{:.1}", tabs[1][i]),
            format!("{:.1}", tabs[2][i]),
        ]);
    }
    // Spot-check the three most load-bearing rows against Table 2.
    let idx = |o: Occupation| Occupation::ALL.iter().position(|&x| x == o).unwrap();
    let metrics = vec![
        Metric::new("2013 office worker %", 20.0, tabs[0][idx(Occupation::OfficeWorker)]),
        Metric::new("2015 office worker %", 23.6, tabs[2][idx(Occupation::OfficeWorker)]),
        Metric::new("2013 student %", 9.6, tabs[0][idx(Occupation::Student)]),
        Metric::new("2015 student %", 2.7, tabs[2][idx(Occupation::Student)]),
        Metric::new("2015 housewife %", 13.3, tabs[2][idx(Occupation::Housewife)]),
    ];
    ExperimentReport {
        id: "table2",
        title: "User survey: user demographics",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn table3(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let tables: Vec<_> =
        ctxs.iter().map(|c| mobitrace_core::volume::volume_table(&c.days)).collect();
    let mut t = Table::new(vec!["stat", "2013", "2014", "2015", "AGR"]);
    #[allow(clippy::type_complexity)]
    let rows: [(&str, fn(&mobitrace_core::volume::VolumeTable) -> f64); 6] = [
        ("median All", |v| v.all.median_mb),
        ("median Cell", |v| v.cell.median_mb),
        ("median WiFi", |v| v.wifi.median_mb),
        ("mean All", |v| v.all.mean_mb),
        ("mean Cell", |v| v.cell.mean_mb),
        ("mean WiFi", |v| v.wifi.mean_mb),
    ];
    let mut metrics = Vec::new();
    let paper: [[f64; 3]; 6] = [
        [57.9, 90.3, 126.5],
        [19.5, 27.6, 35.6],
        [9.2, 24.3, 50.7],
        [102.9, 179.9, 239.5],
        [42.2, 58.5, 71.5],
        [60.7, 121.5, 168.1],
    ];
    for (r, (name, f)) in rows.iter().enumerate() {
        let series: Vec<f64> = tables.iter().map(f).collect();
        let agr = annual_growth_rate(&series);
        t.row(vec![
            name.to_string(),
            format!("{:.1}", series[0]),
            format!("{:.1}", series[1]),
            format!("{:.1}", series[2]),
            format!("{:.0}%", agr * 100.0),
        ]);
        for y in 0..3 {
            metrics.push(Metric::new(
                format!("{} {} (MB/day)", YEAR_LABELS[y], name),
                paper[r][y],
                series[y],
            ));
        }
    }
    ExperimentReport {
        id: "table3",
        title: "Daily download traffic volume per user and annual growth rate",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn table4(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["type", "2013", "2014", "2015"]);
    // The paper's absolute counts divided by its populations → per-user
    // reference values, which are scale-free.
    let paper_per_user = [
        ("home", [1139.0 / 1755.0, 1223.0 / 1676.0, 1289.0 / 1616.0]),
        ("public", [5041.0 / 1755.0, 9302.0 / 1676.0, 10481.0 / 1616.0]),
        ("other", [545.0 / 1755.0, 673.0 / 1676.0, 664.0 / 1616.0]),
        ("(office)", [166.0 / 1755.0, 168.0 / 1676.0, 166.0 / 1616.0]),
    ];
    let counts: Vec<_> = ctxs.iter().map(|c| c.aps.counts).collect();
    let users: Vec<f64> = Year::ALL.iter().map(|y| set.year(*y).devices.len() as f64).collect();
    let mut metrics = Vec::new();
    for (row, (name, paper)) in paper_per_user.iter().enumerate() {
        let got: Vec<f64> = counts
            .iter()
            .map(|c| match row {
                0 => c.home as f64,
                1 => c.public as f64,
                2 => c.other as f64,
                _ => c.office as f64,
            })
            .collect();
        t.row(vec![
            name.to_string(),
            format!("{:.0}", got[0]),
            format!("{:.0}", got[1]),
            format!("{:.0}", got[2]),
        ]);
        for y in 0..3 {
            metrics.push(Metric::new(
                format!("{} {} APs per user", YEAR_LABELS[y], name),
                paper[y],
                got[y] / users[y],
            ));
        }
    }
    let totals: Vec<String> = counts.iter().map(|c| c.total().to_string()).collect();
    t.row(vec!["total".to_string(), totals[0].clone(), totals[1].clone(), totals[2].clone()]);
    ExperimentReport {
        id: "table4",
        title: "Number of estimated APs (per-user comparison vs paper)",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn table5(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["HPO", "2013 %", "2014 %", "2015 %"]);
    let breakdowns: Vec<_> = ctxs.iter().map(hpo_breakdown).collect();
    let totals: Vec<f64> = breakdowns.iter().map(|b| b.values().sum::<u64>() as f64).collect();
    let pct = |b: &std::collections::HashMap<(u8, u8, u8), u64>, total: f64, key: (u8, u8, u8)| {
        b.get(&key).copied().unwrap_or(0) as f64 / total * 100.0
    };
    // The paper's Table 5 rows.
    let rows: [((u8, u8, u8), [f64; 3]); 6] = [
        ((1, 0, 0), [54.7, 52.6, 46.4]),
        ((0, 1, 0), [3.0, 2.4, 2.4]),
        ((0, 0, 1), [10.5, 9.4, 9.2]),
        ((1, 1, 0), [8.2, 10.0, 9.0]),
        ((1, 0, 1), [10.7, 12.9, 16.5]),
        ((1, 1, 1), [2.2, 2.3, 3.4]),
    ];
    let mut metrics = Vec::new();
    for ((h, p, o), paper) in rows {
        let got: Vec<f64> =
            breakdowns.iter().zip(&totals).map(|(b, &tot)| pct(b, tot, (h, p, o))).collect();
        t.row(vec![
            format!("{h}{p}{o}"),
            format!("{:.1}", got[0]),
            format!("{:.1}", got[1]),
            format!("{:.1}", got[2]),
        ]);
        for y in 0..3 {
            metrics.push(Metric::new(
                format!("{} pattern H{h}P{p}O{o} %", YEAR_LABELS[y]),
                paper[y],
                got[y],
            ));
        }
    }
    ExperimentReport {
        id: "table5",
        title: "Breakdown of number of associated ESSIDs per user-day (home/public/other)",
        metrics,
        rendering: t.render(),
    }
}

fn app_table(
    breakdowns: &[AppBreakdown; 3],
    tx: bool,
    id: &'static str,
    title: &'static str,
    spot_checks: Vec<Metric>,
) -> ExperimentReport {
    let mut rendering = String::new();
    for (y, b) in breakdowns.iter().enumerate() {
        let mut t = Table::new(vec!["rank", "Cell home", "Cell other", "WiFi home", "WiFi public"]);
        let tops: Vec<Vec<(mobitrace_model::AppCategory, f64)>> = TableContext::ALL
            .iter()
            .map(|&c| if tx { b.top_tx(c, 5) } else { b.top_rx(c, 5) })
            .collect();
        for rank in 0..5 {
            let cell = |ctx_i: usize| {
                tops[ctx_i]
                    .get(rank)
                    .map(|(cat, pct)| format!("{} {:.1}", cat.short_label(), pct))
                    .unwrap_or_default()
            };
            t.row(vec![(rank + 1).to_string(), cell(0), cell(1), cell(2), cell(3)]);
        }
        rendering.push_str(&format!("{}:\n{}\n", YEAR_LABELS[y], t.render()));
    }
    ExperimentReport { id, title, metrics: spot_checks, rendering }
}

/// Share (percent) of one category in a context's ranked volumes.
fn category_share(ranked: Vec<(mobitrace_model::AppCategory, f64)>, cat: AppCategory) -> f64 {
    ranked.into_iter().find(|(c, _)| *c == cat).map(|(_, p)| p).unwrap_or(0.0)
}

pub(super) fn table6(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    use mobitrace_model::AppCategory::*;
    let b = ctxs.each_ref().map(|ctx| app_breakdown(ctx, None));
    // Spot-check the paper's most diagnostic RX shares.
    let share = |y: usize, table_ctx: TableContext, cat: AppCategory| {
        category_share(b[y].top_rx(table_ctx, 26), cat)
    };
    let metrics = vec![
        Metric::new(
            "2013 WiFi-public browser RX %",
            44.1,
            share(0, TableContext::WifiPublic, Browser),
        ),
        Metric::new("2015 WiFi-home video RX %", 25.4, share(2, TableContext::WifiHome, Video)),
        Metric::new(
            "2015 WiFi-home dload RX %",
            11.1,
            share(2, TableContext::WifiHome, Downloading),
        ),
        Metric::new("2015 Cell-home browser RX %", 28.3, share(2, TableContext::CellHome, Browser)),
        Metric::new("2015 WiFi-public video RX %", 19.6, share(2, TableContext::WifiPublic, Video)),
    ];
    app_table(&b, false, "table6", "Top application categories by RX volume", metrics)
}

pub(super) fn table7(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    use mobitrace_model::AppCategory::*;
    let b = ctxs.each_ref().map(|ctx| app_breakdown(ctx, None));
    let share = |y: usize, table_ctx: TableContext, cat: AppCategory| {
        category_share(b[y].top_tx(table_ctx, 26), cat)
    };
    let metrics = vec![
        Metric::new(
            "2014 WiFi-home prod TX %",
            39.5,
            share(1, TableContext::WifiHome, Productivity),
        ),
        Metric::new("2015 Cell-home browser TX %", 33.7, share(2, TableContext::CellHome, Browser)),
        Metric::new("2013 WiFi-home social TX %", 24.8, share(0, TableContext::WifiHome, Social)),
    ];
    app_table(&b, true, "table7", "Top application categories by TX volume", metrics)
}

pub(super) fn table8(set: &CampaignSet) -> ExperimentReport {
    let mut t = Table::new(vec!["AP", "13", "14", "15"]);
    let tabs: Vec<_> =
        Year::ALL.iter().map(|y| mobitrace_core::survey::connected_table(set.year(*y))).collect();
    let paper_yes = [[70.4, 72.9, 78.2], [31.6, 25.6, 28.0], [44.9, 47.9, 53.6]];
    let mut metrics = Vec::new();
    for (loc, label) in ["home yes", "office yes", "public yes"].iter().enumerate() {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", tabs[0].pct[loc][0]),
            format!("{:.1}", tabs[1].pct[loc][0]),
            format!("{:.1}", tabs[2].pct[loc][0]),
        ]);
        for y in 0..3 {
            metrics.push(Metric::new(
                format!("{} {}", YEAR_LABELS[y], label),
                paper_yes[loc][y],
                tabs[y].pct[loc][0],
            ));
        }
    }
    ExperimentReport {
        id: "table8",
        title: "User survey: associated WiFi APs during the measurements (% yes)",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn table9(set: &CampaignSet) -> ExperimentReport {
    let tabs: Vec<_> =
        Year::ALL.iter().map(|y| mobitrace_core::survey::reasons_table(set.year(*y))).collect();
    let mut t = Table::new(vec!["reason", "home 13/14/15", "office 13/14/15", "public 13/14/15"]);
    for (ri, reason) in SurveyReason::ALL.iter().enumerate() {
        let cell = |loc: usize| {
            (0..3)
                .map(|y| {
                    tabs[y].pct[ri][loc].map(|v| format!("{v:.0}")).unwrap_or_else(|| "NA".into())
                })
                .collect::<Vec<_>>()
                .join("/")
        };
        t.row(vec![reason.label().to_string(), cell(0), cell(1), cell(2)]);
    }
    let ri = |r: SurveyReason| SurveyReason::ALL.iter().position(|&x| x == r).unwrap();
    let metrics = vec![
        Metric::new(
            "2015 public security-issue %",
            35.0,
            tabs[2].pct[ri(SurveyReason::SecurityIssue)][2].unwrap_or(0.0),
        ),
        Metric::new(
            "2013 home no-configuration %",
            48.0,
            tabs[0].pct[ri(SurveyReason::NoConfiguration)][0].unwrap_or(0.0),
        ),
        Metric::new(
            "2015 office no-available-APs %",
            52.0,
            tabs[2].pct[ri(SurveyReason::NoAvailableAps)][1].unwrap_or(0.0),
        ),
    ];
    ExperimentReport {
        id: "table9",
        title: "User survey: reasons for unavailability of WiFi APs (%)",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn home_inference(
    set: &CampaignSet,
    ctxs: &[AnalysisContext<'_>; 3],
) -> ExperimentReport {
    let mut t = Table::new(vec!["year", "precision", "recall", "inferred share", "paper share"]);
    let paper_share = [0.66, 0.73, 0.79];
    let mut metrics = Vec::new();
    for (y, (year, ctx)) in Year::ALL.iter().zip(ctxs).enumerate() {
        let ds = set.year(*year);
        let score = score_home_inference(ds, &ctx.aps);
        let inferred = ctx.aps.home_of.len() as f64 / ds.devices.len() as f64;
        t.row(vec![
            YEAR_LABELS[y].to_string(),
            format!("{:.3}", score.precision()),
            format!("{:.3}", score.recall()),
            format!("{:.3}", inferred),
            format!("{:.2}", paper_share[y]),
        ]);
        metrics.push(Metric::new(
            format!("{} inferred-home-AP share", YEAR_LABELS[y]),
            paper_share[y],
            inferred,
        ));
        metrics.push(Metric::measured(
            format!("{} home-inference precision", YEAR_LABELS[y]),
            score.precision(),
        ));
    }
    // Bonus context: Fig. 12-adjacent multi-AP shares.
    let mut extra = String::new();
    for (y, ctx) in ctxs.iter().enumerate() {
        let hist = aps_per_user_day(ctx, None);
        let total: u64 = hist.iter().sum();
        if total > 0 {
            extra.push_str(&format!(
                "{}: user-days with 1/2/3/4+ APs: {:.0}%/{:.0}%/{:.0}%/{:.0}%\n",
                YEAR_LABELS[y],
                hist[0] as f64 / total as f64 * 100.0,
                hist[1] as f64 / total as f64 * 100.0,
                hist[2] as f64 / total as f64 * 100.0,
                hist[3] as f64 / total as f64 * 100.0,
            ));
        }
    }
    let _ = TrafficClass::Light; // silence unused import lint paths on some cfgs
    ExperimentReport {
        id: "home_inference",
        title: "Scoring the paper's home-AP heuristic against ground truth (simulation-only)",
        metrics,
        rendering: format!("{}\n{}", t.render(), extra),
    }
}

pub(super) fn light_apps(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    // §3.6: for light users, video drops out of the top categories.
    let b_all = app_breakdown(&ctxs[2], None);
    let b_light = app_breakdown(&ctxs[2], Some(TrafficClass::Light));
    let mut t = Table::new(vec!["rank", "all: WiFi home", "light: WiFi home"]);
    let all_top = b_all.top_rx(TableContext::WifiHome, 5);
    let light_top = b_light.top_rx(TableContext::WifiHome, 5);
    for rank in 0..5 {
        let cell = |v: &Vec<(mobitrace_model::AppCategory, f64)>| {
            v.get(rank).map(|(c, p)| format!("{} {:.1}", c.short_label(), p)).unwrap_or_default()
        };
        t.row(vec![(rank + 1).to_string(), cell(&all_top), cell(&light_top)]);
    }
    let video_share = |tops: &Vec<(mobitrace_model::AppCategory, f64)>| {
        tops.iter()
            .find(|(c, _)| *c == mobitrace_model::AppCategory::Video)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    };
    let all26 = b_all.top_rx(TableContext::WifiHome, 26);
    let light26 = b_light.top_rx(TableContext::WifiHome, 26);
    let metrics = vec![
        Metric::measured("video RX share, all users (WiFi home, 2015)", video_share(&all26)),
        Metric::measured("video RX share, light users", video_share(&light26)),
    ];
    ExperimentReport {
        id: "light_apps",
        title: "§3.6: light users' application mix (video contribution shrinks)",
        metrics,
        rendering: t.render(),
    }
}
