//! Figure reproductions (Figs. 1–19) and in-text estimates.

use super::{ExperimentReport, Metric, YEAR_LABELS};
use crate::data::CampaignSet;
use crate::render::{ascii_chart, downsample, sparkline, Table};
use mobitrace_core::apclass::ApClass;
use mobitrace_core::daily::TrafficClass;
use mobitrace_core::ratios::{wifi_traffic_ratio, wifi_user_ratio, ClassFilter};
use mobitrace_core::volume::{daily_volume_cdf, zero_share, VolumeKind};
use mobitrace_core::AnalysisContext;
use mobitrace_model::{Os, Year};

pub(super) fn fig1() -> ExperimentReport {
    let pts = mobitrace_core::context::national_series();
    let rbb: Vec<(f64, f64)> = pts.iter().map(|p| (p.year, p.rbb_gbps)).collect();
    let share_2014 =
        mobitrace_core::context::cellular_gbps(2014.9) / mobitrace_core::context::rbb_gbps(2014.9);
    let mut rendering = String::from("RBB user download (Gbps):\n");
    rendering.push_str(&ascii_chart(&rbb, 50, 10));
    rendering.push_str("\nCellular (3G+LTE) user download (Gbps):\n");
    let cell: Vec<(f64, f64)> = pts.iter().map(|p| (p.year, p.cellular_gbps)).collect();
    rendering.push_str(&ascii_chart(&cell, 50, 10));
    ExperimentReport {
        id: "fig1",
        title: "Growth in residential broadband and cellular traffic in Japan",
        metrics: vec![Metric::new("cellular share of RBB, end 2014", 0.20, share_2014)],
        rendering,
    }
}

pub(super) fn fig2(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let agg = mobitrace_core::timeseries::aggregate_series(set.year(Year::Y2015), &ctxs[2].cols);
    let agg13 = mobitrace_core::timeseries::aggregate_series(set.year(Year::Y2013), &ctxs[0].cols);
    let mut rendering = String::from("2015 weekly aggregated volume (hourly, Sat→Fri):\n");
    for (name, s) in [
        ("Cellular RX", &agg.cell_rx),
        ("Cellular TX", &agg.cell_tx),
        ("WiFi RX    ", &agg.wifi_rx),
        ("WiFi TX    ", &agg.wifi_tx),
    ] {
        rendering.push_str(&format!("{name} peak {:6.2} Mbps  {}\n", s.peak(), sparkline(&s.mbps)));
    }
    let wifi_peak_hour = agg.wifi_rx.peak_slot() % 24;
    let cell_peak_hour = agg.cell_rx.peak_slot() % 24;
    rendering.push_str(&format!(
        "\nWiFi RX peak at {wifi_peak_hour}:00, cellular RX peak at {cell_peak_hour}:00\n"
    ));
    ExperimentReport {
        id: "fig2",
        title: "Aggregated traffic volume (weekly)",
        metrics: vec![
            Metric::new("2015 WiFi share of total volume", 0.67, agg.wifi_share()),
            Metric::new("2013 WiFi share of total volume", 0.59, agg13.wifi_share()),
            Metric::measured("2015 WiFi RX peak hour", f64::from(wifi_peak_hour as u32)),
        ],
        rendering,
    }
}

pub(super) fn fig3(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut rendering = String::new();
    let mut metrics = Vec::new();
    let paper_rx_median = [57.9, 90.3, 126.5];
    for (y, ctx) in ctxs.iter().enumerate() {
        let rx = daily_volume_cdf(&ctx.days, VolumeKind::AllRx, 0.1);
        let tx = daily_volume_cdf(&ctx.days, VolumeKind::AllTx, 0.1);
        let med = mobitrace_core::stats::median(&rx.iter().map(|(v, _)| *v).collect::<Vec<_>>());
        metrics.push(Metric::new(
            format!("{} median daily RX (MB, >0.1MB days)", YEAR_LABELS[y]),
            paper_rx_median[y],
            med,
        ));
        rendering.push_str(&format!(
            "{}: RX CDF {}  TX CDF {}\n",
            YEAR_LABELS[y],
            sparkline(&downsample(&rx.iter().map(|(_, c)| *c).collect::<Vec<_>>(), 40)),
            sparkline(&downsample(&tx.iter().map(|(_, c)| *c).collect::<Vec<_>>(), 40)),
        ));
    }
    // RX ≈ 5 × TX.
    let rx_sum: u64 = ctxs[2].days.iter().map(|d| d.rx_total()).sum();
    let tx_sum: u64 = ctxs[2].days.iter().map(|d| d.tx_total()).sum();
    metrics.push(Metric::new("2015 RX/TX ratio", 5.0, rx_sum as f64 / tx_sum as f64));
    ExperimentReport {
        id: "fig3",
        title: "CDFs of daily total traffic volume per user",
        metrics,
        rendering,
    }
}

pub(super) fn fig4(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let ctx = &ctxs[2];
    let mut rendering = String::from("2015 daily volume CDFs by interface (0.1–1000+ MB):\n");
    for (name, kind) in [
        ("WiFi RX", VolumeKind::WifiRx),
        ("WiFi TX", VolumeKind::WifiTx),
        ("Cell RX", VolumeKind::CellRx),
        ("Cell TX", VolumeKind::CellTx),
    ] {
        let cdf = daily_volume_cdf(&ctx.days, kind, 0.1);
        rendering.push_str(&format!(
            "{name}: {}\n",
            sparkline(&downsample(&cdf.iter().map(|(_, c)| *c).collect::<Vec<_>>(), 40))
        ));
    }
    let max_day_gb = ctx.days.iter().map(|d| d.rx_total()).max().unwrap_or(0) as f64 / 1e9;
    ExperimentReport {
        id: "fig4",
        title: "CDFs of daily traffic volume per type (2015)",
        metrics: vec![
            Metric::new(
                "cellular zero-days share",
                0.08,
                zero_share(&ctx.days, VolumeKind::CellRx),
            ),
            Metric::new("WiFi zero-days share", 0.20, zero_share(&ctx.days, VolumeKind::WifiRx)),
            Metric::new("top heavy hitter (GB/day)", 11.0, max_day_gb),
        ],
        rendering,
    }
}

pub(super) fn fig5(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut rendering = String::new();
    let mut metrics = Vec::new();
    let paper_cell_int = [0.35, f64::NAN, 0.22];
    for (y, ctx) in ctxs.iter().enumerate() {
        let s = mobitrace_core::usertype::user_type_shares(&ctx.days);
        rendering.push_str(&format!(
            "{}: cellular-intensive {:.0}%, wifi-intensive {:.0}%, mixed {:.0}% (above diagonal {:.0}%)\n",
            YEAR_LABELS[y],
            s.cellular_intensive * 100.0,
            s.wifi_intensive * 100.0,
            s.mixed * 100.0,
            s.mixed_above_diagonal * 100.0
        ));
        if !paper_cell_int[y].is_nan() {
            metrics.push(Metric::new(
                format!("{} cellular-intensive share", YEAR_LABELS[y]),
                paper_cell_int[y],
                s.cellular_intensive,
            ));
        }
        if y == 2 {
            metrics.push(Metric::new("2015 WiFi-intensive share", 0.08, s.wifi_intensive));
            metrics.push(Metric::new("2015 mixed above diagonal", 0.55, s.mixed_above_diagonal));
        }
    }
    // Render a coarse heat map for 2015.
    let m = mobitrace_core::usertype::heatmap(&ctxs[2].days);
    rendering.push_str("\n2015 heat map (x=cellular, y=WiFi, log 0.01..1000 MB):\n");
    let shades = [' ', '.', ':', '+', '#', '@'];
    for by in (0..m.n).step_by(4).rev() {
        let mut line = String::new();
        for bx in (0..m.n).step_by(2) {
            let mut c = 0u64;
            for dy in 0..4 {
                for dx in 0..2 {
                    if by + dy < m.n && bx + dx < m.n {
                        c += m.at(bx + dx, by + dy);
                    }
                }
            }
            let idx = match c {
                0 => 0,
                1..=2 => 1,
                3..=8 => 2,
                9..=25 => 3,
                26..=80 => 4,
                _ => 5,
            };
            line.push(shades[idx]);
        }
        rendering.push_str(&line);
        rendering.push('\n');
    }
    ExperimentReport {
        id: "fig5",
        title: "Daily traffic volume per user: cellular vs WiFi heat map",
        metrics,
        rendering,
    }
}

pub(super) fn fig6(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let t13 = wifi_traffic_ratio(&ctxs[0], ClassFilter::All);
    let t15 = wifi_traffic_ratio(&ctxs[2], ClassFilter::All);
    let u13 = wifi_user_ratio(&ctxs[0], ClassFilter::All);
    let u15 = wifi_user_ratio(&ctxs[2], ClassFilter::All);
    let rendering = format!
        ("WiFi-traffic ratio (Sat→Fri, hourly)\n 2013 {}\n 2015 {}\nWiFi-user ratio\n 2013 {}\n 2015 {}\n",
        sparkline(&t13.ratio), sparkline(&t15.ratio), sparkline(&u13.ratio), sparkline(&u15.ratio));
    ExperimentReport {
        id: "fig6",
        title: "WiFi-traffic ratio and WiFi-user ratio",
        metrics: vec![
            Metric::new("2013 mean WiFi-traffic ratio", 0.58, t13.mean),
            Metric::new("2015 mean WiFi-traffic ratio", 0.71, t15.mean),
            Metric::new("2013 mean WiFi-user ratio", 0.32, u13.mean),
            Metric::new("2015 mean WiFi-user ratio", 0.48, u15.mean),
        ],
        rendering,
    }
}

pub(super) fn fig7(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let h13 = wifi_traffic_ratio(&ctxs[0], ClassFilter::Only(TrafficClass::Heavy));
    let l13 = wifi_traffic_ratio(&ctxs[0], ClassFilter::Only(TrafficClass::Light));
    let h15 = wifi_traffic_ratio(&ctxs[2], ClassFilter::Only(TrafficClass::Heavy));
    let l15 = wifi_traffic_ratio(&ctxs[2], ClassFilter::Only(TrafficClass::Light));
    let rendering = format!(
        "2013 heavy {}\n2013 light {}\n2015 heavy {}\n2015 light {}\n",
        sparkline(&h13.ratio),
        sparkline(&l13.ratio),
        sparkline(&h15.ratio),
        sparkline(&l15.ratio)
    );
    ExperimentReport {
        id: "fig7",
        title: "WiFi-traffic ratio: heavy hitters vs light users",
        metrics: vec![
            Metric::new("2013 heavy mean", 0.73, h13.mean),
            Metric::new("2013 light mean", 0.42, l13.mean),
            Metric::new("2015 heavy mean", 0.89, h15.mean),
            Metric::new("2015 light mean", 0.52, l15.mean),
        ],
        rendering,
    }
}

pub(super) fn fig8(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let h13 = wifi_user_ratio(&ctxs[0], ClassFilter::Only(TrafficClass::Heavy));
    let l13 = wifi_user_ratio(&ctxs[0], ClassFilter::Only(TrafficClass::Light));
    let h15 = wifi_user_ratio(&ctxs[2], ClassFilter::Only(TrafficClass::Heavy));
    let l15 = wifi_user_ratio(&ctxs[2], ClassFilter::Only(TrafficClass::Light));
    let rendering = format!(
        "2013 heavy {}\n2013 light {}\n2015 heavy {}\n2015 light {}\n",
        sparkline(&h13.ratio),
        sparkline(&l13.ratio),
        sparkline(&h15.ratio),
        sparkline(&l15.ratio)
    );
    ExperimentReport {
        id: "fig8",
        title: "WiFi-user ratio: heavy hitters vs light users",
        metrics: vec![
            Metric::new("2013 heavy mean", 0.51, h13.mean),
            Metric::new("2015 heavy mean", 0.68, h15.mean),
        ],
        rendering,
    }
}

pub(super) fn fig9(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let a13 = mobitrace_core::wifistate::wifi_state_series(&ctxs[0], Os::Android);
    let a15 = mobitrace_core::wifistate::wifi_state_series(&ctxs[2], Os::Android);
    let i13 = mobitrace_core::wifistate::wifi_state_series(&ctxs[0], Os::Ios);
    let i15 = mobitrace_core::wifistate::wifi_state_series(&ctxs[2], Os::Ios);
    let bh = mobitrace_core::wifistate::business_hours_mean;
    let rendering = format!(
        "Android 2013: user {} off {} avail {}\nAndroid 2015: user {} off {} avail {}\niOS WiFi-user 2013 {} / 2015 {}\n",
        sparkline(&a13.user),
        sparkline(&a13.off),
        sparkline(&a13.available),
        sparkline(&a15.user),
        sparkline(&a15.off),
        sparkline(&a15.available),
        sparkline(&i13.user),
        sparkline(&i15.user),
    );
    ExperimentReport {
        id: "fig9",
        title: "Ratio of WiFi-user / WiFi-off / WiFi-available users by OS",
        metrics: vec![
            Metric::new("2013 Android WiFi-off (business hours)", 0.50, bh(&a13.off)),
            Metric::new("2015 Android WiFi-off (business hours)", 0.40, bh(&a15.off)),
            Metric::new("2013 Android WiFi-available mean", 0.25, a13.means.2),
            Metric::new(
                "iOS/Android WiFi-user ratio (2015)",
                1.3,
                if a15.means.0 > 0.0 { i15.means.0 / a15.means.0 } else { 0.0 },
            ),
            Metric::measured("2013 iOS WiFi-user mean", i13.means.0),
        ],
        rendering,
    }
}

pub(super) fn fig10(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut rendering = String::new();
    let mut metrics = Vec::new();
    for (label, ctx) in [("2013", &ctxs[0]), ("2015", &ctxs[2])] {
        // Paper cell counts are at full population; compare per-user-scaled.
        let users = ctx.ds.devices.len() as f64;
        let (home, public) = mobitrace_core::apmap::density_maps(ctx);
        rendering.push_str(&format!(
            "{label}: home map: {} cells (max {} APs); public map: {} cells (max {} APs)\n",
            home.cells.len(),
            home.max_cell(),
            public.cells.len(),
            public.max_cell()
        ));
        // ASCII public-AP density map.
        let grid = mobitrace_geo::Grid::greater_tokyo();
        rendering.push_str(&format!("{label} public-AP density ('.'<3 ':'<10 '+'<30 '#'≥30):\n"));
        for y in (0..grid.height).rev().step_by(2) {
            let mut line = String::new();
            for x in 0..grid.width {
                let c = public.cells.get(&mobitrace_model::CellId::new(x, y)).copied().unwrap_or(0);
                line.push(match c {
                    0 => ' ',
                    1..=2 => '.',
                    3..=9 => ':',
                    10..=29 => '+',
                    _ => '#',
                });
            }
            rendering.push_str(line.trim_end());
            rendering.push('\n');
        }
        if label == "2013" {
            metrics.push(Metric::new(
                "2013 cells with ≥1 public AP (paper 229, per-user scaled)",
                229.0 / 1755.0,
                public.cells_with_at_least(1) as f64 / users,
            ));
        } else {
            metrics.push(Metric::new(
                "2015 cells with ≥1 public AP (paper 265, per-user scaled)",
                265.0 / 1616.0,
                public.cells_with_at_least(1) as f64 / users,
            ));
        }
    }
    ExperimentReport {
        id: "fig10",
        title: "Number of associated unique APs per 5 km cell",
        metrics,
        rendering,
    }
}

pub(super) fn fig11(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut rendering = String::new();
    let mut metrics = Vec::new();
    for (y, year) in [(0usize, Year::Y2013), (2, Year::Y2015)] {
        let v =
            mobitrace_core::timeseries::venue_series(set.year(year), &ctxs[y].cols, &ctxs[y].aps);
        rendering.push_str(&format!(
            "{}: home RX {}\n      public RX {}\n      office RX {}\n",
            YEAR_LABELS[y],
            sparkline(&v.home.0.mbps),
            sparkline(&v.public.0.mbps),
            sparkline(&v.office.0.mbps)
        ));
        metrics.push(Metric::new(
            format!("{} home share of WiFi volume", YEAR_LABELS[y]),
            0.95,
            v.shares.0,
        ));
        metrics.push(Metric::new(
            format!("{} public+office share of WiFi volume", YEAR_LABELS[y]),
            0.04,
            v.shares.1 + v.shares.2,
        ));
    }
    ExperimentReport {
        id: "fig11",
        title: "WiFi traffic volume by venue (home / public / office)",
        metrics,
        rendering,
    }
}

pub(super) fn fig12(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["year", "class", "1 AP %", "2 APs %", "3 APs %", "4+ APs %"]);
    let mut metrics = Vec::new();
    let paper_one_ap = [70.0, 65.0, 60.0];
    for (y, ctx) in ctxs.iter().enumerate() {
        for (label, filter) in [
            ("all", None),
            ("heavy", Some(TrafficClass::Heavy)),
            ("light", Some(TrafficClass::Light)),
        ] {
            let hist = mobitrace_core::apclass::aps_per_user_day(ctx, filter);
            let total: u64 = hist.iter().sum();
            if total == 0 {
                continue;
            }
            let pct = |i: usize| hist[i] as f64 / total as f64 * 100.0;
            t.row(vec![
                YEAR_LABELS[y].to_string(),
                label.to_string(),
                format!("{:.0}", pct(0)),
                format!("{:.0}", pct(1)),
                format!("{:.0}", pct(2)),
                format!("{:.0}", pct(3)),
            ]);
            if label == "all" {
                metrics.push(Metric::new(
                    format!("{} share of 1-AP user-days (%)", YEAR_LABELS[y]),
                    paper_one_ap[y],
                    pct(0),
                ));
            }
        }
    }
    metrics.push(Metric::new(
        "2015 WiFi user-days with ≥2 APs",
        0.40,
        1.0 - metrics
            .iter()
            .find(|m| m.name.starts_with("2015"))
            .map(|m| m.measured / 100.0)
            .unwrap_or(0.0),
    ));
    ExperimentReport {
        id: "fig12",
        title: "Number of associated APs per user-day (all / heavy / light)",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn fig13(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut rendering = String::new();
    let mut metrics = Vec::new();
    for (y, ctx) in ctxs.iter().enumerate() {
        let d = mobitrace_core::assoc::association_durations(ctx);
        rendering.push_str(&format!(
            "{}: spells home {} public {} office {}\n",
            YEAR_LABELS[y],
            d.home.len(),
            d.public.len(),
            d.office.len()
        ));
        if y == 2 {
            metrics.push(Metric::new(
                "2015 home p90 duration (h)",
                12.0,
                d.percentile(ApClass::Home, 90.0),
            ));
            metrics.push(Metric::new(
                "2015 office p90 duration (h)",
                8.0,
                d.percentile(ApClass::Office, 90.0),
            ));
            metrics.push(Metric::new(
                "2015 public p90 duration (h)",
                1.0,
                d.percentile(ApClass::Public, 90.0),
            ));
            let ccdf = d.ccdf(ApClass::Home);
            rendering.push_str("2015 home-spell CCDF (hours, log tail):\n");
            rendering.push_str(&ascii_chart(
                &ccdf.iter().map(|&(v, c)| (v, c.log10())).collect::<Vec<_>>(),
                50,
                10,
            ));
        }
    }
    ExperimentReport {
        id: "fig13",
        title: "CCDFs of WiFi connection duration by venue",
        metrics,
        rendering,
    }
}

pub(super) fn fig14(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["year", "home", "office", "public"]);
    let mut metrics = Vec::new();
    let paper_public = [0.18, 0.38, 0.55];
    for (y, ctx) in ctxs.iter().enumerate() {
        let s = mobitrace_core::bands::five_ghz_shares(ctx);
        t.row(vec![
            YEAR_LABELS[y].to_string(),
            format!("{:.2}", s.home),
            format!("{:.2}", s.office),
            format!("{:.2}", s.public),
        ]);
        metrics.push(Metric::new(
            format!("{} public 5GHz fraction", YEAR_LABELS[y]),
            paper_public[y],
            s.public,
        ));
        if y == 2 {
            metrics.push(Metric::new("2015 home 5GHz fraction (<0.2)", 0.17, s.home));
        }
    }
    ExperimentReport {
        id: "fig14",
        title: "Fractions of associated unique 5 GHz APs",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn fig15(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let r = mobitrace_core::quality::rssi_analysis(&ctxs[2].cols, &ctxs[2].aps);
    let mut rendering = String::from("2015 max-RSSI PDFs (2.4 GHz):\n");
    let pdf_line = |h: &mobitrace_core::stats::Histogram| {
        sparkline(&downsample(&h.pdf().iter().map(|(_, d)| *d).collect::<Vec<_>>(), 50))
    };
    rendering.push_str(&format!("home   {}\n", pdf_line(&r.home)));
    rendering.push_str(&format!("public {}\n", pdf_line(&r.public)));
    ExperimentReport {
        id: "fig15",
        title: "PDFs of WiFi RSSI for associated APs (2015)",
        metrics: vec![
            Metric::new("home mean max-RSSI (dBm)", -54.0, r.means.0),
            Metric::new("public mean max-RSSI (dBm)", -60.0, r.means.1),
            Metric::new("home share < -70 dBm", 0.03, r.weak_shares.0),
            Metric::new("public share < -70 dBm", 0.12, r.weak_shares.1),
        ],
        rendering,
    }
}

pub(super) fn fig16(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let c13 = mobitrace_core::quality::channel_analysis(&ctxs[0].cols, &ctxs[0].aps);
    let c15 = mobitrace_core::quality::channel_analysis(&ctxs[2].cols, &ctxs[2].aps);
    let mut rendering = String::from("2.4 GHz channel distribution (ch1..ch13):\n");
    rendering.push_str(&format!("2013 home   {}\n", sparkline(&c13.home)));
    rendering.push_str(&format!("2013 public {}\n", sparkline(&c13.public)));
    rendering.push_str(&format!("2015 home   {}\n", sparkline(&c15.home)));
    rendering.push_str(&format!("2015 public {}\n", sparkline(&c15.public)));
    ExperimentReport {
        id: "fig16",
        title: "Associated 2.4 GHz channels (2013 vs 2015)",
        metrics: vec![
            Metric::new("2013 home share on ch1", 0.33, c13.home_default_share()),
            Metric::new("2015 home share on ch1 (dispersing)", 0.22, c15.home_default_share()),
            Metric::new("2013 public share on {1,6,11}", 0.90, c13.public_orthogonal_share()),
            Metric::new("2015 public share on {1,6,11}", 0.90, c15.public_orthogonal_share()),
        ],
        rendering,
    }
}

pub(super) fn fig17(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let d = mobitrace_core::availability::detected_public_aps(set.year(Year::Y2015), &ctxs[2].cols);
    let d13 =
        mobitrace_core::availability::detected_public_aps(set.year(Year::Y2013), &ctxs[0].cols);
    let below10 = if d.g24_all.is_empty() {
        0.0
    } else {
        d.g24_all.iter().filter(|&&v| v < 10.0).count() as f64 / d.g24_all.len() as f64
    };
    let ccdf_probs = |xs: &[f64]| -> Vec<f64> {
        mobitrace_core::availability::DetectedPublicAps::ccdf(xs).iter().map(|(_, c)| *c).collect()
    };
    let rendering = format!(
        "2015 samples: {} available bins\n2.4GHz all CCDF    {}\n2.4GHz strong CCDF {}\n5GHz all CCDF      {}\n5GHz strong CCDF   {}\n",
        d.g24_all.len(),
        sparkline(&downsample(&ccdf_probs(&d.g24_all), 40)),
        sparkline(&downsample(&ccdf_probs(&d.g24_strong), 40)),
        sparkline(&downsample(&ccdf_probs(&d.g5_all), 40)),
        sparkline(&downsample(&ccdf_probs(&d.g5_strong), 40)),
    );
    ExperimentReport {
        id: "fig17",
        title: "CCDFs of detected public WiFi APs per device per 10 min (2015)",
        metrics: vec![
            Metric::new("share of samples seeing <10 2.4GHz public APs", 0.90, below10),
            Metric::new(
                "2015 share seeing any 5GHz public AP",
                0.30,
                mobitrace_core::availability::DetectedPublicAps::share_nonzero(&d.g5_all),
            ),
            Metric::new(
                "2013 share seeing any 5GHz public AP",
                0.10,
                mobitrace_core::availability::DetectedPublicAps::share_nonzero(&d13.g5_all),
            ),
            Metric::new(
                "2015 share seeing strong 5GHz public AP",
                0.10,
                mobitrace_core::availability::DetectedPublicAps::share_nonzero(&d.g5_strong),
            ),
        ],
        rendering,
    }
}

pub(super) fn fig18(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    // Runs on the 2015 dataset WITH update days retained.
    let cls = &ctxs[2].aps; // classification from the cleaned dataset is fine for home detection
    let a = mobitrace_core::update::update_analysis(&set.update_2015, cls, 10);
    let cdf = a.timing_cdf(10, false);
    let rendering = format!(
        "updates: {} of {} iOS devices\ntiming CDF (days since release):\n{}",
        a.updates.len(),
        a.ios_devices,
        ascii_chart(&cdf, 50, 10)
    );
    ExperimentReport {
        id: "fig18",
        title: "Software update timing (iOS 8.2)",
        metrics: vec![
            Metric::new("adoption within window", 0.58, a.adoption),
            Metric::new("adoption without home AP", 0.14, a.adoption_no_home),
            Metric::new(
                "median extra delay without home AP (days)",
                3.5,
                a.median_delay_no_home - a.median_delay_home,
            ),
            Metric::measured("no-home updaters via public WiFi", a.no_home_via.0 as f64),
            Metric::measured("no-home updaters via office WiFi", a.no_home_via.1 as f64),
        ],
        rendering,
    }
}

pub(super) fn fig19(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let a14 = mobitrace_core::cap::cap_analysis(&ctxs[1].days);
    let a15 = mobitrace_core::cap::cap_analysis(&ctxs[2].days);
    let a13 = mobitrace_core::cap::cap_analysis(&ctxs[0].days);
    let spark = |xs: &[f64]| {
        sparkline(&downsample(
            &mobitrace_core::stats::cdf_points(xs).iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            40,
        ))
    };
    let rendering = format!(
        "2014: capped CDF {} others CDF {}\n2015: capped CDF {} others CDF {}\n",
        spark(&a14.capped_ratios),
        spark(&a14.other_ratios),
        spark(&a15.capped_ratios),
        spark(&a15.other_ratios)
    );
    ExperimentReport {
        id: "fig19",
        title: "Effect of the soft bandwidth cap (2014 vs 2015)",
        metrics: vec![
            Metric::new("2013 potentially-capped user share", 0.005, a13.capped_user_share),
            Metric::new("2014 potentially-capped user share", 0.008, a14.capped_user_share),
            Metric::new("2015 potentially-capped user share", 0.014, a15.capped_user_share),
            Metric::new("2014 median CDF gap", 0.29, a14.median_gap),
            Metric::new("2015 median CDF gap (relaxed policy)", 0.15, a15.median_gap),
            Metric::new("2014 capped below half trailing mean", 0.45, a14.capped_below_half()),
        ],
        rendering,
    }
}

pub(super) fn offload_potential(
    set: &CampaignSet,
    ctxs: &[AnalysisContext<'_>; 3],
) -> ExperimentReport {
    let o = mobitrace_core::availability::offload_potential(set.year(Year::Y2015), &ctxs[2].cols);
    let rendering = format!(
        "WiFi-available devices: {}\nwith ≥1 strong public AP encounter: {:.0}%\noffloadable share of their cellular RX: {:.0}%\n",
        o.available_devices,
        o.devices_with_opportunity * 100.0,
        o.offloadable_share * 100.0
    );
    ExperimentReport {
        id: "offload_potential",
        title: "§3.5: cellular traffic offloadable to public WiFi (WiFi-available users)",
        metrics: vec![
            Metric::new("offloadable share of cellular traffic", 0.175, o.offloadable_share),
            Metric::new(
                "devices with stable public-WiFi opportunity",
                0.60,
                o.devices_with_opportunity,
            ),
        ],
        rendering,
    }
}

pub(super) fn implications_report(
    set: &CampaignSet,
    ctxs: &[AnalysisContext<'_>; 3],
) -> ExperimentReport {
    let venues = mobitrace_core::timeseries::venue_series(
        set.year(Year::Y2015),
        &ctxs[2].cols,
        &ctxs[2].aps,
    );
    let imp = mobitrace_core::implications::implications(&ctxs[2].days, &venues);
    let rendering = format!(
        "median daily WiFi {:.1} MB vs cellular {:.1} MB → ratio {:.2}\nhome share of WiFi {:.2}\nsmartphone share of residential broadband {:.2}\nper-home smartphone share {:.2}\n",
        imp.median_wifi_mb,
        imp.median_cell_mb,
        imp.wifi_to_cell_ratio,
        imp.home_share_of_wifi,
        imp.smartphone_share_of_rbb,
        imp.smartphone_share_of_home
    );
    ExperimentReport {
        id: "implications",
        title: "§4.1: impact of home WiFi offload on residential broadband",
        metrics: vec![
            Metric::new("WiFi:cellular median ratio (2015)", 1.4, imp.wifi_to_cell_ratio),
            Metric::new("smartphone share of RBB volume", 0.28, imp.smartphone_share_of_rbb),
            Metric::new(
                "one smartphone's share of home volume",
                0.12,
                imp.smartphone_share_of_home,
            ),
        ],
        rendering,
    }
}

pub(super) fn home_rule_sweep_report(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let sweep = mobitrace_core::sensitivity::home_rule_sweep(
        &ctxs[2],
        &mobitrace_core::sensitivity::default_thresholds(),
    );
    let mut t = Table::new(vec!["threshold", "inferred share", "precision", "recall"]);
    let mut metrics = Vec::new();
    for p in &sweep {
        t.row(vec![
            format!("{:.0}%", p.threshold * 100.0),
            format!("{:.3}", p.inferred_share),
            format!("{:.3}", p.score.precision()),
            format!("{:.3}", p.score.recall()),
        ]);
        if (p.threshold - 0.7).abs() < 1e-9 {
            metrics.push(Metric::measured("precision at the paper's 70%", p.score.precision()));
            metrics.push(Metric::measured("recall at the paper's 70%", p.score.recall()));
        }
    }
    ExperimentReport {
        id: "home_rule_sweep",
        title: "Ablation: night-coverage threshold of the home-AP heuristic (2015)",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn carrier_ios(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    let mut t = Table::new(vec!["year", "carrier A", "carrier B", "carrier C", "spread"]);
    let mut metrics = Vec::new();
    for (y, ctx) in ctxs.iter().enumerate() {
        let cmp = mobitrace_core::carriers::carrier_wifi_user_ratios(ctx, Os::Ios);
        t.row(vec![
            YEAR_LABELS[y].to_string(),
            format!("{:.3}", cmp.ratios[0]),
            format!("{:.3}", cmp.ratios[1]),
            format!("{:.3}", cmp.ratios[2]),
            format!("{:.3}", cmp.spread),
        ]);
        if y == 2 {
            // The paper: "no difference in the WiFi-user ratios among
            // three cellular carriers providing iPhones".
            metrics.push(Metric::new("2015 iOS inter-carrier spread (≈0)", 0.0, cmp.spread));
        }
    }
    ExperimentReport {
        id: "carrier_ios",
        title: "§3.3.4: iOS WiFi-user ratio is carrier-independent",
        metrics,
        rendering: t.render(),
    }
}

pub(super) fn interference_report(ctxs: &[AnalysisContext<'_>; 3]) -> ExperimentReport {
    use mobitrace_core::apclass::ApClass as C;
    let mut t = Table::new(vec!["year", "home overlap share", "public overlap share"]);
    let mut series = Vec::new();
    for (y, ctx) in ctxs.iter().enumerate() {
        let p = mobitrace_core::interference::interference_pressure(ctx);
        let home = p.get(&C::Home).map(|v| v.overlap_share()).unwrap_or(0.0);
        let public = p.get(&C::Public).map(|v| v.overlap_share()).unwrap_or(0.0);
        t.row(vec![YEAR_LABELS[y].to_string(), format!("{home:.3}"), format!("{public:.3}")]);
        series.push((home, public));
    }
    let metrics = vec![
        Metric::measured("2013 home co-channel overlap share", series[0].0),
        Metric::measured("2015 home co-channel overlap share", series[2].0),
        Metric::measured("2015 public co-channel overlap share", series[2].1),
    ];
    ExperimentReport {
        id: "interference",
        title: "§3.4.5: co-channel pressure — home channel use disperses, public stays planned",
        metrics,
        rendering: t.render(),
    }
}
