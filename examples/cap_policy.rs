//! Soft-bandwidth-cap what-if (§3.8): rerun the 2014 campaign under three
//! cap regimes — the historical 1 GB/3-day policy, the relaxed 2015
//! policy, and no cap at all — and compare the Fig. 19 suppression gap.
//! This exercises the policy engine as a *mechanism*, not a replay.
//!
//! ```text
//! cargo run --example cap_policy
//! ```

use mobitrace_cellular::CapPolicy;
use mobitrace_core::cap::cap_analysis;
use mobitrace_core::daily::user_days_cols;
use mobitrace_core::stats::mean;
use mobitrace_model::{ByteCount, DataRate, Year};
use mobitrace_sim::{run_campaign, CampaignConfig};

fn main() {
    println!("=== 2014 campaign under three cap regimes ===\n");
    let regimes: [(&str, Option<CapPolicy>); 3] = [
        ("historical (1 GB / 3 days → 128 kbps)", None),
        ("relaxed 2015 (3 GB / 3 days → 300 kbps)", Some(CapPolicy::relaxed_2015())),
        (
            "no cap (trigger at 1 TB)",
            Some(CapPolicy::custom(
                ByteCount::gb(1000),
                3,
                DataRate::mbps(100.0),
                mobitrace_cellular::PeakHours::standard(),
            )),
        ),
    ];
    for (label, policy) in regimes {
        let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.15).with_seed(33);
        cfg.cap_override = policy;
        let (ds, _) = run_campaign(&cfg);
        let days = user_days_cols(&ds.bins);
        let a = cap_analysis(&days);
        let cell_mean_mb = mean(&days.iter().map(|d| d.rx_cell() as f64 / 1e6).collect::<Vec<_>>());
        println!("{label}:");
        println!(
            "  potentially-capped users: {:.1}%   mean cellular RX {:.1} MB/day",
            a.capped_user_share * 100.0,
            cell_mean_mb
        );
        if a.capped_ratios.is_empty() {
            println!("  no capped user-days — no suppression to measure\n");
        } else {
            println!(
                "  capped-vs-others median gap: {:.2}   capped days below half trailing mean: {:.0}%\n",
                a.median_gap,
                a.capped_below_half() * 100.0
            );
        }
    }
    println!(
        "The historical policy shows the paper's Fig. 19 gap; relaxing it shrinks\n\
         the gap (the 2014→2015 change the paper observes), and removing the cap\n\
         erases the suppression while raising mean cellular volume."
    );
}
