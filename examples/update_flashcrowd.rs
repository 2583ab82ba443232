//! The iOS 8.2 flash crowd (§3.7): a 565 MB WiFi-only update lands in the
//! middle of the 2015 campaign. Who updates, how fast, and what do users
//! without home WiFi do?
//!
//! ```text
//! cargo run --example update_flashcrowd
//! ```

use mobitrace_collector::CleanOptions;
use mobitrace_core::apclass;
use mobitrace_core::update::update_analysis;
use mobitrace_model::Year;
use mobitrace_sim::campaign::run_campaign_opts;
use mobitrace_sim::CampaignConfig;

fn main() {
    let cfg = CampaignConfig::scaled(Year::Y2015, 0.2).with_seed(88);
    println!(
        "simulating the 2015 campaign ({} users, {} days; iOS 8.2 released on day 10)...",
        cfg.n_users, cfg.days
    );
    // Keep the update days in the dataset — that's what this analysis is
    // about (the paper *removes* them from every other analysis).
    let opts = CleanOptions { remove_update_days: false };
    let (ds, _) = run_campaign_opts(&cfg, opts);

    let cls = apclass::classify(&ds);
    let a = update_analysis(&ds, &cls, 10);

    println!("\n{} of {} iOS devices updated within the window", a.updates.len(), a.ios_devices);
    println!("  adoption: {:.0}% (paper: 58%)", a.adoption * 100.0);
    println!(
        "  with home AP: {:.0}%   without: {:.0}% (paper: 14%)",
        a.adoption_home * 100.0,
        a.adoption_no_home * 100.0
    );
    println!(
        "  median delay: {:.1} days with home AP, {:.1} without (paper gap: 3.5 days)",
        a.median_delay_home, a.median_delay_no_home
    );
    println!(
        "  updaters without home APs went via {} public and {} office APs",
        a.no_home_via.0, a.no_home_via.1
    );

    // Day-by-day adoption curve.
    let cdf = a.timing_cdf(10, false);
    println!("\nadoption by day since release:");
    for day in 0..14 {
        let share = cdf
            .iter()
            .take_while(|(d, _)| *d <= f64::from(day) + 1.0)
            .last()
            .map(|(_, c)| *c)
            .unwrap_or(0.0);
        let bar = "#".repeat((share * 40.0) as usize);
        println!("  day {day:>2}: {:>5.1}% {bar}", share * a.adoption * 100.0);
    }
}
