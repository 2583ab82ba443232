use mobitrace_core as core_;
use mobitrace_model::Year;
use mobitrace_sim::{run_campaign, CampaignConfig};

fn main() {
    for year in Year::ALL {
        let t0 = std::time::Instant::now();
        let cfg = CampaignConfig::scaled(year, 0.15);
        let (ds, summary) = run_campaign(&cfg);
        let ctx = core_::AnalysisContext::new(&ds);
        let vt = core_::volume::volume_table(&ctx.days);
        let agg = core_::timeseries::aggregate_series(&ds, &ctx.cols);
        let types = core_::usertype::user_type_shares(&ctx.days);
        let ov = core_::overview::overview(&ds, &ctx.cols);
        let venues = core_::timeseries::venue_series(&ds, &ctx.cols, &ctx.aps);
        let f9a = core_::wifistate::wifi_state_series(&ctx, mobitrace_model::Os::Android);
        let off_bh = core_::wifistate::business_hours_mean(&f9a.off);
        let score = core_::apclass::score_home_inference(&ds, &ctx.aps);
        let counts = &ctx.aps.counts;
        let apd = core_::apclass::aps_per_user_day(&ctx, None);
        let total_apd: u64 = apd.iter().sum();
        let wtr = core_::ratios::wifi_traffic_ratio(&ctx, core_::ratios::ClassFilter::All);
        let wur = core_::ratios::wifi_user_ratio(&ctx, core_::ratios::ClassFilter::All);
        println!("== {} ({} users, {:.1}s) ==", year, ds.devices.len(), t0.elapsed().as_secs_f64());
        println!(
            "  median all/cell/wifi MB: {:.1}/{:.1}/{:.1}  mean: {:.1}/{:.1}/{:.1}",
            vt.all.median_mb,
            vt.cell.median_mb,
            vt.wifi.median_mb,
            vt.all.mean_mb,
            vt.cell.mean_mb,
            vt.wifi.mean_mb
        );
        println!(
            "  wifi share of volume: {:.2}   LTE traffic share: {:.2}",
            agg.wifi_share(),
            ov.lte_traffic_share
        );
        println!(
            "  cell-intensive {:.2} wifi-intensive {:.2} mixed {:.2} above-diag {:.2}",
            types.cellular_intensive, types.wifi_intensive, types.mixed, types.mixed_above_diagonal
        );
        println!(
            "  venue shares home/public/office: {:.3}/{:.3}/{:.3}",
            venues.shares.0, venues.shares.1, venues.shares.2
        );
        println!(
            "  Android wifi-off business-hours: {:.2}  means user/off/avail: {:.2}/{:.2}/{:.2}",
            off_bh, f9a.means.0, f9a.means.1, f9a.means.2
        );
        println!("  AP counts: home {} public {} other {} (office {})  per-user-day 1/2/3/4+: {:?} ({} days)",
            counts.home, counts.public, counts.other, counts.office, apd, total_apd);
        println!(
            "  home inference precision {:.2} recall {:.2}",
            score.precision(),
            score.recall()
        );
        println!("  mean wifi-traffic-ratio {:.2} mean wifi-user-ratio {:.2}", wtr.mean, wur.mean);
        println!(
            "  ingest: {:?}  clean bins {} tether-removed {} update-removed {}",
            summary.ingest,
            summary.clean.bins_out,
            summary.clean.tethering_removed,
            summary.clean.update_days_removed
        );
        println!("  updated: {}/{} iOS", summary.n_updated, summary.n_ios);
    }
}
