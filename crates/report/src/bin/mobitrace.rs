//! The `mobitrace` CLI: simulate the campaigns and reproduce the paper's
//! tables and figures.
//!
//! ```text
//! mobitrace list
//! mobitrace run <id>... [--scale S] [--seed N]
//! mobitrace all [--scale S] [--seed N] [--json PATH]
//! mobitrace simulate --out DIR [--scale S] [--seed N]
//! mobitrace analyze --data DIR [<id>...]
//! mobitrace bench [--quick] [--scale S] [--seed N] [--json PATH]
//! mobitrace chaos [--quick] [--scale S] [--seed N]
//! mobitrace live [--quick] [--chaos] [--scale S] [--seed N]
//! mobitrace fleet [--devices N[k|M]] [--cohorts K] [--duration S] [--chaos]
//!                 [--faults] [--checkpoint DIR] [--resume DIR]
//! mobitrace serve [--live | --data FILE.mtpool | --data DIR]
//!                 [--where EXPR]... [--json PATH | --listen ADDR]
//!                 [--interval S] [--duration S] [--min-generations N]
//! ```

use mobitrace_collector::{clean, encode_batch, encode_frame_into, CleanOptions, CollectionServer};
use mobitrace_model::{
    AssocInfo, Band, Bssid, ByteCount, CampaignMeta, Carrier, CellId, Channel, CounterSnapshot,
    Dbm, DeviceId, DeviceInfo, Essid, Os, OsVersion, Record, ScanSummary, SimTime, WifiState, Year,
};
use mobitrace_report::{all_experiment_ids, run_experiment, CampaignSet};
use std::borrow::Cow;
use std::io::Write;

struct Args {
    command: String,
    ids: Vec<String>,
    scale: f64,
    seed: u64,
    json: Option<String>,
    out: Option<String>,
    data: Option<String>,
    quick: bool,
    chaos: bool,
    compare: Option<String>,
    history: Option<String>,
    label: Option<String>,
    tolerance: f64,
    devices: usize,
    cohorts: usize,
    duration: f64,
    workers: usize,
    rate: f64,
    faults: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
    wheres: Vec<String>,
    listen: Option<String>,
    interval: f64,
    min_generations: u64,
    live: bool,
}

/// Parse a device count, accepting `k`/`M` suffixes (`50k`, `1M`, `1.5M`).
fn parse_count(s: &str) -> Result<usize, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1_000.0),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1_000_000.0),
        _ => (t, 1.0),
    };
    let n: f64 = digits.parse().map_err(|e| format!("bad count '{s}': {e}"))?;
    if !(n >= 0.0 && n.is_finite()) {
        return Err(format!("bad count '{s}'"));
    }
    Ok((n * mult).round() as usize)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".into());
    let mut out = Args {
        command,
        ids: Vec::new(),
        scale: 0.15,
        seed: 20151028,
        json: None,
        out: None,
        data: None,
        quick: false,
        chaos: false,
        compare: None,
        history: None,
        label: None,
        tolerance: mobitrace_report::benchhist::DEFAULT_TOLERANCE,
        devices: 50_000,
        cohorts: 4,
        duration: 5.0,
        workers: 0,
        rate: 0.0,
        faults: false,
        checkpoint: None,
        resume: None,
        wheres: Vec::new(),
        listen: None,
        interval: 0.5,
        min_generations: 0,
        live: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                out.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--json" => {
                out.json = Some(args.next().ok_or("--json needs a path")?);
            }
            "--out" => {
                out.out = Some(args.next().ok_or("--out needs a directory")?);
            }
            "--data" => {
                out.data = Some(args.next().ok_or("--data needs a directory")?);
            }
            "--quick" => out.quick = true,
            "--chaos" => out.chaos = true,
            "--compare" => {
                out.compare = Some(args.next().ok_or("--compare needs a baseline .jsonl path")?);
            }
            "--history" => {
                out.history = Some(args.next().ok_or("--history needs a .jsonl path")?);
            }
            "--label" => {
                out.label = Some(args.next().ok_or("--label needs a value")?);
            }
            "--tolerance" => {
                out.tolerance = args
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--devices" => {
                out.devices = parse_count(&args.next().ok_or("--devices needs a count")?)?;
            }
            "--cohorts" => {
                out.cohorts = args
                    .next()
                    .ok_or("--cohorts needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cohorts: {e}"))?;
            }
            "--duration" => {
                out.duration = args
                    .next()
                    .ok_or("--duration needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad --duration: {e}"))?;
            }
            "--workers" => {
                out.workers = args
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--faults" => out.faults = true,
            "--checkpoint" => {
                out.checkpoint = Some(args.next().ok_or("--checkpoint needs a directory")?);
            }
            "--resume" => {
                out.resume = Some(args.next().ok_or("--resume needs a checkpoint directory")?);
            }
            "--where" => {
                out.wheres.push(args.next().ok_or("--where needs a filter expression")?);
            }
            "--listen" => {
                out.listen = Some(args.next().ok_or("--listen needs host:port or a socket path")?);
            }
            "--interval" => {
                out.interval = args
                    .next()
                    .ok_or("--interval needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad --interval: {e}"))?;
            }
            "--min-generations" => {
                out.min_generations = args
                    .next()
                    .ok_or("--min-generations needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --min-generations: {e}"))?;
            }
            "--live" => out.live = true,
            "--rate" => {
                out.rate = args
                    .next()
                    .ok_or("--rate needs records/s")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?;
            }
            other if !other.starts_with('-') => out.ids.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(0.005..=1.5).contains(&out.scale) {
        return Err(format!("--scale {} out of range (0.005–1.5)", out.scale));
    }
    if out.tolerance <= 0.0 {
        return Err(format!("--tolerance {} must be positive", out.tolerance));
    }
    if out.devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    if out.cohorts == 0 {
        return Err("--cohorts must be at least 1".into());
    }
    if !(out.duration > 0.0 && out.duration.is_finite()) {
        return Err(format!("--duration {} must be positive seconds", out.duration));
    }
    if !(out.interval > 0.0 && out.interval.is_finite()) {
        return Err(format!("--interval {} must be positive seconds", out.interval));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match args.command.as_str() {
        "list" => {
            println!("available experiments:");
            for id in all_experiment_ids() {
                println!("  {id}");
            }
        }
        "simulate" => {
            let dir = args.out.clone().unwrap_or_else(|| "datasets".into());
            eprintln!(
                "simulating campaigns at scale {} (seed {}) into {dir}/ ...",
                args.scale, args.seed
            );
            let set = CampaignSet::simulate(args.scale, args.seed);
            match set.save(std::path::Path::new(&dir)) {
                Ok(paths) => {
                    for p in paths {
                        println!("wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "analyze" => {
            let dir = args.data.clone().unwrap_or_else(|| "datasets".into());
            let set = match CampaignSet::load(std::path::Path::new(&dir)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot load datasets from {dir}: {e}");
                    std::process::exit(1);
                }
            };
            let ctxs = set.contexts();
            let ids: Vec<String> = if args.ids.is_empty() {
                all_experiment_ids().iter().map(|s| s.to_string()).collect()
            } else {
                args.ids.clone()
            };
            for id in &ids {
                match run_experiment(id, &set, &ctxs) {
                    Some(r) => println!("{}", r.render()),
                    None => {
                        eprintln!("error: unknown experiment '{id}'");
                        std::process::exit(2);
                    }
                }
            }
        }
        "run" | "all" => {
            let ids: Vec<String> = if args.command == "all" || args.ids.is_empty() {
                all_experiment_ids().iter().map(|s| s.to_string()).collect()
            } else {
                args.ids.clone()
            };
            for id in &ids {
                if !all_experiment_ids().contains(&id.as_str()) {
                    eprintln!("error: unknown experiment '{id}' (see `mobitrace list`)");
                    std::process::exit(2);
                }
            }
            eprintln!(
                "simulating 2013/2014/2015 campaigns at scale {} (seed {})...",
                args.scale, args.seed
            );
            let t0 = std::time::Instant::now();
            let set = CampaignSet::simulate(args.scale, args.seed);
            let ctxs = set.contexts();
            eprintln!(
                "simulation + analysis contexts ready in {:.1}s\n",
                t0.elapsed().as_secs_f64()
            );
            let mut reports = Vec::new();
            for id in &ids {
                let report = run_experiment(id, &set, &ctxs).expect("id validated above");
                println!("{}", report.render());
                reports.push(report);
            }
            if let Some(path) = &args.json {
                let json = serde_json::to_string_pretty(&reports).expect("serializable");
                let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                f.write_all(json.as_bytes()).expect("write json");
                eprintln!("wrote {} reports to {path}", reports.len());
            }
        }
        "bench" => run_pipeline_bench(&args),
        "chaos" => run_chaos(&args),
        "live" => run_live(&args),
        "pool" => run_pool(&args),
        "fleet" => run_fleet_cmd(&args),
        "serve" => run_serve(&args),
        _ => {
            println!(
                "mobitrace — reproduce 'Tracking the Evolution and Diversity in Network \
                 Usage of Smartphones' (IMC'15)\n\n\
                 usage:\n  mobitrace list\n  mobitrace run <id>... [--scale S] [--seed N]\n  \
                 mobitrace all [--scale S] [--seed N] [--json PATH]\n  \
                 mobitrace simulate --out DIR [--scale S] [--seed N]\n  \
                 mobitrace analyze --data DIR [<id>...]\n  \
                 mobitrace bench [--quick] [--scale S] [--seed N] [--json PATH]\n          \
                 [--compare BASELINE.jsonl] [--tolerance X] [--history HIST.jsonl]\n          \
                 [--label NAME]\n  \
                 mobitrace chaos [--quick] [--scale S] [--seed N]\n  \
                 mobitrace live [--quick] [--chaos] [--scale S] [--seed N]\n  \
                 mobitrace pool export --out FILE.mtpool [--scale S] [--seed N]\n          \
                 [--where EXPR]...\n  \
                 mobitrace pool analyze --data FILE.mtpool [<id>...]\n  \
                 mobitrace pool verify --data FILE.mtpool\n  \
                 mobitrace fleet [--devices N[k|M]] [--cohorts K] [--duration S]\n          \
                 [--workers W] [--rate R/s] [--chaos] [--faults] [--quick]\n          \
                 [--checkpoint DIR] [--resume DIR] [--json PATH]\n          \
                 [--compare HIST.jsonl] [--history HIST.jsonl] [--label NAME]\n  \
                 mobitrace serve [--live | --data FILE.mtpool | --data DIR]\n          \
                 [--where EXPR]... [--json PATH | --listen ADDR]\n          \
                 [--interval S] [--duration S] [--min-generations N]\n\n\
                 scale 1.0 = the paper's full populations (~1600-1755 users/campaign);\n\
                 the default 0.15 reproduces every trend in a few seconds.\n\
                 `bench` times each pipeline stage and writes BENCH_pipeline.json;\n\
                 `bench --compare B.jsonl` gates tracked metrics against the last\n\
                 entry of a committed history (exit 1 on regression) and\n\
                 `bench --history H.jsonl` appends this run as a new entry;\n\
                 `chaos` proves fault convergence (crash + recovery included) and\n\
                 reports what a chaos-scheduled campaign did to the upload stream;\n\
                 `live` streams a campaign through the incremental analysis engine\n\
                 and asserts bit-identity with the batch pipeline (exit 1 on\n\
                 divergence; `--chaos` layers a chaos schedule on top);\n\
                 `pool` works with the single-file mmap `.mtpool` format:\n\
                 `export` simulates and writes one, `analyze` serves experiments\n\
                 zero-copy from it, `verify` checks every segment checksum;\n\
                 `fleet` drives the thread-per-core ingest frontend at fleet\n\
                 scale (`--devices 1M`), reporting sustained records/s, p50/p99\n\
                 enqueue-to-commit latency and shed/backoff counts, merged into\n\
                 BENCH_pipeline.json next to any existing bench metrics\n\
                 (`--faults` injects a seeded schedule of worker kills, server\n\
                 crashes and pool I/O failures and requires the run to self-heal;\n\
                 `--checkpoint DIR` checkpoints cohorts periodically and\n\
                 `--resume DIR` restarts from those checkpoints);\n\
                 `serve` registers filter queries (`--where \"venue=home && day>=1\"`)\n\
                 and re-evaluates them against every snapshot generation of a\n\
                 running live campaign (`--live`), a growing `.mtpool` file\n\
                 (`--data FILE.mtpool`, polled every `--interval` seconds for\n\
                 `--duration`), or a one-shot batch dataset, streaming one JSONL\n\
                 record per (query, generation) to stdout, `--json PATH`, or a\n\
                 `--listen` TCP/unix socket;\n\
                 `--quick` caps the scale at 0.02 (and `fleet` at 50k devices)\n\
                 for CI smoke runs."
            );
        }
    }
}

/// `mobitrace chaos`: run the fault-convergence harness (reliable lane vs
/// chaos lane over identical observation streams, mid-campaign server
/// crash included), then a chaos-scheduled campaign through the full
/// simulator, reporting delivery/recovery/eviction statistics. Exits
/// non-zero if the convergence invariant is violated.
fn run_chaos(args: &Args) {
    use mobitrace_collector::{run_convergence, ChaosProfile, ChaosRunConfig, FaultPlan};
    use mobitrace_sim::{run_campaign, CampaignConfig};

    let cfg = if args.quick {
        ChaosRunConfig::quick(args.seed)
    } else {
        ChaosRunConfig {
            n_devices: 16,
            days: 6,
            faults: FaultPlan::hostile(),
            profile: Some(ChaosProfile::hostile()),
            cache_cap: 128,
            crash_at: Some(SimTime::from_day_bin(2, 40)),
            crash_duration_min: 300,
            ..ChaosRunConfig::quick(args.seed)
        }
    };
    eprintln!(
        "convergence harness: {} devices, {} days, seed {} ({} chaos profile)...",
        cfg.n_devices,
        cfg.days,
        cfg.seed,
        if args.quick { "flaky" } else { "hostile" }
    );
    let report = run_convergence(&cfg);
    println!("{report}");

    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    let profile = if args.quick { ChaosProfile::flaky() } else { ChaosProfile::hostile() };
    let mut camp =
        CampaignConfig::scaled(Year::Y2014, scale).with_seed(args.seed).with_chaos(profile);
    camp.days = if args.quick { 4 } else { 8 };
    eprintln!("\nchaos campaign: {} devices, {} days...", camp.n_users, camp.days);
    let (ds, summary) = run_campaign(&camp);
    let net = &summary.net;
    println!(
        "chaos campaign: {} records made, {} frames sent, {} failed sends \
         ({} chaos-attributed), {} retries, {} backoff skips",
        net.records_made, net.sent, net.failed, net.chaos_failed, net.retries, net.backoff_skips
    );
    println!(
        "  in flight: {} dropped, {} duplicated, {} corrupted, {} lost to server outages",
        net.dropped, net.duplicated, net.corrupted, net.lost_server_down
    );
    println!(
        "  agents: {} evicted records, deepest cache {} frames; \
         server: {} duplicates deduped, {} rejected",
        net.evicted, net.max_pending, summary.ingest.duplicates, summary.ingest.rejected
    );
    println!(
        "  cleaned: {} bins from {} devices, {} gaps, {} records missing",
        ds.bins.len(),
        ds.devices.len(),
        summary.clean.gaps,
        summary.clean.missing_records
    );

    if !report.converged {
        eprintln!("error: convergence invariant violated");
        std::process::exit(1);
    }
}

/// `mobitrace live`: run a simulated campaign through the streaming
/// analysis engine — the server's ingest tap feeding the incremental
/// cleaner while devices are still uploading — print the periodic snapshot
/// metrics, and assert end-of-campaign bit-identity between the live-built
/// snapshot and the batch pipeline. Exits non-zero on any divergence.
fn run_live(args: &Args) {
    use mobitrace_core::AnalysisContext;
    use mobitrace_live::{run_live_campaign, LiveOptions};
    use mobitrace_sim::CampaignConfig;

    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    let mut cfg = CampaignConfig::scaled(Year::Y2015, scale).with_seed(args.seed);
    if args.quick {
        cfg.days = 3;
    }
    if args.chaos {
        cfg = cfg.with_chaos(mobitrace_collector::ChaosProfile::flaky());
    }
    eprintln!(
        "live campaign: {} devices, {} days, seed {}{}...",
        cfg.n_users,
        cfg.days,
        cfg.seed,
        if args.chaos { " (chaos schedule on)" } else { "" }
    );
    let report = run_live_campaign(&cfg, LiveOptions::default());
    let stats = &report.finished.stats;

    println!("{} snapshots published while streaming:", report.snapshots.len());
    let (mut pf, mut pn, mut pc) = (0u64, 0u64, 0u64);
    for (i, s) in report.snapshots.iter().enumerate() {
        println!(
            "  #{i:>2}: {} bins, +{} records folded (+{:.2}ms fold, +{:.2}ms compact)",
            s.bins,
            s.folded - pf,
            (s.fold_nanos - pn) as f64 / 1e6,
            (s.compact_nanos - pc) as f64 / 1e6
        );
        (pf, pn, pc) = (s.folded, s.fold_nanos, s.compact_nanos);
    }
    println!(
        "stream: {} records seen, {} folded, {} late, {} duplicates, \
         {} batches ({} replays)",
        stats.records_seen,
        stats.folded,
        stats.late_dropped,
        stats.dup_dropped,
        stats.batches,
        stats.replay_batches
    );
    println!(
        "clean (live): {} bins, {} tethering removed, {} update-day removed, \
         {} reboots, {} gaps ({} records missing)",
        stats.bins_out,
        stats.tethering_removed,
        stats.update_days_removed,
        stats.reboots,
        stats.gaps,
        stats.missing_records
    );
    println!(
        "tap: {} records published, {} overflowed to spill",
        report.tap_published, report.tap_overflow
    );

    if let Some(why) = &report.divergence {
        eprintln!("error: live snapshot diverged from the batch pipeline: {why}");
        std::process::exit(1);
    }
    // Bit-identity held. Also serve the analysis passes from the live
    // snapshot's prebuilt index/columns and cross-check them against a
    // context derived from scratch.
    let snap = &report.finished.snapshot;
    let live_ctx = AnalysisContext::from_cow_parts(
        &snap.ds,
        Cow::Borrowed(&snap.index),
        Cow::Borrowed(&snap.cols),
        None,
    );
    let batch_ctx = AnalysisContext::new(&snap.ds);
    if live_ctx.days != batch_ctx.days
        || live_ctx.classes != batch_ctx.classes
        || live_ctx.thresholds != batch_ctx.thresholds
        || live_ctx.aps != batch_ctx.aps
        || live_ctx.home_cell != batch_ctx.home_cell
    {
        eprintln!("error: analysis context served from the live snapshot diverged");
        std::process::exit(1);
    }
    println!(
        "converged: live snapshot is bit-identical to the batch pipeline \
         ({} bins, {} compactions; context passes agree) in {:.1}s",
        snap.ds.bins.len(),
        stats.compactions,
        report.wall_s
    );
}

/// `mobitrace pool export|analyze|verify`: the single-file mmap `.mtpool`
/// persistence path. `export` simulates the campaigns and writes one pool;
/// `analyze` mmaps it and serves experiments from the stored index and
/// columns (no clean, no re-index, no transpose); `verify` walks every
/// segment checksum and prints the report. `analyze` and `verify` exit
/// non-zero on any corruption — a pool never half-loads.
fn run_pool(args: &Args) {
    use mobitrace_pool::PoolReader;

    let action = args.ids.first().map(String::as_str).unwrap_or("");
    match action {
        "export" => {
            let path = args.out.clone().unwrap_or_else(|| "campaigns.mtpool".into());
            let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
            // Repeated `--where` flags are conjoined: the export keeps only
            // rows matching all of them. Parse before simulating so a typo
            // fails in milliseconds, not after the campaign runs.
            let expr = match combined_filter(&args.wheres) {
                Ok(e) => e,
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(2);
                }
            };
            eprintln!("simulating campaigns at scale {scale} (seed {}) into {path} ...", args.seed);
            let set = CampaignSet::simulate(scale, args.seed);
            let result = match &expr {
                None => set.save_pool(std::path::Path::new(&path)),
                Some(expr) => {
                    eprintln!("exporting rows where: {expr}");
                    let opts = mobitrace_query::CompileOptions { n_cohorts: args.cohorts as u32 };
                    set.save_pool_filtered(std::path::Path::new(&path), expr, opts)
                }
            };
            if let Err(e) = result {
                eprintln!("error: cannot write pool {path}: {e}");
                std::process::exit(1);
            }
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            println!("wrote {path} ({bytes} bytes)");
        }
        "analyze" => {
            let path = args.data.clone().unwrap_or_else(|| "campaigns.mtpool".into());
            let t0 = std::time::Instant::now();
            let (set, views) = match CampaignSet::load_pool(std::path::Path::new(&path)) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: cannot load pool {path}: {e}");
                    std::process::exit(1);
                }
            };
            let ctxs = set.contexts_with(views);
            eprintln!("pool {path} analysis-ready in {:.2}s", t0.elapsed().as_secs_f64());
            let ids: Vec<String> = if args.ids.len() > 1 {
                args.ids[1..].to_vec()
            } else {
                all_experiment_ids().iter().map(|s| s.to_string()).collect()
            };
            for id in &ids {
                match run_experiment(id, &set, &ctxs) {
                    Some(r) => println!("{}", r.render()),
                    None => {
                        eprintln!("error: unknown experiment '{id}'");
                        std::process::exit(2);
                    }
                }
            }
        }
        "verify" => {
            let path = args.data.clone().unwrap_or_else(|| "campaigns.mtpool".into());
            let reader = match PoolReader::open(std::path::Path::new(&path)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: cannot open pool {path}: {e}");
                    std::process::exit(1);
                }
            };
            match reader.verify() {
                Ok(rep) => {
                    println!(
                        "{path}: OK — epoch {}, {} segments, {} dataset streams, \
                         {} bytes ({})",
                        rep.epoch,
                        rep.segments,
                        rep.datasets,
                        rep.bytes,
                        if rep.mapped { "mmap" } else { "heap" }
                    );
                }
                Err(e) => {
                    eprintln!("error: pool {path} failed verification: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!(
                "error: unknown pool action '{other}' \
                 (expected export, analyze, or verify)"
            );
            std::process::exit(2);
        }
    }
}

/// Conjoin repeated `--where` flags into one filter. Each flag is
/// parenthesized before joining so `--where "a||b" --where "c"` means
/// `(a||b) && (c)`, not `a || (b && c)`. Returns a ready-to-print error
/// message (with the parser's byte offset and expected-token hint) on the
/// first flag that fails to parse.
fn combined_filter(wheres: &[String]) -> Result<Option<mobitrace_query::FilterExpr>, String> {
    if wheres.is_empty() {
        return Ok(None);
    }
    // Parse each flag on its own first so the error's byte offset points
    // into the string the user actually typed.
    for src in wheres {
        if let Err(e) = mobitrace_query::parse(src) {
            return Err(format!("error: in --where {src:?}:\n  {e}"));
        }
    }
    let joined = wheres.iter().map(|w| format!("({w})")).collect::<Vec<_>>().join(" && ");
    match mobitrace_query::parse(&joined) {
        Ok(e) => Ok(Some(e)),
        Err(e) => Err(format!("error: in combined --where {joined:?}:\n  {e}")),
    }
}

/// What the serve loop tallies across generations, shared between the
/// snapshot observer (live mode runs it on the engine's drain thread) and
/// the end-of-run gates.
#[derive(Default)]
struct ServeTally {
    /// Generation number of every evaluated snapshot, in arrival order.
    generations: Vec<u64>,
    /// Per-(query, generation) evaluation latency, seconds.
    latencies: Vec<f64>,
}

type ServeSink = std::sync::Arc<std::sync::Mutex<Box<dyn Write + Send>>>;

/// Open the JSONL output stream: `--json PATH` wins, then `--listen ADDR`
/// (TCP when the address contains `:`, unix socket otherwise; blocks until
/// one consumer connects), else stdout.
fn open_serve_sink(args: &Args) -> ServeSink {
    let sink: Box<dyn Write + Send> = if let Some(path) = &args.json {
        match std::fs::File::create(path) {
            Ok(f) => {
                eprintln!("serve: streaming JSONL to {path}");
                Box::new(f)
            }
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(addr) = &args.listen {
        open_listener(addr)
    } else {
        Box::new(std::io::stdout())
    };
    std::sync::Arc::new(std::sync::Mutex::new(sink))
}

fn open_listener(addr: &str) -> Box<dyn Write + Send> {
    let conn: std::io::Result<Box<dyn Write + Send>> = if addr.contains(':') {
        std::net::TcpListener::bind(addr).and_then(|l| {
            eprintln!("serve: listening on tcp {addr}, waiting for a consumer...");
            l.accept().map(|(s, peer)| {
                eprintln!("serve: consumer connected from {peer}");
                Box::new(s) as Box<dyn Write + Send>
            })
        })
    } else {
        #[cfg(unix)]
        {
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(addr);
            std::os::unix::net::UnixListener::bind(addr).and_then(|l| {
                eprintln!("serve: listening on unix socket {addr}, waiting for a consumer...");
                l.accept().map(|(s, _)| {
                    eprintln!("serve: consumer connected");
                    Box::new(s) as Box<dyn Write + Send>
                })
            })
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::other("unix sockets are not supported on this platform"))
        }
    };
    match conn {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Write one generation's records as JSONL and flush, so a socket consumer
/// sees each generation as soon as it is evaluated. A closed sink is fatal:
/// silently streaming into the void would let every gate "pass" on a run
/// nobody observed.
fn emit_records(sink: &ServeSink, recs: &[mobitrace_query::ServeRecord]) {
    let mut lines = String::new();
    for r in recs {
        lines.push_str(&serde_json::to_string(r).expect("serializable"));
        lines.push('\n');
    }
    let mut w = sink.lock().expect("serve sink lock");
    if let Err(e) = w.write_all(lines.as_bytes()).and_then(|()| w.flush()) {
        eprintln!("error: output stream closed mid-run: {e}");
        std::process::exit(1);
    }
}

/// Stderr summary + the `--min-generations` gate, shared by every serve
/// source. Distinct generations (not observer invocations) are what the
/// gate counts: the live engine's final flush can republish the last
/// compaction's generation number with the completed dataset.
fn finish_serve(tally: &ServeTally, n_queries: usize, min_generations: u64) {
    use mobitrace_core::stats::percentile;
    let mut distinct = tally.generations.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let p50 = percentile(&tally.latencies, 50.0);
    let p99 = percentile(&tally.latencies, 99.0);
    eprintln!(
        "serve: {} snapshot generations ({} distinct), {} queries, \
         {} evaluations; refresh latency p50 {:.2}ms p99 {:.2}ms",
        tally.generations.len(),
        distinct.len(),
        n_queries,
        tally.latencies.len(),
        p50 * 1e3,
        p99 * 1e3
    );
    if (distinct.len() as u64) < min_generations {
        eprintln!(
            "error: only {} distinct snapshot generations streamed \
             (--min-generations {min_generations})",
            distinct.len()
        );
        std::process::exit(1);
    }
}

/// `mobitrace serve`: register filter queries and re-evaluate them against
/// snapshot generations from one of three sources — a live campaign run in
/// process (`--live`, one generation per engine compaction), a `.mtpool`
/// file another process is appending to (`--data FILE.mtpool`, re-opened on
/// epoch change every `--interval` seconds until `--duration` elapses), or
/// a one-shot batch dataset (`--data DIR` or a fresh simulation). Every
/// (query, generation) evaluation streams one JSONL [`ServeRecord`].
///
/// The live source ends with the same convergence gates as `mobitrace
/// live`, plus a serve-specific one: the final unfiltered query payload
/// must be bit-identical to the batch pipeline's payload over the same
/// records (exit 1 otherwise).
///
/// [`ServeRecord`]: mobitrace_query::ServeRecord
fn run_serve(args: &Args) {
    use mobitrace_query::{CompileOptions, Query, QuerySet};

    // Parse every registered query up front: a typo is a fast exit 2 with
    // a byte offset, never a mid-stream surprise.
    let mut queries = vec![Query::unfiltered("all")];
    for (i, src) in args.wheres.iter().enumerate() {
        match Query::parse(format!("q{}", i + 1), src) {
            Ok(q) => queries.push(q),
            Err(e) => {
                eprintln!("error: in --where {src:?}:\n  {e}");
                std::process::exit(2);
            }
        }
    }
    let set = QuerySet { queries, opts: CompileOptions { n_cohorts: args.cohorts as u32 } };
    for q in &set.queries {
        if q.source.is_empty() {
            eprintln!("serve: registered '{}' (unfiltered)", q.id);
        } else {
            eprintln!("serve: registered '{}' where {}", q.id, q.source);
        }
    }
    let sink = open_serve_sink(args);

    let pool_path = args.data.as_deref().filter(|d| d.ends_with(".mtpool"));
    if args.live {
        serve_live(args, set, sink);
    } else if let Some(path) = pool_path {
        serve_pool_follow(args, set, sink, std::path::Path::new(path));
    } else {
        serve_batch(args, set, sink);
    }
}

/// Live source: run a simulated campaign through the streaming engine and
/// evaluate the query set on every published snapshot (the observer runs on
/// the engine's drain thread, concurrent with ingest). Generation numbers
/// are the engine's compaction counter.
fn serve_live(args: &Args, set: mobitrace_query::QuerySet, sink: ServeSink) {
    use mobitrace_core::AnalysisContext;
    use mobitrace_live::{run_live_campaign_observed, LiveOptions, SnapshotObserver};
    use mobitrace_query::{evaluate_payload, watermark_minute};
    use mobitrace_sim::CampaignConfig;
    use std::sync::{Arc, Mutex};

    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    let mut cfg = CampaignConfig::scaled(Year::Y2015, scale).with_seed(args.seed);
    if args.quick {
        cfg.days = 3;
    }
    if args.chaos {
        cfg = cfg.with_chaos(mobitrace_collector::ChaosProfile::flaky());
    }
    eprintln!(
        "serve: live campaign, {} devices, {} days, seed {}{}...",
        cfg.n_users,
        cfg.days,
        cfg.seed,
        if args.chaos { " (chaos schedule on)" } else { "" }
    );

    let tally = Arc::new(Mutex::new(ServeTally::default()));
    let observer: SnapshotObserver = {
        let set = set.clone();
        let sink = Arc::clone(&sink);
        let tally = Arc::clone(&tally);
        Box::new(move |snap, stats| {
            let recs = set.evaluate(
                &snap.ds,
                &snap.index,
                &snap.cols,
                stats.compactions,
                watermark_minute(&snap.cols),
            );
            {
                let mut t = tally.lock().expect("serve tally lock");
                t.generations.push(stats.compactions);
                t.latencies.extend(recs.iter().map(|r| r.elapsed_s));
            }
            emit_records(&sink, &recs);
        })
    };
    let report = run_live_campaign_observed(&cfg, LiveOptions::default(), observer);

    if let Some(why) = &report.divergence {
        eprintln!("error: live snapshot diverged from the batch pipeline: {why}");
        std::process::exit(1);
    }
    // The serve gate proper: the last streamed unfiltered payload (computed
    // from the final snapshot's prebuilt parts, exactly as the observer
    // did) must equal the batch pipeline's payload over the same dataset.
    let snap = &report.finished.snapshot;
    let served = evaluate_payload(&AnalysisContext::from_cow_parts(
        &snap.ds,
        Cow::Borrowed(&snap.index),
        Cow::Borrowed(&snap.cols),
        None,
    ));
    let batch = evaluate_payload(&AnalysisContext::new(&snap.ds));
    if served != batch {
        eprintln!("error: final unfiltered query payload diverged from the batch pipeline");
        std::process::exit(1);
    }
    let t = tally.lock().expect("serve tally lock");
    finish_serve(&t, set.queries.len(), args.min_generations);
    eprintln!(
        "serve: converged — final unfiltered payload bit-identical to batch \
         ({} bins, {} compactions) in {:.1}s",
        snap.ds.bins.len(),
        report.finished.stats.compactions,
        report.wall_s
    );
}

/// Pool source: follow a `.mtpool` file another process appends snapshot
/// generations to (`mobitrace live` via its pool sink, or a fleet
/// checkpoint). Every `--interval` seconds the file is re-opened; a changed
/// epoch means a newly committed generation, which is decoded and
/// evaluated. Generation numbers are the pool's publish epochs.
fn serve_pool_follow(
    args: &Args,
    set: mobitrace_query::QuerySet,
    sink: ServeSink,
    path: &std::path::Path,
) {
    use mobitrace_pool::PoolReader;
    use mobitrace_query::watermark_minute;

    eprintln!(
        "serve: following pool {} every {:.2}s for {:.1}s...",
        path.display(),
        args.interval,
        args.duration
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(args.duration);
    let mut tally = ServeTally::default();
    let mut last_epoch = 0u64;
    let mut last_error = String::new();
    loop {
        // Reopen rather than cache the reader: the writer replaces the
        // mapping's committed slot in place, and open is one mmap + header
        // probe. Open failures are expected while the writer is first
        // creating the file, so they only warn (once per distinct cause).
        match PoolReader::open(path) {
            Ok(r) => {
                let epoch = r.epoch();
                if epoch != last_epoch {
                    match r.dataset_streams().last() {
                        Some(&stream) => match r.decode_dataset(stream) {
                            Ok(pd) => {
                                let recs = set.evaluate(
                                    &pd.ds,
                                    &pd.index,
                                    &pd.cols,
                                    epoch,
                                    watermark_minute(&pd.cols),
                                );
                                tally.generations.push(epoch);
                                tally.latencies.extend(recs.iter().map(|r| r.elapsed_s));
                                emit_records(&sink, &recs);
                                last_epoch = epoch;
                            }
                            Err(e) => {
                                eprintln!("error: pool {} failed to decode: {e}", path.display());
                                std::process::exit(1);
                            }
                        },
                        None => last_epoch = epoch,
                    }
                }
            }
            Err(e) => {
                let msg = e.to_string();
                if msg != last_error {
                    eprintln!("serve: pool not readable yet ({msg}); retrying");
                    last_error = msg;
                }
            }
        }
        if std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(args.interval));
    }
    finish_serve(&tally, set.queries.len(), args.min_generations);
}

/// Batch source: load (`--data DIR`) or simulate the campaign set and
/// evaluate the query set once per campaign year, generation = campaign
/// year. No cadence — this is the one-shot shape for piping query results
/// into scripts.
fn serve_batch(args: &Args, set: mobitrace_query::QuerySet, sink: ServeSink) {
    use mobitrace_model::{DatasetColumns, DatasetIndex};
    use mobitrace_query::watermark_minute;

    let campaigns = match &args.data {
        Some(dir) => match CampaignSet::load(std::path::Path::new(dir)) {
            Ok(s) => {
                eprintln!("serve: one-shot batch over {dir}");
                s
            }
            Err(e) => {
                eprintln!("error: cannot load datasets from {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
            eprintln!("serve: one-shot batch, simulating at scale {scale} (seed {})...", args.seed);
            CampaignSet::simulate(scale, args.seed)
        }
    };
    let mut tally = ServeTally::default();
    for (ds, year) in campaigns.years.iter().zip([2013u64, 2014, 2015]) {
        let index = DatasetIndex::build(ds);
        let cols = DatasetColumns::build(ds);
        let recs = set.evaluate(ds, &index, &cols, year, watermark_minute(&cols));
        tally.generations.push(year);
        tally.latencies.extend(recs.iter().map(|r| r.elapsed_s));
        emit_records(&sink, &recs);
    }
    finish_serve(&tally, set.queries.len(), args.min_generations);
}

/// Median-of-9 wall clock for one analysis pass. The median (rather than
/// the best) is what the committed bench history records, so one lucky
/// cache-hot run cannot mask a real regression and one noisy run cannot
/// fake one.
fn time_pass<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples = [0.0f64; 9];
    for s in &mut samples {
        let t = std::time::Instant::now();
        std::hint::black_box(f());
        *s = t.elapsed().as_secs_f64();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[4]
}

fn rows_cols(rows_s: f64, cols_s: f64) -> serde_json::Value {
    serde_json::json!({ "rows_s": rows_s, "cols_s": cols_s })
}

/// Synthetic upload record for the contended-ingest stage: cumulative
/// counters growing with `k` so the cleaning stage reconstructs non-empty
/// bins.
fn bench_record(device: u32, k: u32) -> Record {
    let mut counters = CounterSnapshot::default();
    counters.lte.add(ByteCount::mb(u64::from(k) + 1), ByteCount::kb(u64::from(k) * 50));
    counters.wifi.add(ByteCount::mb(2 * (u64::from(k) + 1)), ByteCount::kb(u64::from(k) * 80));
    Record {
        device: DeviceId(device),
        os: Os::Android,
        seq: k,
        time: SimTime::from_minutes(k * 10),
        boot_epoch: 0,
        counters,
        wifi: WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(u64::from(device % 64) + 1),
            essid: Essid::new("aterm-bench"),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-57),
        }),
        scan: ScanSummary::default(),
        apps: vec![],
        geo: CellId::new(3, 4),
        battery_pct: 80,
        tethering: false,
        os_version: OsVersion::new(4, 4),
    }
}

/// Micro-breakdown of the `ApWorld::scan` hot path on a small fixed world
/// (same shape as the criterion `world` group): allocating scan vs buffer
/// reuse vs plan construction vs plan replay. All timings are µs/call.
fn world_scan_breakdown() -> serde_json::Value {
    use mobitrace_deploy::world::WorldSpec;
    use mobitrace_deploy::{ApWorld, DeployParams};
    use mobitrace_geo::{DensitySurface, GeoPoint, PoiSet};
    use mobitrace_radio::GaussianPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    let res = DensitySurface::residential();
    // A campaign-sized home population: the residential density surface
    // concentrates homes into clusters, so the densest probe below sees a
    // realistic urban neighbourhood rather than a 2-entry plan.
    let homes: Vec<(u32, GeoPoint)> = (0..800).map(|k| (k, res.sample_point(&mut rng))).collect();
    let home_pts: Vec<GeoPoint> = homes.iter().map(|&(_, p)| p).collect();
    let pois = PoiSet::generate(120, &mut rng);
    let spec = WorldSpec {
        params: DeployParams::for_year(Year::Y2015),
        participant_homes: homes,
        office_sites: vec![],
        pois,
        n_participants: 800,
        fon_home_share: 0.03,
    };
    let world = ApWorld::generate(&spec, &mut rng);
    // Probe at the participant home with the densest scan-plan
    // neighbourhood: sparse probes finish in a handful of entries and time
    // call overhead instead of the replay loop itself.
    let probe = home_pts
        .iter()
        .copied()
        .max_by_key(|&p| world.build_scan_plan(p).len())
        .expect("homes non-empty");

    const ITERS: u32 = 4000;
    let per_call_us = |total_s: f64| total_s / f64::from(ITERS) * 1e6;

    let mut r = ChaCha8Rng::seed_from_u64(1);
    let t = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(world.scan(probe, &mut r));
    }
    let scan_alloc_us = per_call_us(t.elapsed().as_secs_f64());

    let mut r = ChaCha8Rng::seed_from_u64(1);
    let mut buf = Vec::new();
    let t = std::time::Instant::now();
    for _ in 0..ITERS {
        world.scan_into(probe, &mut r, &mut buf);
        std::hint::black_box(buf.len());
    }
    let scan_into_us = per_call_us(t.elapsed().as_secs_f64());

    let t = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(world.build_scan_plan(probe).len());
    }
    let plan_build_us = per_call_us(t.elapsed().as_secs_f64());

    let plan = world.build_scan_plan(probe);
    let mut r = ChaCha8Rng::seed_from_u64(1);
    let mut gauss = GaussianPair::new();
    let t = std::time::Instant::now();
    for _ in 0..ITERS {
        buf.clear();
        plan.sample(&mut r, &mut gauss, |e, rssi| buf.push(e.obs(rssi)));
        std::hint::black_box(buf.len());
    }
    let plan_sample_us = per_call_us(t.elapsed().as_secs_f64());

    eprintln!(
        "  world_scan ({} plan entries): alloc {scan_alloc_us:.2}us, into {scan_into_us:.2}us, \
         plan build {plan_build_us:.2}us, plan sample {plan_sample_us:.2}us",
        plan.len()
    );
    serde_json::json!({
        "iters": ITERS,
        "plan_entries": plan.len(),
        "scan_alloc_us": scan_alloc_us,
        "scan_into_us": scan_into_us,
        "plan_build_us": plan_build_us,
        "plan_sample_us": plan_sample_us,
    })
}

/// `mobitrace bench`: wall-clock each pipeline stage (simulate → ingest →
/// clean → contexts → experiments) and write the machine-readable
/// `BENCH_pipeline.json`. With `--history` the run also appends a
/// [`benchhist::BenchEntry`] to the committed JSONL trajectory; with
/// `--compare` it is gated against the last committed entry (exit 1 on
/// regression).
fn run_pipeline_bench(args: &Args) {
    use mobitrace_report::benchhist;

    let out_path = args.json.clone().unwrap_or_else(|| "BENCH_pipeline.json".into());
    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    eprintln!("pipeline bench at scale {scale} (seed {})...", args.seed);
    // Flat dotted metric map — the stable namespace (`sim.*`, `ingest.*`,
    // `analysis.<pass>.*`, `live.*`, `world_scan.*`; see `benchhist`).
    let mut metrics: std::collections::BTreeMap<String, f64> = Default::default();

    // Simulate twice — scan-plan cache off (the pre-optimisation path)
    // then on — so the JSON records the simulate-stage speedup directly.
    let t = std::time::Instant::now();
    std::hint::black_box(CampaignSet::simulate_opts(scale, args.seed, false));
    let simulate_uncached_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let set = CampaignSet::simulate_opts(scale, args.seed, true);
    let simulate_s = t.elapsed().as_secs_f64();
    let simulate_speedup = simulate_uncached_s / simulate_s.max(1e-9);
    eprintln!(
        "  simulate: cached {simulate_s:.2}s vs uncached {simulate_uncached_s:.2}s \
         ({simulate_speedup:.1}x)"
    );
    metrics.insert("sim.cached_s".into(), simulate_s);
    metrics.insert("sim.uncached_s".into(), simulate_uncached_s);
    metrics.insert("sim.speedup".into(), simulate_speedup);

    let world_scan = world_scan_breakdown();
    {
        let us = |key: &str| world_scan[key].as_f64().expect("breakdown field");
        let plan_build_us = us("plan_build_us");
        metrics.insert("world_scan.scan_alloc_us".into(), us("scan_alloc_us"));
        metrics.insert("world_scan.scan_into_us".into(), us("scan_into_us"));
        metrics.insert("world_scan.plan_build_us".into(), plan_build_us);
        metrics.insert("world_scan.plan_sample_us".into(), us("plan_sample_us"));
        // Dimensionless forms the regression gate can carry across
        // machines and scales: refill / replay cost per plan build.
        metrics
            .insert("world_scan.into_ratio".into(), us("scan_into_us") / plan_build_us.max(1e-9));
        metrics.insert(
            "world_scan.replay_ratio".into(),
            us("plan_sample_us") / plan_build_us.max(1e-9),
        );
    }

    // Contended ingest: 8 producers interleaved across devices, all
    // committing into one server. Big enough that one timed pass spans
    // many scheduler quanta (~0.4s, not ~0.04s), so lock-convoy effects
    // that accumulate per preemption show up above run-to-run noise.
    const N_DEVICES: u32 = 200;
    const PER_DEVICE: u32 = 2400;
    const THREADS: usize = 8;
    let mut records_by_slot: Vec<Vec<Record>> = (0..THREADS).map(|_| Vec::new()).collect();
    for d in 0..N_DEVICES {
        let slot = (d as usize) % THREADS;
        for k in 0..PER_DEVICE {
            records_by_slot[slot].push(bench_record(d, k));
        }
    }
    let t = std::time::Instant::now();
    let mut scratch = bytes::BytesMut::new();
    let chunks: Vec<Vec<bytes::Bytes>> = records_by_slot
        .iter()
        .map(|records| {
            records
                .iter()
                .map(|r| {
                    encode_frame_into(r, &mut scratch);
                    scratch.split().freeze()
                })
                .collect()
        })
        .collect();
    let encode_s = t.elapsed().as_secs_f64();
    let n_frames: usize = chunks.iter().map(Vec::len).sum();
    eprintln!("  encode ({n_frames} frames, shared scratch): {encode_s:.3}s");
    let timed = |server: &CollectionServer| -> f64 {
        let t = std::time::Instant::now();
        std::thread::scope(|scope| {
            for chunk in &chunks {
                scope.spawn(move || {
                    for f in chunk {
                        let _ = server.ingest(f);
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    // The first pass pays the allocator-growth and page-fault bill (the
    // dedup maps are built from cold heap), so it goes untimed; its
    // server feeds the clean step below. Then the best of five warm
    // passes is kept — min is the standard noise-floor estimator here,
    // since scheduler preemption and co-tenants only ever add time.
    let server = CollectionServer::new();
    timed(&server);
    const ROUNDS: usize = 5;
    let contended_s =
        (0..ROUNDS).map(|_| timed(&CollectionServer::new())).fold(f64::INFINITY, f64::min);
    eprintln!(
        "  ingest ({THREADS} threads, {n_frames} frames, best of {ROUNDS} warm runs): \
         {contended_s:.3}s"
    );

    // Same records as one contiguous upload buffer per producer: the
    // streaming batch path (one decode pass, one store pass per buffer).
    let streams: Vec<bytes::Bytes> = records_by_slot
        .iter()
        .map(|records| {
            let mut buf = bytes::BytesMut::new();
            encode_batch(records, &mut buf);
            buf.freeze()
        })
        .collect();
    let stream_server = CollectionServer::new();
    let t = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in &streams {
            let server = &stream_server;
            scope.spawn(move || server.ingest_stream(s.clone()));
        }
    });
    let ingest_stream_s = t.elapsed().as_secs_f64();
    eprintln!("  ingest ({THREADS} contiguous stream buffers): {ingest_stream_s:.3}s");
    metrics.insert("ingest.encode_s".into(), encode_s);
    metrics.insert("ingest.contended_s".into(), contended_s);
    metrics.insert("ingest.stream_s".into(), ingest_stream_s);

    let records = server.into_records();
    let devices: Vec<DeviceInfo> = (0..N_DEVICES)
        .map(|i| DeviceInfo {
            device: DeviceId(i),
            os: Os::Android,
            carrier: Carrier::A,
            recruited: true,
            survey: None,
            truth: None,
        })
        .collect();
    let meta = CampaignMeta {
        year: Year::Y2015,
        start: Year::Y2015.campaign_start(),
        days: 25,
        seed: args.seed,
    };
    let t = std::time::Instant::now();
    let (ds, _) = clean(meta, devices, &records, CleanOptions::default());
    let clean_s = t.elapsed().as_secs_f64();
    eprintln!("  clean: {clean_s:.3}s ({} bins)", ds.bins.len());
    metrics.insert("ingest.clean_s".into(), clean_s);

    let t = std::time::Instant::now();
    let ctxs = set.contexts();
    let context_s = t.elapsed().as_secs_f64();
    eprintln!("  contexts: {context_s:.2}s");
    metrics.insert("analysis.context_s".into(), context_s);
    // Resimulation's total cost to reach analysis-ready contexts (cached
    // sim + context build). The persistence paths below are timed to the
    // same finish line, so `pool.load_s + pool.analyze_s < sim.total_s`
    // is a like-for-like race.
    metrics.insert("sim.total_s".into(), simulate_s + context_s);

    // Persistence paths: the mmap pool vs the JSON datasets, each split
    // into load (bytes → CampaignSet) and analyze (→ contexts). The pool
    // ships the index and columns inside the file, so its analyze step
    // skips the clean/index/transpose work the other two paths repeat.
    let scratch = std::env::temp_dir().join(format!("mt-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");
    let pool_path = scratch.join("campaigns.mtpool");
    let t = std::time::Instant::now();
    set.save_pool(&pool_path).expect("save pool");
    let pool_save_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let (pool_set, views) = CampaignSet::load_pool(&pool_path).expect("load pool");
    let pool_load_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let pool_ctxs = pool_set.contexts_with(views);
    let pool_analyze_s = t.elapsed().as_secs_f64();
    for (p, m) in pool_ctxs.iter().zip(ctxs.iter()) {
        assert_eq!(p.cols, m.cols, "pool context diverged from in-memory context");
    }
    drop(pool_ctxs);
    drop(pool_set);
    let t = std::time::Instant::now();
    set.save(&scratch).expect("save json");
    let json_save_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let json_set = CampaignSet::load(&scratch).expect("load json");
    let json_load_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    std::hint::black_box(json_set.contexts());
    let json_analyze_s = t.elapsed().as_secs_f64();
    drop(json_set);
    std::fs::remove_dir_all(&scratch).ok();
    metrics.insert("pool.save_s".into(), pool_save_s);
    metrics.insert("pool.load_s".into(), pool_load_s);
    metrics.insert("pool.analyze_s".into(), pool_analyze_s);
    metrics.insert("json.save_s".into(), json_save_s);
    metrics.insert("json.load_s".into(), json_load_s);
    metrics.insert("json.analyze_s".into(), json_analyze_s);
    eprintln!(
        "  persistence to ready contexts: pool {:.2}s (load {pool_load_s:.2}s + analyze \
         {pool_analyze_s:.2}s) vs json {:.2}s vs resimulate {:.2}s",
        pool_load_s + pool_analyze_s,
        json_load_s + json_analyze_s,
        simulate_s + context_s
    );

    // Per-pass timings on the 2015 campaign: each columnar hot pass vs the
    // retained row-scan reference it is property-tested against.
    use mobitrace_core::{
        apclass, apps, availability, daily, overview, quality, ratios, timeseries,
    };
    let ds15 = set.year(Year::Y2015);
    let ctx15 = &ctxs[2];
    let cols = &ctx15.cols;
    let aps = &ctx15.aps;
    let all = ratios::ClassFilter::All;
    let t = std::time::Instant::now();
    let pass_timings: Vec<(&str, f64, f64)> = vec![
        (
            "user_days",
            time_pass(|| daily::user_days(ds15)),
            time_pass(|| daily::user_days_cols(cols)),
        ),
        (
            "apclass",
            time_pass(|| apclass::classify(ds15)),
            time_pass(|| apclass::classify_cols(ds15, cols)),
        ),
        (
            "overview",
            time_pass(|| overview::overview_rows(ds15)),
            time_pass(|| overview::overview(ds15, cols)),
        ),
        (
            "aggregate_series",
            time_pass(|| timeseries::aggregate_series_rows(ds15)),
            time_pass(|| timeseries::aggregate_series(ds15, cols)),
        ),
        (
            "venue_series",
            time_pass(|| timeseries::venue_series_rows(ds15, aps)),
            time_pass(|| timeseries::venue_series(ds15, cols, aps)),
        ),
        (
            "rssi",
            time_pass(|| quality::rssi_analysis_rows(ds15, aps)),
            time_pass(|| quality::rssi_analysis(cols, aps)),
        ),
        (
            "channels",
            time_pass(|| quality::channel_analysis_rows(ds15, aps)),
            time_pass(|| quality::channel_analysis(cols, aps)),
        ),
        (
            "public_aps",
            time_pass(|| availability::detected_public_aps_rows(ds15)),
            time_pass(|| availability::detected_public_aps(ds15, cols)),
        ),
        (
            "offload",
            time_pass(|| availability::offload_potential_rows(ds15)),
            time_pass(|| availability::offload_potential(ds15, cols)),
        ),
        (
            "wifi_traffic_ratio",
            time_pass(|| ratios::wifi_traffic_ratio_rows(ctx15, all)),
            time_pass(|| ratios::wifi_traffic_ratio(ctx15, all)),
        ),
        (
            "wifi_user_ratio",
            time_pass(|| ratios::wifi_user_ratio_rows(ctx15, all)),
            time_pass(|| ratios::wifi_user_ratio(ctx15, all)),
        ),
        (
            "app_breakdown",
            time_pass(|| apps::app_breakdown_rows(ctx15, None)),
            time_pass(|| apps::app_breakdown(ctx15, None)),
        ),
    ];
    let mut passes_map = serde_json::Map::new();
    for &(name, rows_s, cols_s) in &pass_timings {
        passes_map.insert(name.to_string(), rows_cols(rows_s, cols_s));
        metrics.insert(format!("analysis.{name}.rows_s"), rows_s);
        metrics.insert(format!("analysis.{name}.cols_s"), cols_s);
        metrics.insert(format!("analysis.{name}.ratio"), cols_s / rows_s.max(1e-12));
    }
    let passes = serde_json::Value::Object(passes_map);
    eprintln!("  per-pass rows-vs-cols timings: {:.2}s", t.elapsed().as_secs_f64());

    let t = std::time::Instant::now();
    let mut n_reports = 0usize;
    for id in all_experiment_ids() {
        if run_experiment(id, &set, &ctxs).is_some() {
            n_reports += 1;
        }
    }
    let experiments_s = t.elapsed().as_secs_f64();
    eprintln!("  experiments: {experiments_s:.2}s ({n_reports} reports)");
    metrics.insert("analysis.experiments_s".into(), experiments_s);

    // Live engine: stream a small campaign through the tap-fed incremental
    // cleaner and record its stage costs. The per-snapshot deltas are the
    // point: fold/compact time between snapshots tracks the records folded
    // since the last one, not the dataset size.
    use mobitrace_live::{run_live_campaign, LiveOptions, SnapshotMetric};
    use mobitrace_sim::CampaignConfig;
    let live_cfg = {
        let mut c = CampaignConfig::scaled(Year::Y2015, scale.min(0.05)).with_seed(args.seed);
        c.days = 3;
        c
    };
    let live_report = run_live_campaign(&live_cfg, LiveOptions::default());
    let ls = &live_report.finished.stats;
    let mut prev = SnapshotMetric {
        compactions: 0,
        bins: 0,
        folded: 0,
        batches: 0,
        fold_nanos: 0,
        compact_nanos: 0,
    };
    let live_snapshots: Vec<serde_json::Value> = live_report
        .snapshots
        .iter()
        .map(|s| {
            let v = serde_json::json!({
                "bins": s.bins,
                "folded_delta": s.folded - prev.folded,
                "fold_ms_delta": (s.fold_nanos - prev.fold_nanos) as f64 / 1e6,
                "compact_ms_delta": (s.compact_nanos - prev.compact_nanos) as f64 / 1e6,
            });
            prev = *s;
            v
        })
        .collect();
    let live = serde_json::json!({
        "records": ls.records_seen,
        "batches": ls.batches,
        "compactions": ls.compactions,
        "fold_s": ls.fold_nanos as f64 / 1e9,
        "compact_s": ls.compact_nanos as f64 / 1e9,
        "converged": live_report.converged(),
        "wall_s": live_report.wall_s,
        "snapshots": live_snapshots,
    });
    metrics.insert("live.fold_s".into(), ls.fold_nanos as f64 / 1e9);
    metrics.insert("live.compact_s".into(), ls.compact_nanos as f64 / 1e9);
    metrics.insert("live.wall_s".into(), live_report.wall_s);
    eprintln!(
        "  live engine: {} records in {} batches, fold {:.3}s, compact {:.3}s \
         over {} compactions (converged: {})",
        ls.records_seen,
        ls.batches,
        ls.fold_nanos as f64 / 1e9,
        ls.compact_nanos as f64 / 1e9,
        ls.compactions,
        live_report.converged()
    );

    // Scan-plan reuse in a real device loop (the micro timings above
    // replay one plan; this is the campaign-wide rate). Revisits are
    // usually absorbed by each device's plan-local cache before they ever
    // reach the shared cache — counting shared hits alone reported a 0.0
    // rate while the cache was doing its job — so the effective rate is
    // (local + shared hits) over all plan lookups.
    let (plan_hits, plan_misses) = (live_report.raw.plan_hits, live_report.raw.plan_misses);
    let plan_local_hits = live_report.raw.net.plan_local_hits;
    let plan_lookups = plan_local_hits + plan_hits + plan_misses;
    let plan_hit_rate = (plan_local_hits + plan_hits) as f64 / (plan_lookups as f64).max(1.0);
    metrics.insert("world_scan.plan_cache.hit_rate".into(), plan_hit_rate);
    eprintln!(
        "  scan-plan cache: {plan_local_hits} local + {plan_hits} shared hits / \
         {plan_misses} misses ({:.1}% reuse)",
        plan_hit_rate * 100.0
    );

    // Serve layer: the `mobitrace serve --live` hot loop — a registered
    // query set re-evaluated against every published snapshot generation.
    // `serve.snapshot_eval_s` is the median cost of refreshing the whole
    // set against one generation; the p50/p99 are per-query refresh
    // latencies across the run (selection + gather + index rebuild +
    // analysis passes for filtered queries, context rebuild for the
    // unfiltered one).
    {
        use mobitrace_core::stats::percentile;
        use mobitrace_live::run_live_campaign_observed;
        use mobitrace_query::{watermark_minute, CompileOptions, Query, QuerySet};
        use std::sync::{Arc, Mutex};

        let qset = QuerySet {
            queries: vec![
                Query::unfiltered("all"),
                Query::parse("home", "venue=home").expect("static expression"),
                Query::parse("android-late", "os=android && day>=1").expect("static expression"),
            ],
            opts: CompileOptions::default(),
        };
        let n_queries = qset.queries.len();
        // (per-generation full-set seconds, per-query seconds)
        let tally: Arc<Mutex<(Vec<f64>, Vec<f64>)>> = Arc::default();
        let observer = {
            let tally = Arc::clone(&tally);
            Box::new(
                move |snap: &std::sync::Arc<mobitrace_model::LiveSnapshot>,
                      stats: &mobitrace_live::LiveStats| {
                    let t = std::time::Instant::now();
                    let recs = qset.evaluate(
                        &snap.ds,
                        &snap.index,
                        &snap.cols,
                        stats.compactions,
                        watermark_minute(&snap.cols),
                    );
                    let full_s = t.elapsed().as_secs_f64();
                    let mut lock = tally.lock().expect("serve bench tally");
                    lock.0.push(full_s);
                    lock.1.extend(recs.iter().map(|r| r.elapsed_s));
                },
            )
        };
        let serve_report = run_live_campaign_observed(&live_cfg, LiveOptions::default(), observer);
        assert!(serve_report.converged(), "serve bench campaign diverged");
        let (mut snapshot_evals, per_query) =
            std::mem::take(&mut *tally.lock().expect("serve bench tally"));
        snapshot_evals.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let snapshot_eval_s = mobitrace_core::stats::percentile_sorted(&snapshot_evals, 50.0);
        let refresh_p50_s = percentile(&per_query, 50.0);
        let refresh_p99_s = percentile(&per_query, 99.0);
        metrics.insert("serve.snapshot_eval_s".into(), snapshot_eval_s);
        metrics.insert("serve.query_refresh_p50_s".into(), refresh_p50_s);
        metrics.insert("serve.query_refresh_p99_s".into(), refresh_p99_s);
        eprintln!(
            "  serve: {n_queries} queries over {} generations, median set refresh \
             {:.2}ms, per-query p50 {:.2}ms p99 {:.2}ms",
            snapshot_evals.len(),
            snapshot_eval_s * 1e3,
            refresh_p50_s * 1e3,
            refresh_p99_s * 1e3
        );
    }

    // `metrics` is the canonical (and only) namespace: flat dotted keys
    // (`sim.*`, `ingest.*`, `analysis.<pass>.*`, `live.*`, `world_scan.*`,
    // `pool.*`, `json.*`; see `benchhist`). The nested per-stage aliases
    // PR 6 kept "for one release" are gone. Two structured extras that
    // have no scalar form survive outside `metrics`: the per-snapshot
    // live deltas and the per-pass rows/cols table.
    let metric_map: serde_json::Map =
        metrics.iter().map(|(k, &v)| (k.clone(), serde_json::json!(v))).collect();
    let doc = serde_json::json!({
        "scale": scale,
        "seed": args.seed,
        "quick": args.quick,
        "metrics": serde_json::Value::Object(metric_map),
        "passes": passes,
        "live_snapshots": live["snapshots"],
        "experiments": n_reports,
    });
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = benchhist::BenchEntry {
        git_sha: benchhist::git_head_sha(),
        timestamp: benchhist::utc_timestamp(unix_secs),
        label: args.label.clone().unwrap_or_else(|| "bench".into()),
        scale,
        seed: args.seed,
        quick: args.quick,
        metrics,
    };

    if let Some(baseline_path) = &args.compare {
        let history = match benchhist::load_history(std::path::Path::new(baseline_path)) {
            Ok(h) if !h.is_empty() => h,
            Ok(_) => {
                eprintln!("error: baseline {baseline_path} has no entries");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        // Lookback, not `last()`: fleet entries and bench entries share
        // one history file but carry different key subsets, so the
        // baseline for each key is the newest entry that has it.
        let baseline = benchhist::lookback_baseline(&history).expect("non-empty");
        let report = benchhist::compare(&baseline, &entry, args.tolerance);
        eprint!("{report}");
        if report.regressed() {
            eprintln!(
                "regression gate FAILED. If this perf change is intentional, append a \
                 fresh entry with `mobitrace bench --history {baseline_path} --label <why>` \
                 and commit the updated history."
            );
            std::process::exit(1);
        }
        eprintln!("regression gate passed");
    }

    if let Some(history_path) = &args.history {
        if let Err(e) = benchhist::append_history(std::path::Path::new(history_path), &entry) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        eprintln!("appended entry '{}' ({}) to {history_path}", entry.label, entry.git_sha);
    }
}

/// `mobitrace fleet`: drive the thread-per-core fleet ingest frontend at
/// fleet scale — pinned decode/commit workers fronting per-cohort
/// collection servers, synthetic device agents producing against the
/// admission controller — and report sustained throughput, enqueue→commit
/// latency quantiles and every admission outcome. Metrics merge into
/// `BENCH_pipeline.json` next to any existing bench document, and the
/// `--compare`/`--history` gate works exactly as for `bench` (the
/// lookback baseline composes fleet-only and bench-only entries). Exits
/// non-zero if the per-record accounting fails to reconcile.
fn run_fleet_cmd(args: &Args) {
    use mobitrace_fleet::{ingest::resolve_workers, try_run_fleet, FaultSpec, FleetRunConfig};
    use mobitrace_report::benchhist;

    let devices = if args.quick { args.devices.min(50_000) } else { args.devices };
    let duration_s = if args.quick { args.duration.min(2.0) } else { args.duration };
    // `--resume DIR` restarts from DIR's checkpoints and (unless
    // `--checkpoint` redirects it) keeps checkpointing into the same
    // directory; `--faults` needs *some* checkpoint traffic for its pool
    // faults to have I/O to fail, so it defaults to a scratch directory.
    let mut checkpoint_dir: Option<std::path::PathBuf> =
        args.checkpoint.clone().or_else(|| args.resume.clone()).map(std::path::PathBuf::from);
    if args.faults && checkpoint_dir.is_none() {
        checkpoint_dir =
            Some(std::env::temp_dir().join(format!("mobitrace-faults-{}", std::process::id())));
    }
    if let Some(dir) = &args.resume {
        let has_checkpoints = std::fs::read_dir(dir)
            .map(|entries| {
                entries.flatten().any(|e| {
                    e.file_name().to_string_lossy().ends_with(".mtpool")
                        && e.file_name().to_string_lossy().starts_with("cohort-")
                })
            })
            .unwrap_or(false);
        if !has_checkpoints {
            eprintln!("error: --resume {dir}: no cohort-*.mtpool checkpoint files found");
            std::process::exit(1);
        }
    }
    let faults = args
        .faults
        .then(|| FaultSpec::seeded(args.seed, resolve_workers(args.workers), args.cohorts));
    let cfg = FleetRunConfig {
        devices,
        cohorts: args.cohorts,
        workers: args.workers,
        duration_s,
        chaos: args.chaos,
        seed: args.seed,
        rate_per_cohort: args.rate,
        faults,
        checkpoint_dir,
        checkpoint_every_batches: if args.faults { 16 } else { 64 },
        resume: args.resume.is_some(),
        ..FleetRunConfig::default()
    };
    eprintln!(
        "fleet ingest: {} devices over {} cohorts, {:.1}s sustained{}{}{}{} (seed {})...",
        cfg.devices,
        cfg.cohorts,
        cfg.duration_s,
        if cfg.workers == 0 { String::new() } else { format!(", {} workers", cfg.workers) },
        if cfg.chaos { ", chaos on" } else { "" },
        if args.faults { ", fault injection on" } else { "" },
        if cfg.resume { ", resuming" } else { "" },
        cfg.seed,
    );
    let report = match try_run_fleet(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: fleet run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "fleet: {:.0} records/s sustained over {:.2}s ({} committed / {} made; \
         {} workers, {} producers, {} rounds)",
        report.records_per_s,
        report.elapsed_s,
        report.committed,
        report.records_made,
        report.workers,
        report.producers,
        report.rounds
    );
    println!(
        "  enqueue→commit latency: p50 {:.3}ms, p99 {:.3}ms",
        report.enqueue_commit_p50_s * 1e3,
        report.enqueue_commit_p99_s * 1e3
    );
    println!(
        "  admission: {} shed, {} backpressure signals, {} server rejects, {} backoff skips",
        report.shed_records,
        report.backpressure_signals,
        report.server_rejects,
        report.backoff_skips
    );
    println!(
        "  accounting: {} duplicates, {} lost to crashes ({} crashes), {} agent-dropped, \
         {} pending",
        report.duplicates, report.lost_crash, report.crashes, report.agent_dropped, report.pending
    );
    println!(
        "  supervision: {} restarts, {} lost to worker deaths, {} degraded workers, \
         {} checkpoints ({} failed), {} records resumed",
        report.restarts,
        report.lost_worker,
        report.degraded_workers,
        report.checkpoints,
        report.checkpoint_failures,
        report.resumed_records
    );
    if let Some(fired) = &report.fault_stats {
        println!(
            "  faults fired: {} worker kills, {} server crashes ({} recoveries), \
             {} pool I/O faults",
            fired.kills_fired, fired.crashes_fired, fired.recoveries_fired, fired.pool_faults_fired
        );
    }
    for failure in &report.failures {
        eprintln!("  failure: {failure}");
    }

    let mut metrics: std::collections::BTreeMap<String, f64> = Default::default();
    metrics.insert("fleet.records_per_s".into(), report.records_per_s);
    metrics.insert("fleet.enqueue_commit_p50_s".into(), report.enqueue_commit_p50_s);
    metrics.insert("fleet.enqueue_commit_p99_s".into(), report.enqueue_commit_p99_s);
    metrics.insert("fleet.records_made".into(), report.records_made as f64);
    metrics.insert("fleet.committed".into(), report.committed as f64);
    metrics.insert("fleet.duplicates".into(), report.duplicates as f64);
    metrics.insert("fleet.shed_records".into(), report.shed_records as f64);
    metrics.insert("fleet.lost_crash".into(), report.lost_crash as f64);
    metrics.insert("fleet.agent_dropped".into(), report.agent_dropped as f64);
    metrics.insert("fleet.backpressure_signals".into(), report.backpressure_signals as f64);
    metrics.insert("fleet.server_rejects".into(), report.server_rejects as f64);
    metrics.insert("fleet.backoff_skips".into(), report.backoff_skips as f64);
    metrics.insert("fleet.crashes".into(), report.crashes as f64);
    metrics.insert("fleet.lost_worker".into(), report.lost_worker as f64);
    metrics.insert("fleet.restarts".into(), report.restarts as f64);
    metrics.insert("fleet.checkpoints".into(), report.checkpoints as f64);
    metrics.insert("fleet.checkpoint_failures".into(), report.checkpoint_failures as f64);
    metrics.insert("fleet.devices".into(), report.devices as f64);
    metrics.insert("fleet.rounds".into(), report.rounds as f64);
    metrics.insert("fleet.elapsed_s".into(), report.elapsed_s);

    // Merge into the bench document rather than clobbering it: `bench`
    // and `fleet` share one metrics namespace, and the history gate's
    // lookback baseline composes entries carrying different key subsets.
    let out_path = args.json.clone().unwrap_or_else(|| "BENCH_pipeline.json".into());
    let mut doc = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .filter(|v| matches!(v, serde_json::Value::Object(_)))
        .unwrap_or_else(|| serde_json::json!({ "seed": args.seed, "quick": args.quick }));
    {
        let slot = &mut doc["metrics"];
        if !matches!(slot, serde_json::Value::Object(_)) {
            *slot = serde_json::Value::Object(Default::default());
        }
        if let serde_json::Value::Object(map) = slot {
            for (k, &v) in &metrics {
                map.insert(k.clone(), serde_json::json!(v));
            }
        }
    }
    doc["fleet"] = serde_json::json!({
        "devices": report.devices,
        "cohorts": report.cohorts,
        "workers": report.workers,
        "producers": report.producers,
        "rounds": report.rounds,
        "chaos": args.chaos,
        "faults": args.faults,
        "resumed": args.resume.is_some(),
        "reconciles": report.reconciles(),
        "healthy": report.healthy(),
    });
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = benchhist::BenchEntry {
        git_sha: benchhist::git_head_sha(),
        timestamp: benchhist::utc_timestamp(unix_secs),
        label: args.label.clone().unwrap_or_else(|| "fleet".into()),
        scale: args.scale,
        seed: args.seed,
        quick: args.quick,
        metrics,
    };

    if let Some(baseline_path) = &args.compare {
        let history = match benchhist::load_history(std::path::Path::new(baseline_path)) {
            Ok(h) if !h.is_empty() => h,
            Ok(_) => {
                eprintln!("error: baseline {baseline_path} has no entries");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let baseline = benchhist::lookback_baseline(&history).expect("non-empty");
        let gate = benchhist::compare(&baseline, &entry, args.tolerance);
        eprint!("{gate}");
        if gate.regressed() {
            eprintln!(
                "regression gate FAILED. If this perf change is intentional, append a \
                 fresh entry with `mobitrace fleet --history {baseline_path} --label <why>` \
                 and commit the updated history."
            );
            std::process::exit(1);
        }
        eprintln!("regression gate passed");
    }

    if let Some(history_path) = &args.history {
        if let Err(e) = benchhist::append_history(std::path::Path::new(history_path), &entry) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        eprintln!("appended entry '{}' ({}) to {history_path}", entry.label, entry.git_sha);
    }

    if !report.reconciles() {
        eprintln!(
            "error: fleet accounting does not reconcile: {} records made but {} accounted \
             (committed + duplicates + shed + lost_crash + lost_worker + pending + \
             agent_dropped)",
            report.records_made,
            report.accounted()
        );
        std::process::exit(1);
    }
    if !report.healthy() {
        eprintln!("error: fleet run is unhealthy ({} failures above)", report.failures.len());
        std::process::exit(1);
    }
    if args.faults {
        // The seeded schedule guarantees this floor; a run that did not
        // fire it proves nothing about self-healing.
        let fired = report.fault_stats.as_ref().expect("--faults armed an injector");
        if fired.kills_fired < 2 || fired.pool_faults_fired < 1 {
            eprintln!(
                "error: fault schedule underfired ({} kills, {} pool faults): the run \
                 ended before the seeded faults landed — raise --duration",
                fired.kills_fired, fired.pool_faults_fired
            );
            std::process::exit(1);
        }
    }
}
