//! The `mobitrace` CLI: simulate the campaigns and reproduce the paper's
//! tables and figures.
//!
//! ```text
//! mobitrace list
//! mobitrace run <id>... [--scale S] [--seed N]
//! mobitrace all [--scale S] [--seed N] [--json PATH]
//! mobitrace pool export --out FILE.mtpool [--scale S] [--seed N] [--where EXPR]...
//! mobitrace pool analyze --data FILE.mtpool [<id>...]
//! mobitrace pool verify --data FILE.mtpool
//! mobitrace bench [--quick] [--scale S] [--seed N] [--json PATH]
//!                 [--compare HIST.jsonl] [--history HIST.jsonl] [--label NAME]
//! mobitrace chaos [--quick] [--scale S] [--seed N]
//! mobitrace live [--quick] [--chaos] [--scale S] [--seed N]
//! mobitrace fleet [--devices N[k|M]] [--cohorts K] [--duration S] [--chaos]
//!                 [--faults] [--checkpoint DIR] [--resume DIR]
//! mobitrace serve [--live | --data FILE.mtpool]
//!                 [--where EXPR]... [--json PATH | --listen ADDR]
//!                 [--interval S] [--duration S] [--min-generations N]
//! ```
//!
//! Campaigns persist only as `.mtpool` files: `pool export` writes one and
//! `pool analyze` serves the experiments from it.

use mobitrace_model::{SimTime, Year};
use mobitrace_report::{all_experiment_ids, benchhist, run_experiment, CampaignSet};
use std::borrow::Cow;
use std::collections::BTreeMap;
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
                out.data = Some(args.next().ok_or("--data needs a .mtpool path")?);
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
    // Zero is a single pass: `serve --data` polls the pool once, `fleet`
    // runs one producer round.
    if !(out.duration >= 0.0 && out.duration.is_finite()) {
        return Err(format!("--duration {} must be non-negative seconds", out.duration));
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
        "help" | "--help" | "-h" => print_usage(),
        other => {
            eprintln!("error: unknown command '{other}' (see `mobitrace help`)");
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    println!(
        "mobitrace — reproduce 'Tracking the Evolution and Diversity in Network \
         Usage of Smartphones' (IMC'15)\n\n\
         usage:\n  mobitrace list\n  mobitrace run <id>... [--scale S] [--seed N]\n  \
         mobitrace all [--scale S] [--seed N] [--json PATH]\n  \
         mobitrace pool export --out FILE.mtpool [--scale S] [--seed N]\n          \
         [--where EXPR]...\n  \
         mobitrace pool analyze --data FILE.mtpool [<id>...]\n  \
         mobitrace pool verify --data FILE.mtpool\n  \
         mobitrace bench [--quick] [--scale S] [--seed N] [--json PATH]\n          \
         [--compare BASELINE.jsonl] [--tolerance X] [--history HIST.jsonl]\n          \
         [--label NAME]\n  \
         mobitrace chaos [--quick] [--scale S] [--seed N]\n  \
         mobitrace live [--quick] [--chaos] [--scale S] [--seed N]\n  \
         mobitrace fleet [--devices N[k|M]] [--cohorts K] [--duration S]\n          \
         [--workers W] [--rate R/s] [--chaos] [--faults] [--quick]\n          \
         [--checkpoint DIR] [--resume DIR] [--json PATH]\n          \
         [--compare HIST.jsonl] [--history HIST.jsonl] [--label NAME]\n  \
         mobitrace serve [--live | --data FILE.mtpool]\n          \
         [--where EXPR]... [--json PATH | --listen ADDR]\n          \
         [--interval S] [--duration S] [--min-generations N]\n\n\
         scale 1.0 = the paper's full populations (~1600-1755 users/campaign);\n\
         the default 0.15 reproduces every trend in a few seconds.\n\
         `pool` works with the single-file mmap `.mtpool` format, the one\n\
         persisted form of a campaign set: `export` simulates and writes one,\n\
         `analyze` serves experiments zero-copy from it, `verify` checks\n\
         every segment checksum;\n\
         `bench` times what its regression gate tracks (columnar kernels vs\n\
         their row references, scan-plan replay and reuse, serve refresh\n\
         latency) and writes BENCH_pipeline.json;\n\
         `bench --compare B.jsonl` gates tracked metrics against the\n\
         committed history (exit 1 on regression or a missing metric) and\n\
         `bench --history H.jsonl` appends this run as a new entry;\n\
         `chaos` proves fault convergence (crash + recovery included) and\n\
         reports what a chaos-scheduled campaign did to the upload stream;\n\
         `live` streams a campaign through the incremental analysis engine\n\
         and asserts bit-identity with the batch pipeline (exit 1 on\n\
         divergence; `--chaos` layers a chaos schedule on top);\n\
         `fleet` drives the thread-per-core ingest frontend at fleet\n\
         scale (`--devices 1M`), reporting sustained records/s, p50/p99\n\
         enqueue-to-commit latency and shed/backoff counts into its own\n\
         BENCH_pipeline.json, gated like `bench` by `--compare`\n\
         (`--faults` injects a seeded schedule of worker kills, server\n\
         crashes and pool I/O failures and requires the run to self-heal;\n\
         `--checkpoint DIR` checkpoints cohorts periodically and\n\
         `--resume DIR` restarts from those checkpoints);\n\
         `serve` registers filter queries (`--where \"venue=home && day>=1\"`)\n\
         and re-evaluates them against every snapshot generation of a\n\
         running live campaign (`--live`), a growing `.mtpool` file\n\
         (`--data FILE.mtpool`, polled every `--interval` seconds for\n\
         `--duration`; `--duration 0` polls once), or a one-shot fresh\n\
         simulation, streaming one JSONL record per (query, generation) to\n\
         stdout, `--json PATH`, or a `--listen` TCP/unix socket;\n\
         `--quick` caps the scale at 0.02 (and `fleet` at 50k devices)\n\
         for CI smoke runs."
    );
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

/// A live snapshot's analysis context derived from scratch, from a fresh
/// index over its columns: the cross-check for a context served from the
/// snapshot's prebuilt index.
fn fresh_context(snap: &mobitrace_model::LiveSnapshot) -> mobitrace_core::AnalysisContext<'_> {
    let index = mobitrace_model::DatasetIndex::build_cols(&snap.cols, snap.ds.devices.len());
    mobitrace_core::AnalysisContext::from_cow_parts(
        &snap.ds,
        Cow::Owned(index),
        Cow::Borrowed(&snap.cols),
    )
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
        stats.clean.records_in,
        stats.late_dropped,
        stats.dup_dropped,
        stats.batches,
        stats.replay_batches
    );
    println!(
        "clean (live): {} bins, {} tethering removed, {} update-day removed, \
         {} reboots, {} gaps ({} records missing)",
        stats.clean.bins_out,
        stats.clean.tethering_removed,
        stats.clean.update_days_removed,
        stats.clean.reboots,
        stats.clean.gaps,
        stats.clean.missing_records
    );
    println!(
        "tap: {} records published, {} past the 64-batch backlog",
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
    );
    let batch_ctx = fresh_context(snap);
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
        snap.len(),
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
            match PoolReader::open(std::path::Path::new(&path)) {
                Ok(r) => print_pool_sizes(&r, bytes),
                Err(e) => {
                    eprintln!("error: cannot reopen pool {path}: {e}");
                    std::process::exit(1);
                }
            }
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
                        "{path}: OK — {} segments, {} dataset streams, {} bytes ({})",
                        rep.segments,
                        rep.datasets,
                        rep.bytes,
                        if rep.mapped { "mmap" } else { "heap" }
                    );
                    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    print_pool_sizes(&reader, file_bytes);
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

/// Print a pool's size per bin — the whole file and each segment kind's
/// payload — where bins are the rows of every dataset stream. The first
/// line ends in `= <x> B/bin`, which the CI size gate reads.
fn print_pool_sizes(reader: &mobitrace_pool::PoolReader, file_bytes: u64) {
    use mobitrace_pool::kind;
    let segs = reader.segments();
    let bins: u64 = segs.iter().filter(|s| s.kind == kind::COUNTERS).map(|s| s.rows).sum();
    let per_bin = |b: u64| b as f64 / bins.max(1) as f64;
    println!("size: {file_bytes} bytes over {bins} bins = {:.2} B/bin", per_bin(file_bytes));
    let mut by_kind: std::collections::BTreeMap<u16, u64> = Default::default();
    for s in segs {
        *by_kind.entry(s.kind).or_default() += s.len;
    }
    for (k, b) in by_kind {
        println!("  {:<9} {b:>11} bytes  {:>6.2} B/bin", kind::name(k), per_bin(b));
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
    /// The records of the latest evaluation — what was last streamed.
    last: Vec<mobitrace_query::ServeRecord>,
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
/// file another process rewrites (`--data FILE.mtpool`, re-opened every
/// `--interval` seconds until `--duration` elapses), or
/// a one-shot fresh simulation. Every (query, generation) evaluation
/// streams one JSONL [`ServeRecord`]. A `--data` value that is not a
/// `.mtpool` path exits 2 before any work starts.
///
/// The live source ends with the same convergence gates as `mobitrace
/// live`, plus a serve-specific one: the unfiltered query's payload as
/// streamed for the finished snapshot must be bit-identical to the batch
/// pipeline's payload over the same records (exit 1 otherwise).
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
    if let Some(data) = args.data.as_deref().filter(|d| !d.ends_with(".mtpool")) {
        eprintln!(
            "error: serve --data {data}: expected a .mtpool file \
             (write one with `mobitrace pool export --out FILE.mtpool`)"
        );
        std::process::exit(2);
    }
    let sink = open_serve_sink(args);

    if args.live {
        serve_live(args, set, sink);
    } else if let Some(path) = &args.data {
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
            emit_records(&sink, &recs);
            let mut t = tally.lock().expect("serve tally lock");
            t.generations.push(stats.compactions);
            t.latencies.extend(recs.iter().map(|r| r.elapsed_s));
            t.last = recs;
        })
    };
    let report = run_live_campaign_observed(&cfg, LiveOptions::default(), observer);

    if let Some(why) = &report.divergence {
        eprintln!("error: live snapshot diverged from the batch pipeline: {why}");
        std::process::exit(1);
    }
    // The serve gate proper: the observer's last call was on the finished
    // snapshot, so the unfiltered record it streamed then must carry the
    // batch pipeline's payload over the same dataset.
    let snap = &report.finished.snapshot;
    let t = tally.lock().expect("serve tally lock");
    let served = t.last.iter().find(|r| r.filter.is_empty()).map(|r| &r.metrics);
    if served != Some(&evaluate_payload(&fresh_context(snap))) {
        eprintln!("error: final unfiltered query payload diverged from the batch pipeline");
        std::process::exit(1);
    }
    finish_serve(&t, set.queries.len(), args.min_generations);
    eprintln!(
        "serve: converged — final unfiltered payload bit-identical to batch \
         ({} bins, {} compactions) in {:.1}s",
        snap.len(),
        report.finished.stats.compactions,
        report.wall_s
    );
}

/// Pool source: follow a `.mtpool` file another process rewrites, such as
/// `mobitrace pool export` onto the same path. Every `--interval` seconds
/// the file is re-opened; when its segment directory (every segment
/// descriptor, content hash included) differs from the last one
/// evaluated, its newest dataset stream is decoded and evaluated.
/// Generations are numbered 1, 2, ... in evaluation order. Fleet
/// checkpoints hold only RAW records, no dataset stream, so they have
/// nothing to serve.
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
    let mut last_dir = None;
    let mut last_error = String::new();
    loop {
        // Reopen rather than cache the reader: a writer replaces the file
        // by atomic rename, and open is one mmap + header probe. Open
        // failures are expected while the writer is first creating the
        // file, so they only warn (once per distinct cause).
        match PoolReader::open(path) {
            Ok(r) => {
                let dir = Some(r.segments().to_vec());
                if dir != last_dir {
                    if let Some(&stream) = r.dataset_streams().last() {
                        let pd = r.decode_dataset(stream).unwrap_or_else(|e| {
                            eprintln!("error: pool {} failed to decode: {e}", path.display());
                            std::process::exit(1);
                        });
                        let generation = tally.generations.len() as u64 + 1;
                        let recs = set.evaluate(
                            &pd.ds,
                            &pd.index,
                            &pd.ds.bins,
                            generation,
                            watermark_minute(&pd.ds.bins),
                        );
                        tally.generations.push(generation);
                        tally.latencies.extend(recs.iter().map(|r| r.elapsed_s));
                        emit_records(&sink, &recs);
                    }
                    last_dir = dir;
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

/// Batch source: simulate the campaign set and evaluate the query set once
/// per campaign year, generation = campaign year. No cadence — this is the
/// one-shot shape for piping query results into scripts.
fn serve_batch(args: &Args, set: mobitrace_query::QuerySet, sink: ServeSink) {
    use mobitrace_model::DatasetIndex;
    use mobitrace_query::watermark_minute;

    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    eprintln!("serve: one-shot batch, simulating at scale {scale} (seed {})...", args.seed);
    let campaigns = CampaignSet::simulate(scale, args.seed);
    let mut tally = ServeTally::default();
    for (ds, year) in campaigns.years.iter().zip([2013u64, 2014, 2015]) {
        let index = DatasetIndex::build(ds);
        let recs = set.evaluate(ds, &index, &ds.bins, year, watermark_minute(&ds.bins));
        tally.generations.push(year);
        tally.latencies.extend(recs.iter().map(|r| r.elapsed_s));
        emit_records(&sink, &recs);
    }
    finish_serve(&tally, set.queries.len(), args.min_generations);
}

/// Median-of-9 wall clock for one timed pass (an analysis pass or a
/// `world_scan` loop). The median (rather than the best) is what the
/// committed bench history records, so one lucky cache-hot run cannot mask
/// a real regression and one noisy run cannot fake one.
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

/// Micro-breakdown of the `ApWorld::scan` hot path on a small fixed world
/// (same shape as the criterion `world` group): buffer-reusing scan vs
/// plan construction vs plan replay, in µs/call (each the median of nine
/// 4000-call loops, see [`time_pass`]), plus the two gated ratios —
/// refill and replay cost per plan build.
fn world_scan_breakdown(metrics: &mut BTreeMap<String, f64>) {
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
    let mut buf = Vec::new();
    let scan_into_us = per_call_us(time_pass(|| {
        for _ in 0..ITERS {
            world.scan_into(probe, &mut r, &mut buf);
            std::hint::black_box(buf.len());
        }
    }));

    let plan_build_us = per_call_us(time_pass(|| {
        for _ in 0..ITERS {
            std::hint::black_box(world.build_scan_plan(probe).len());
        }
    }));

    let plan = world.build_scan_plan(probe);
    let mut r = ChaCha8Rng::seed_from_u64(1);
    let mut gauss = GaussianPair::new();
    let plan_sample_us = per_call_us(time_pass(|| {
        for _ in 0..ITERS {
            buf.clear();
            plan.sample(&mut r, &mut gauss, |e, rssi| buf.push(e.obs(rssi)));
            std::hint::black_box(buf.len());
        }
    }));

    eprintln!(
        "  world_scan ({} plan entries): into {scan_into_us:.2}us, \
         plan build {plan_build_us:.2}us, plan sample {plan_sample_us:.2}us",
        plan.len()
    );
    metrics.insert("world_scan.scan_into_us".into(), scan_into_us);
    metrics.insert("world_scan.plan_build_us".into(), plan_build_us);
    metrics.insert("world_scan.plan_sample_us".into(), plan_sample_us);
    // Dimensionless forms the regression gate can carry across machines
    // and scales.
    metrics.insert("world_scan.into_ratio".into(), scan_into_us / plan_build_us.max(1e-9));
    metrics.insert("world_scan.replay_ratio".into(), plan_sample_us / plan_build_us.max(1e-9));
}

/// `mobitrace bench`: measure what the regression gate tracks
/// ([`benchhist::TRACKED`] and [`benchhist::TRACKED_FLOOR`], fleet keys
/// aside) plus the raw timings its ratios come from, and write them to
/// `BENCH_pipeline.json`; `--compare`/`--history` then gate and record the
/// run ([`benchhist::gate`]).
fn run_pipeline_bench(args: &Args) {
    use mobitrace_core::stats::percentile;
    use mobitrace_core::{
        apclass, availability, daily, overview, quality, timeseries, AnalysisContext,
    };
    use mobitrace_live::{run_live_campaign_observed, LiveOptions};
    use mobitrace_query::{watermark_minute, CompileOptions, Query, QuerySet};
    use mobitrace_sim::CampaignConfig;
    use std::sync::{Arc, Mutex};

    let out_path = args.json.clone().unwrap_or_else(|| "BENCH_pipeline.json".into());
    let scale = if args.quick { args.scale.min(0.02) } else { args.scale };
    eprintln!("pipeline bench at scale {scale} (seed {})...", args.seed);
    // Flat dotted metric map — the stable namespace (see `benchhist`).
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();

    let set = CampaignSet::simulate(scale, args.seed);
    world_scan_breakdown(&mut metrics);

    // Per-pass timings on the 2015 campaign: each gated columnar kernel vs
    // the retained row-scan reference it is property-tested against. The
    // references' rows are materialised once, outside the timed loops.
    let ds15 = set.year(Year::Y2015);
    let rows15 = &ds15.bins.to_bins();
    let ctx15 = AnalysisContext::new(ds15);
    let (cols, aps) = (&ctx15.cols, &ctx15.aps);
    let t = std::time::Instant::now();
    let passes = [
        (
            "user_days",
            time_pass(|| daily::user_days(rows15)),
            time_pass(|| daily::user_days_cols(cols)),
        ),
        (
            "apclass",
            time_pass(|| apclass::classify_rows(ds15, rows15)),
            time_pass(|| apclass::classify_cols(ds15, cols)),
        ),
        (
            "overview",
            time_pass(|| overview::overview_rows(ds15, rows15)),
            time_pass(|| overview::overview(ds15, cols)),
        ),
        (
            "aggregate_series",
            time_pass(|| timeseries::aggregate_series_rows(ds15, rows15)),
            time_pass(|| timeseries::aggregate_series(ds15, cols)),
        ),
        (
            "venue_series",
            time_pass(|| timeseries::venue_series_rows(ds15, rows15, aps)),
            time_pass(|| timeseries::venue_series(ds15, cols, aps)),
        ),
        (
            "rssi",
            time_pass(|| quality::rssi_analysis_rows(rows15, aps)),
            time_pass(|| quality::rssi_analysis(cols, aps)),
        ),
        (
            "channels",
            time_pass(|| quality::channel_analysis_rows(rows15, aps)),
            time_pass(|| quality::channel_analysis(cols, aps)),
        ),
        (
            "public_aps",
            time_pass(|| availability::detected_public_aps_rows(ds15, rows15)),
            time_pass(|| availability::detected_public_aps(ds15, cols)),
        ),
        (
            "offload",
            time_pass(|| availability::offload_potential_rows(rows15)),
            time_pass(|| availability::offload_potential(ds15, cols)),
        ),
    ];
    for (name, rows_s, cols_s) in passes {
        metrics.insert(format!("analysis.{name}.rows_s"), rows_s);
        metrics.insert(format!("analysis.{name}.cols_s"), cols_s);
        metrics.insert(format!("analysis.{name}.ratio"), cols_s / rows_s.max(1e-12));
    }
    eprintln!("  per-pass rows-vs-cols timings: {:.2}s", t.elapsed().as_secs_f64());

    // Serve layer: the `mobitrace serve --live` hot loop — a registered
    // query set re-evaluated against every snapshot generation a live
    // campaign publishes. The p99 is over per-query refresh latencies.
    let live_cfg = {
        let mut c = CampaignConfig::scaled(Year::Y2015, scale.min(0.05)).with_seed(args.seed);
        c.days = 3;
        c
    };
    let qset = QuerySet {
        queries: vec![
            Query::unfiltered("all"),
            Query::parse("home", "venue=home").expect("static expression"),
            Query::parse("android-late", "os=android && day>=1").expect("static expression"),
        ],
        opts: CompileOptions::default(),
    };
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::default();
    let observer = {
        let latencies = Arc::clone(&latencies);
        Box::new(
            move |snap: &Arc<mobitrace_model::LiveSnapshot>, stats: &mobitrace_live::LiveStats| {
                let recs = qset.evaluate(
                    &snap.ds,
                    &snap.index,
                    &snap.cols,
                    stats.compactions,
                    watermark_minute(&snap.cols),
                );
                latencies
                    .lock()
                    .expect("serve bench tally")
                    .extend(recs.iter().map(|r| r.elapsed_s));
            },
        )
    };
    let report = run_live_campaign_observed(&live_cfg, LiveOptions::default(), observer);
    assert!(report.converged(), "serve bench campaign diverged");
    let refresh_p99_s = percentile(&latencies.lock().expect("serve bench tally"), 99.0);
    metrics.insert("serve.query_refresh_p99_s".into(), refresh_p99_s);
    eprintln!(
        "  serve: {} generations, per-query refresh p99 {:.2}ms",
        report.finished.stats.compactions,
        refresh_p99_s * 1e3
    );

    // Scan-plan reuse over the same campaign's device loop (the micro
    // timings above replay one plan; this is the campaign-wide rate).
    // Revisits are usually absorbed by each device's plan-local cache
    // before they ever reach the shared cache — counting shared hits alone
    // reported a 0.0 rate while the cache was doing its job — so the
    // effective rate is (local + shared hits) over all plan lookups.
    let (shared_hits, misses) = (report.raw.plan_hits, report.raw.plan_misses);
    let local_hits = report.raw.net.plan_local_hits;
    let hit_rate =
        (local_hits + shared_hits) as f64 / ((local_hits + shared_hits + misses) as f64).max(1.0);
    metrics.insert("world_scan.plan_cache.hit_rate".into(), hit_rate);
    eprintln!(
        "  scan-plan cache: {local_hits} local + {shared_hits} shared hits / {misses} misses \
         ({:.1}% reuse)",
        hit_rate * 100.0
    );

    let metric_map: serde_json::Map =
        metrics.iter().map(|(k, &v)| (k.clone(), serde_json::json!(v))).collect();
    let doc = serde_json::json!({
        "scale": scale,
        "seed": args.seed,
        "quick": args.quick,
        "metrics": serde_json::Value::Object(metric_map),
    });
    write_json_doc(&out_path, &doc);

    let label = args.label.clone().unwrap_or_else(|| "bench".into());
    let entry = benchhist::BenchEntry::now(label, scale, args.seed, args.quick, metrics);
    gate_or_exit(args, &entry, "bench");
}

/// Write a `BENCH_pipeline.json`-shaped document, exiting 1 on failure.
fn write_json_doc(path: &str, doc: &serde_json::Value) {
    let json = serde_json::to_string_pretty(doc).expect("serializable");
    if let Err(e) = std::fs::write(path, json + "\n") {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Run the `--compare`/`--history` tail ([`benchhist::gate`]), exiting 2
/// on an unusable baseline and 1 on a regression or a failed append.
fn gate_or_exit(args: &Args, entry: &benchhist::BenchEntry, command: &str) {
    let baseline = args.compare.as_deref().map(std::path::Path::new);
    let history = args.history.as_deref().map(std::path::Path::new);
    if let Err(e) = benchhist::gate(entry, baseline, history, args.tolerance, command) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

/// `mobitrace fleet`: drive the thread-per-core fleet ingest frontend at
/// fleet scale — pinned decode/commit workers fronting per-cohort
/// collection servers, synthetic device agents producing against the
/// admission controller — and report sustained throughput, enqueue→commit
/// latency quantiles and every admission outcome. Metrics go to their own
/// `BENCH_pipeline.json` document, and the `--compare`/`--history` gate
/// works exactly as for `bench` (the lookback baseline composes fleet-only
/// and bench-only entries). Exits non-zero if the per-record accounting
/// fails to reconcile.
/// A scratch directory, removed with everything in it when dropped (also
/// when a panic unwinds past it).
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_fleet_cmd(args: &Args) {
    use mobitrace_fleet::{ingest::resolve_workers, try_run_fleet, FaultSpec, FleetRunConfig};

    let devices = if args.quick { args.devices.min(50_000) } else { args.devices };
    let duration_s = if args.quick { args.duration.min(2.0) } else { args.duration };
    // `--resume DIR` restarts from DIR's checkpoints and (unless
    // `--checkpoint` redirects it) keeps checkpointing into the same
    // directory; `--faults` needs *some* checkpoint traffic for its pool
    // faults to have I/O to fail, so it defaults to a scratch directory
    // that goes when the run ends.
    let mut checkpoint_dir: Option<std::path::PathBuf> =
        args.checkpoint.clone().or_else(|| args.resume.clone()).map(std::path::PathBuf::from);
    let scratch = (args.faults && checkpoint_dir.is_none()).then(|| {
        ScratchDir(std::env::temp_dir().join(format!("mobitrace-faults-{}", std::process::id())))
    });
    if let Some(s) = &scratch {
        checkpoint_dir = Some(s.0.clone());
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
    let run = try_run_fleet(&cfg);
    drop(scratch);
    let report = match run {
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

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
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

    let out_path = args.json.clone().unwrap_or_else(|| "BENCH_pipeline.json".into());
    let metric_map: serde_json::Map =
        metrics.iter().map(|(k, &v)| (k.clone(), serde_json::json!(v))).collect();
    let doc = serde_json::json!({
        "seed": args.seed,
        "quick": args.quick,
        "metrics": serde_json::Value::Object(metric_map),
        "fleet": {
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
        },
    });
    write_json_doc(&out_path, &doc);

    let label = args.label.clone().unwrap_or_else(|| "fleet".into());
    let entry = benchhist::BenchEntry::now(label, args.scale, args.seed, args.quick, metrics);
    gate_or_exit(args, &entry, "fleet");

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
