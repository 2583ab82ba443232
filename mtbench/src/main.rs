//! `mtbench` command line.
//!
//! ```text
//! mtbench [--workload NAME|all] [--seed N] [--seconds S] [--scale X]
//!         [--trace 0|1|FILE] [--out results.json] [--inject drop-upload|corrupt-pool]
//! mtbench compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace` the per-layer metrics. Exit status 0 means every output
//! matched its reference.

use mobitrace_benchmark::bench::{self, Config};
use mobitrace_benchmark::workloads::Inject;
use mobitrace_benchmark::{compare, output, repo_root, trace};
use std::path::PathBuf;

/// Fewest timed repetitions of the closed-loop workloads.
const MIN_REPS: usize = 5;

fn usage(msg: &str) -> ! {
    eprintln!("mtbench: {msg}");
    eprintln!(
        "usage: mtbench [--workload NAME|all] [--seed N] [--seconds S] [--scale X] \
         [--trace 0|1|FILE] [--out FILE] [--inject drop-upload|corrupt-pool]\n       \
         mtbench compare A.json... -- B.json... [--bench BENCHMARK.json]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn compare_main(args: Vec<String>) -> ! {
    let mut bench_json = repo_root().join("BENCHMARK.json");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut second = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => second = true,
            "--bench" => bench_json = PathBuf::from(parse::<String>("--bench", it.next())),
            _ if second => b.push(PathBuf::from(arg)),
            _ => a.push(PathBuf::from(arg)),
        }
    }
    if a.is_empty() || b.is_empty() {
        usage("compare needs result files on both sides of --");
    }
    match compare::run(&a, &b, &bench_json) {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => usage(&e),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare_main(args.split_off(1));
    }
    let mut cfg = Config {
        workloads: bench::parse_workloads("all").expect("all"),
        seed: 20151028,
        seconds: 15.0,
        scale: 0.15,
        trace: false,
        min_reps: MIN_REPS,
        inject: None,
        tmp_dir: repo_root().join(".mtbench-tmp").join(std::process::id().to_string()),
    };
    let (mut out, mut trace_file) = (None::<PathBuf>, None::<PathBuf>);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = parse::<String>("--workload", it.next());
                cfg.workloads = bench::parse_workloads(&w)
                    .unwrap_or_else(|| usage(&format!("unknown workload {w}")));
            }
            "--seed" => cfg.seed = parse("--seed", it.next()),
            "--seconds" => cfg.seconds = parse("--seconds", it.next()),
            "--scale" => cfg.scale = parse("--scale", it.next()),
            "--trace" => match parse::<String>("--trace", it.next()).as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                file => {
                    cfg.trace = true;
                    trace_file = Some(PathBuf::from(file));
                }
            },
            "--out" => out = Some(PathBuf::from(parse::<String>("--out", it.next()))),
            "--inject" => {
                cfg.inject = Some(match parse::<String>("--inject", it.next()).as_str() {
                    "drop-upload" => Inject::DropUpload,
                    "corrupt-pool" => Inject::CorruptPool,
                    other => usage(&format!("unknown fault {other}")),
                })
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.scale > 0.0) {
        usage("--seconds and --scale must be positive");
    }

    let report = bench::run(&cfg);
    output::print_tables(&report);
    if let Some(path) = &trace_file {
        trace::write_jsonl(&report.spans, path)
            .unwrap_or_else(|e| eprintln!("mtbench: cannot write {}: {e}", path.display()));
    }
    if let Some(path) = &out {
        output::write_results(path, &cfg, &report, &repo_root())
            .unwrap_or_else(|e| eprintln!("mtbench: cannot write {}: {e}", path.display()));
    }
    let line = output::result_line(&report);
    println!("{line}");
    if line["correct"].as_bool() != Some(true) {
        std::process::exit(1);
    }
}
