//! Driver for the experiment suite: selects scenarios from the registry,
//! fans every sweep point out across a thread pool, prints each table and
//! (optionally) writes one `BENCH_<experiment>.json` per experiment.
//!
//! ```text
//! all_experiments [--quick] [--filter ID]... [--threads N]
//!                 [--json DIR] [--seed N] [--shards K]
//! ```
//!
//! - `--quick`    reduced sweeps (the CI / smoke-test sizes)
//! - `--filter`   select experiments (repeatable): whole id or `_`-boundary
//!   prefix (`e1` = just e1_escalation), substring as fallback
//! - `--threads`  worker threads (default: all cores)
//! - `--json`     write structured run records under DIR
//! - `--seed`     base seed all per-point seeds derive from (default 42)
//! - `--shards`   event-loop shards per simulated world (default 1)
//!
//! Built with the `trace` feature it also prints each sweep's profile, and
//! `--json` also writes the sweep's folded stacks to
//! `PROFILE_<experiment>.folded` (`aitf_bench::harness::render_profile`).
//!
//! Results are bit-identical at any `--threads` or `--shards` value: every
//! point's RNG seed derives only from `(seed, experiment id, point index)`,
//! and the sharded event loop's window protocol never consults thread
//! interleaving.

use std::path::PathBuf;
use std::time::Instant;

use aitf_engine::{available_threads, Runner, DEFAULT_BASE_SEED};

struct Args {
    quick: bool,
    filters: Vec<String>,
    threads: usize,
    json_dir: Option<PathBuf>,
    base_seed: u64,
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        filters: Vec::new(),
        threads: available_threads(),
        json_dir: None,
        base_seed: DEFAULT_BASE_SEED,
        shards: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--filter" => args.filters.push(value("--filter")),
            "--threads" => {
                args.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads needs an integer"))
            }
            "--json" => args.json_dir = Some(PathBuf::from(value("--json"))),
            "--seed" => {
                args.base_seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--shards" => {
                args.shards = value("--shards")
                    .parse()
                    .unwrap_or_else(|_| die("--shards needs an integer"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: all_experiments [--quick] [--filter ID]... \
                     [--threads N] [--json DIR] [--seed N] [--shards K]\n  \
                     --filter ID  whole experiment id or `_`-boundary prefix \
                     (e1 = e1_escalation only); substring only if neither matches"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("all_experiments: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let registry = aitf_bench::registry(args.quick);
    // Any filter matching nothing is an error — never silently run a
    // different selection than the one asked for.
    let unmatched = registry.unmatched(&args.filters);
    if !unmatched.is_empty() {
        die(&format!(
            "no experiment matches {unmatched:?}; known ids: {}",
            registry
                .specs()
                .iter()
                .map(|s| s.id)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let specs = registry.select(&args.filters);
    assert!(!specs.is_empty(), "matched filters cannot select nothing");

    println!(
        "=== AITF paper reproduction: {} experiment(s), {} thread(s), base seed {} ===\n",
        specs.len(),
        args.threads,
        args.base_seed
    );
    // detlint::allow(wall-clock): suite wall-time print for the operator — never recorded
    let start = Instant::now();
    // One flat job pool across all selected experiments: points from
    // different sweeps fill the same worker threads.
    let grouped = Runner::new(args.threads)
        .base_seed(args.base_seed)
        .shards(args.shards)
        .run_all(&specs);
    let wall = start.elapsed().as_secs_f64();

    let mut total_points = 0usize;
    let mut total_events = 0u64;
    for (spec, records) in specs.iter().zip(&grouped) {
        aitf_bench::harness::render_sweep(spec, records);
        let folded = aitf_bench::harness::render_profile(spec, records);
        total_points += records.len();
        total_events += records.iter().map(|r| r.events).sum::<u64>();
        if let Some(dir) = &args.json_dir {
            match aitf_engine::json::write_document(
                dir,
                spec,
                records,
                args.base_seed,
                args.threads,
                args.quick,
            ) {
                Ok(path) => println!("wrote {}\n", path.display()),
                Err(e) => die(&format!("writing {}: {e}", spec.id)),
            }
            if let Some(folded) = folded {
                let path = dir.join(format!("PROFILE_{}.folded", spec.id));
                match std::fs::write(&path, folded) {
                    Ok(()) => println!("wrote {}\n", path.display()),
                    Err(e) => die(&format!("writing {}: {e}", path.display())),
                }
            }
        }
    }
    println!("=== {total_points} point(s), {total_events} simulator event(s), {wall:.2}s wall ===");
}
