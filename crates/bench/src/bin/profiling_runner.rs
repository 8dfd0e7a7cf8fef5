//! Runs registered experiments under the instrumented (`trace`) build and
//! reports where the wall time goes.
//!
//! ```text
//! profiling_runner [--quick] [--filter ID]... [--threads N]
//!                  [--out DIR] [--seed N] [--shards K]
//! ```
//!
//! - `--quick`    reduced sweeps (the CI smoke size)
//! - `--filter`   select experiments (repeatable): whole id or `_`-boundary
//!   prefix, substring as fallback; defaults to the profiling set
//!   `e1 e10 e16`
//! - `--threads`  worker threads (default 1: per-subsystem wall buckets
//!   are cleanest without scheduler interleaving)
//! - `--out`      directory for `PROFILE_<experiment>.json` and
//!   `PROFILE_<experiment>.folded` (default: current directory)
//! - `--seed`     base seed (default 42)
//! - `--shards`   event-loop shards per simulated world (default 1), as in
//!   `all_experiments`
//!
//! For each experiment it prints a per-subsystem breakdown (events, wall,
//! ns/event, share of loop wall) and writes flamegraph-ready folded-stack
//! lines — feed `PROFILE_<exp>.folded` straight to `flamegraph.pl` or
//! `inferno-flamegraph`. Every point that ran sharded also gets one line of
//! `Simulator::shard_load()`: events per shard, windows, inline windows,
//! replayed cut-link operations.
//!
//! The binary must be built with the `trace` feature
//! (`cargo run --release -p aitf-bench --features trace --bin
//! profiling_runner`); without it there is nothing to measure and it exits
//! with an error instead of printing all-zero tables.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use aitf_engine::{Runner, DEFAULT_BASE_SEED};
use aitf_trace::{Subsystem, SubsystemProfile};

struct Args {
    quick: bool,
    filters: Vec<String>,
    threads: usize,
    out_dir: PathBuf,
    base_seed: u64,
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        filters: Vec::new(),
        threads: 1,
        out_dir: PathBuf::from("."),
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
            "--out" => args.out_dir = PathBuf::from(value("--out")),
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
                    "usage: profiling_runner [--quick] [--filter ID]... \
                     [--threads N] [--out DIR] [--seed N] [--shards K]\n  \
                     --filter ID  whole experiment id or `_`-boundary prefix \
                     (e1 = e1_escalation only); substring only if neither matches"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if args.filters.is_empty() {
        // The standing profiling set: the canonical escalation scenario,
        // the scaling sweep, and the deployment-incentive sweep.
        args.filters = vec!["e1".into(), "e10".into(), "e16".into()];
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("profiling_runner: {msg}");
    std::process::exit(2);
}

/// `1234567` ns → `"1.235ms"` — compact wall rendering for the table.
fn fmt_nanos(nanos: u64) -> String {
    let ns = nanos as f64;
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn main() {
    // Parse first: `--help` and argument errors must work on any build.
    let args = parse_args();
    if !cfg!(feature = "trace") {
        die("built without the `trace` feature — nothing to measure.\n\
             rebuild with: cargo run --release -p aitf-bench \
             --features trace --bin profiling_runner");
    }
    let registry = aitf_bench::registry(args.quick);
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

    println!(
        "=== profiling {} experiment(s), {} thread(s), base seed {} ===\n",
        specs.len(),
        args.threads,
        args.base_seed
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        die(&format!("creating {}: {e}", args.out_dir.display()));
    }

    for spec in &specs {
        let start = Instant::now();
        let records = Runner::new(args.threads)
            .base_seed(args.base_seed)
            .shards(args.shards)
            .run(spec);
        let wall = start.elapsed().as_secs_f64();

        // Aggregate subsystem buckets and folded stacks across all points.
        let mut merged = SubsystemProfile::default();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut span_count = 0usize;
        let mut traced_points = 0usize;
        for rec in &records {
            let Some(report) = &rec.trace else { continue };
            traced_points += 1;
            merged.merge(&report.subsystems);
            span_count += report.spans.len();
            for line in report.folded() {
                // `path;to;frame WEIGHT` — sum weights across points.
                let Some((stack, w)) = line.rsplit_once(' ') else {
                    continue;
                };
                let w: u64 = w.parse().unwrap_or(0);
                *folded.entry(stack.to_string()).or_insert(0) += w;
            }
        }
        if traced_points == 0 {
            die(&format!(
                "{}: no run produced a trace payload — was the scenario \
                 built with the `trace` feature?",
                spec.id
            ));
        }

        let final_profile = merged.finalized();
        let loop_nanos = final_profile.loop_nanos().max(1);
        println!(
            "--- {} ({} point(s), {} span(s), {wall:.2}s wall) ---",
            spec.id,
            records.len(),
            span_count
        );
        println!(
            "{:<16} {:>12} {:>12} {:>10} {:>7}",
            "subsystem", "events", "wall", "ns/event", "share"
        );
        for (sub, bucket) in final_profile.rows() {
            let per_event = bucket.nanos.checked_div(bucket.events).unwrap_or(0);
            println!(
                "{:<16} {:>12} {:>12} {:>10} {:>6.1}%",
                sub.name(),
                bucket.events,
                fmt_nanos(bucket.nanos),
                per_event,
                100.0 * bucket.nanos as f64 / loop_nanos as f64,
            );
        }
        for rec in &records {
            let load = rec.trace.as_ref().map(|t| &t.shard_load);
            if let Some(load) = load.filter(|l| l.events.len() > 1) {
                println!("point {}: {load}", rec.index);
            }
        }
        println!();

        // (c) PROFILE_<experiment>.json
        let mut json = String::new();
        json.push_str(&format!(
            "{{\"schema\":1,\"experiment\":\"{}\",\"quick\":{},\"base_seed\":{},\"threads\":{},\"points\":{},\"traced_points\":{},\"span_count\":{},\"wall_secs\":{:.6},\"subsystems\":{}}}\n",
            spec.id,
            args.quick,
            args.base_seed,
            args.threads,
            records.len(),
            traced_points,
            span_count,
            wall,
            final_profile.to_json(),
        ));
        let json_path = args.out_dir.join(format!("PROFILE_{}.json", spec.id));
        if let Err(e) = std::fs::write(&json_path, json) {
            die(&format!("writing {}: {e}", json_path.display()));
        }
        println!("wrote {}", json_path.display());

        // (b) flamegraph-ready folded stacks.
        let mut folded_out = String::new();
        for (stack, weight) in &folded {
            folded_out.push_str(&format!("{stack} {weight}\n"));
        }
        let folded_path = args.out_dir.join(format!("PROFILE_{}.folded", spec.id));
        if let Err(e) = std::fs::write(&folded_path, folded_out) {
            die(&format!("writing {}: {e}", folded_path.display()));
        }
        println!(
            "wrote {} ({} stack(s))\n",
            folded_path.display(),
            folded.len()
        );
    }
    let total_subsystems: usize = Subsystem::COUNT;
    println!(
        "=== done: {} experiment(s) profiled across {total_subsystems} subsystem classes ===",
        specs.len()
    );
}
