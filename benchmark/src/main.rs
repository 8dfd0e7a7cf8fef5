//! `aitf-benchmark` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! aitf-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! aitf-benchmark [--seed N] [--seconds S] [--smoke]              every workload, untraced then traced
//! aitf-benchmark compare A.json B.json                           two result sets against the bounds
//! ```
//!
//! Run it from the repository root (`benchmark/run.sh` does): golden files
//! and outputs are addressed as `benchmark/golden/` and `benchmark/out/`.

mod calib;
mod compare;
mod json;
mod kernels;
mod metrics;
mod pass;
mod procfs;
mod record;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::{escape, number, Json};
use run::{Opts, Report};
use workloads::Size;

const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  aitf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--update-golden] [--out-dir <dir>]
  aitf-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--update-golden]
  aitf-benchmark compare <A.json> <B.json>
workloads: flood_bakeoff filter_churn megatree_sharded powerlaw_flash";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    update_golden: bool,
    out_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        update_golden: false,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => a.out_dir = Some(value()?),
            "--smoke" => a.smoke = true,
            "--update-golden" => a.update_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The human-readable table goes to stderr: stdout ends with the result.
fn print_table(report: &Report) {
    for &(name, v) in &report.metrics {
        let unit = metrics::def(name).expect("known metric").unit;
        eprintln!("  {name:<34} {v:>18.6} {unit}");
    }
}

/// One run in this process: the driver's contract.
fn single(a: &Args, name: &str) -> ExitCode {
    let Some(workload) = workloads::by_name(name) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Opts {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        size: if a.smoke { Size::Smoke } else { Size::Full },
        update_golden: a.update_golden,
    };
    let report = run::run(&opts);
    eprintln!(
        "{name} seed {} trace {}: {} of {} operations failed",
        a.seed, a.trace as u8, report.failed, report.attempted
    );
    print_table(&report);
    if !report.span_self.is_empty() {
        eprintln!("  span self time (all traced passes):");
        for &(name, secs, n) in &report.span_self {
            eprintln!("    {name:<30} {secs:>12.6} s over {n} spans");
        }
    }
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }
    if let Some(dir) = &a.out_dir {
        let kind = if a.trace { "traced" } else { "untraced" };
        let mut files = vec![(
            format!("{dir}/run_{name}_{kind}.json"),
            report.detail_json(&opts),
        )];
        if let Some(trace) = &report.trace_json {
            files.push((format!("{dir}/trace_{name}.json"), trace.clone()));
        }
        for (path, text) in files {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
            {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.metrics.is_empty() {
        // Nothing was measured: no result line, non-zero exit.
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, each run in its own child process (so `VmHWM` is per
/// workload): tracing off, then the traced pass. Prints every metric,
/// writes `out/results.json`, fails if any operation failed.
fn suite(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loadavg = procfs::loadavg();
    let mut all_ok = true;
    let mut sections = Vec::new();
    for w in &workloads::ALL {
        let mut runs = Vec::new();
        for (kind, trace) in [("untraced", "0"), ("traced", "1")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace, "--out-dir", OUT_DIR])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()]);
            if a.smoke {
                cmd.arg("--smoke");
            }
            if a.update_golden && trace == "0" {
                cmd.arg("--update-golden");
            }
            println!("== {} ({kind}): {}", w.name, w.why);
            // The child leaves everything in its detail file; a stale one
            // must not stand in for a run that died.
            let detail_path = format!("{OUT_DIR}/run_{}_{kind}.json", w.name);
            let _ = std::fs::remove_file(&detail_path);
            let status = match cmd.stdout(Stdio::null()).stderr(Stdio::null()).status() {
                Ok(status) => status,
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let detail = std::fs::read_to_string(&detail_path).unwrap_or_default();
            let Ok(run) = json::parse(&detail) else {
                println!("  FAILED: the run left no result ({status})");
                all_ok = false;
                continue;
            };
            for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                println!(
                    "  {name:<34} {:>18.6} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or("?")
                );
            }
            let n = |k| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  operations: {} attempted, {} failed",
                n("attempted"),
                n("failed")
            );
            let ok = status.success() && run.get("correct") == Some(&Json::Bool(true));
            if !ok {
                println!("  FAILED: {:?}", run.get("failures"));
            }
            runs.push(format!("{}: {}", escape(kind), detail.trim()));
            // Merged into results.json below.
            let _ = std::fs::remove_file(&detail_path);
            all_ok &= ok;
        }
        sections.push(format!("{}: {{{}}}", escape(w.name), runs.join(", ")));
    }
    let provenance = format!(
        "{{\"nproc\": {}, \"loadavg_start\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"seed\": {}, \"seconds\": {}, \"smoke\": {}}}",
        procfs::nproc(),
        number(loadavg),
        escape(&command_line("rustc", &["--version"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        a.seed,
        number(a.seconds),
        a.smoke
    );
    let doc = format!(
        "{{\"provenance\": {provenance},\n \"workloads\": {{\n  {}\n }}}}\n",
        sections.join(",\n  ")
    );
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one operation failed or a run did not finish");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(name) => single(&a, name),
        None => suite(&a),
    }
}
