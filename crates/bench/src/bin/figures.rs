//! Emits the paper-style time series (goodput collapse and recovery,
//! attack bandwidth, filter occupancy) as gnuplot-ready columns.
//!
//! ```text
//! figures [--quick]
//! ```
//!
//! - `--quick`  reduced sweep (the CI / smoke-test size)

const USAGE: &str = "usage: figures [--quick]";

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            // Never silently run a different selection than the one asked for.
            other => {
                eprintln!("figures: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    aitf_bench::figures::run(quick);
}
