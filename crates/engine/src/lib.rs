//! # aitf-engine — parallel scenario-sweep engine with JSON telemetry
//!
//! The AITF paper's evaluation is a grid of parametric sweeps. This crate
//! turns each experiment into data plus one closure:
//!
//! - a [`ScenarioSpec`] names the sweep, declares its [`Params`] points and
//!   supplies a `run(params, ctx) -> Outcome` closure;
//! - a [`Registry`] holds the specs the driver can select from
//!   (`--filter`);
//! - a [`Runner`] fans all selected points out over a `std::thread` pool.
//!   Every point's RNG seed derives only from `(base_seed, experiment id,
//!   point index)`, and results land in pre-indexed slots, so sweeps are
//!   **bit-identical at any thread count**;
//! - each finished point is a [`RunRecord`]; the same records feed two
//!   sinks — [`tabulate()`] for the classic ASCII tables, and [`json`] for
//!   `BENCH_<experiment>.json` telemetry files.
//!
//! ```
//! use aitf_engine::{Outcome, Params, Runner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::new("square", "squares a number", "§demo")
//!     .points((1..=4u64).map(|x| Params::new().with("x", x)))
//!     .runner(|p, _ctx| Outcome::new(Params::new().with("y", p.u64("x").pow(2))));
//! let records = Runner::new(4).run(&spec);
//! assert_eq!(records[3].metrics.u64("y"), 16);
//! ```

pub mod json;
pub mod params;
pub mod record;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod tabulate;

pub use params::{Params, Value};
pub use record::RunRecord;
pub use registry::Registry;
pub use runner::{available_threads, Runner, DEFAULT_BASE_SEED};
pub use spec::{splitmix, Outcome, RunCtx, ScenarioSpec};
pub use tabulate::tabulate;
