//! # aitf-scenario — declarative AITF experiment scenarios
//!
//! A scenario is three composable, declarative pieces plus a config:
//!
//! ```text
//! Scenario {
//!     topology:      TopologySpec, // fig1 / chain_pair / star / tree / custom;
//!                                  // each network's policy says whether it runs AITF
//!     aitf_fraction: f64,          // a seed-drawn partial deployment (1 = as declared)
//!     workload:      WorkloadSpec, // floods, legit pools, on/off, spoofing
//!     churn:         ChurnSpec,    // scheduled mid-run mutations (dynamic worlds)
//!     probes:        ProbeSet,     // leak ratio, filter peaks, sampled series
//!     config:        AitfConfig,   // every protocol parameter: Td, table sizes, defense, ...
//! }
//! ```
//!
//! Each swept quantity has one place to be declared. A protocol parameter
//! (`Td`, a table capacity, the eviction rule, the defense policy) is a
//! field of the [`aitf_core::AitfConfig`] literal handed to
//! [`Scenario::config`]; a link's delay or bandwidth (`Tr` is the victim's
//! tail circuit) is part of the [`TopologySpec`]. `Scenario` itself sets
//! no config field.
//!
//! [`Scenario::run`] builds the [`aitf_core::World`], compiles the
//! workload onto its hosts, simulates, measures, and returns an
//! [`aitf_engine::Outcome`] — so scenario definitions plug straight into
//! the engine's registry/runner and their records carry metrics in probe
//! declaration order. [`Scenario::build`] is the escape hatch for
//! experiments that drive the simulation in custom phases.
//!
//! Determinism contract: a `TopologySpec` lowers onto
//! [`aitf_core::WorldBuilder`] in one canonical order (networks,
//! peerings, hosts — each in declaration order) and workloads install in
//! declaration order, so equal specs produce bit-identical worlds and,
//! under the engine's derived seeds, bit-identical run records at any
//! thread count.
//!
//! Code that drives a simulation by hand (examples, integration tests)
//! builds the same way: `TopologySpec::fig1(..).build(seed, cfg)` returns
//! a [`BuiltWorld`] whose `net` / `victim` / `first_with` / `hosts_with` /
//! `nets_on` lookups name the handles, and [`TrafficSpec::install`] arms
//! the traffic. There is no second, imperative world API.

pub mod alloc;
pub mod churn;
pub mod probe;
pub mod scenario;
pub mod stream;
pub mod topology;
pub mod workload;

pub use alloc::PrefixAlloc;
pub use churn::{ChurnAction, ChurnSpec, EventSpec};
pub use probe::{leak_ratio, ProbeSet, SeriesStore, StreamProbeConfig, VictimStreamTap};
pub use scenario::{Scenario, ScenarioError};
pub use stream::{CountMinSketch, Reservoir, TopK};
pub use topology::{
    BuiltWorld, HostDecl, NetDecl, NetSel, PeeringDecl, PowerLawSpec, Role, Side, TopologySpec,
};
pub use workload::{HostSel, Rate, TargetSel, TrafficKind, TrafficSpec, WorkloadSpec};
