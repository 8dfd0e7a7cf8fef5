//! Attack workloads and legitimate traffic.
//!
//! The paper's threat model (Section I): an attacker compromises a large
//! number of hosts and orchestrates them to flood the victim's tail
//! circuit. This crate provides:
//!
//! - [`sources`] — traffic applications: constant floods, the "on-off"
//!   evasion pattern of Section II-B footnote 2 and source-address
//!   spoofing;
//! - [`legit`] — legitimate foreground traffic whose goodput measures the
//!   collateral damage of both the attack and the defense.
//!
//! Topologies (Figure 1, attacker stars, provider chains) and the arming
//! of many hosts at once (staggered zombie armies, legitimate pools) live
//! in the `aitf-scenario` crate, whose declarative topology × workload ×
//! probes API compiles onto these traffic sources.

pub mod legit;
pub mod sources;

pub use legit::LegitClient;
pub use sources::{FloodSource, OnOffSource, RequestForger, SpoofingFlood};
