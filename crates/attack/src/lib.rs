//! Attack workloads, legitimate traffic and canned scenario topologies.
//!
//! The paper's threat model (Section I): an attacker compromises a large
//! number of hosts and orchestrates them to flood the victim's tail
//! circuit. This crate provides:
//!
//! - [`sources`] — traffic applications: constant floods, the "on-off"
//!   evasion pattern of Section II-B footnote 2 and source-address
//!   spoofing;
//! - [`legit`] — legitimate foreground traffic whose goodput measures the
//!   collateral damage of both the attack and the defense;
//! - [`army`] — zombie armies: arming many hosts with staggered floods.
//!
//! Canned topologies (Figure 1, attacker stars, provider chains) moved to
//! the `aitf-scenario` crate, which layers a fully declarative
//! topology × workload × probes API over these traffic sources.

pub mod army;
pub mod legit;
pub mod sources;

pub use army::{ArmyHandles, ZombieArmySpec};
pub use legit::LegitClient;
pub use sources::{FloodSource, OnOffSource, RequestForger, SpoofingFlood};
