//! # aitf-core — Active Internet Traffic Filtering
//!
//! The primary contribution of Argyraki & Cheriton's AITF paper: an
//! automatic filter-propagation protocol that pushes the blocking of DoS
//! flood traffic to the network closest to the attacker, in exchange for a
//! *bounded* amount of router resources.
//!
//! The protocol in one paragraph (Sections II-B/C of the paper): the victim
//! sends a filtering request to its gateway; the gateway blocks the flow
//! with a **temporary** filter (`Ttmp`), logs a **shadow** of the request in
//! DRAM for the full horizon `T`, and propagates the request to the
//! **attacker's gateway**, which verifies it with a nonce **3-way
//! handshake**, blocks the flow for `T`, and tells the attacker to stop or
//! be **disconnected**. If the attacker's gateway does not cooperate, the
//! mechanism **escalates** one provider level per round until a cooperating
//! AITF node is found — at most four nodes are involved in any round.
//!
//! ## Crate layout
//!
//! - [`config`] — timers (`T`, `Ttmp`, grace), contracts (`R1`, `R2`),
//!   per-node policies, defense policy.
//! - [`policy`] — [`DefensePolicy`]: the defense sweep axis (AITF,
//!   pushback, ingress rate-limiting, path stamping).
//! - [`pipeline`] — [`PolicyChains`]: the static per-policy table of
//!   which [`StageId`]s run at the Ingress/Escalate/Egress hooks.
//! - [`router`] — [`BorderRouter`]: state, wiring and the `StageId`
//!   dispatch (`router/mod.rs`), the stage bodies (`router/stages.rs`)
//!   and the AITF control-plane roles (`router/escalation.rs`).
//! - [`pushback`] — state for the hop-by-hop pushback baseline policy.
//! - [`host`] — [`EndHost`]: victim agent, attacker compliance, pluggable
//!   [`TrafficApp`]s.
//! - [`traffic`] — [`Source`], the one sender every workload runs (flood,
//!   on-off, spoof, client), and the [`RequestForger`].
//! - [`world`] — [`WorldBuilder`]: networks, hosts, routing, contracts.
//!
//! ## Quickstart
//!
//! ```
//! use aitf_core::{AitfConfig, WorldBuilder};
//! use aitf_netsim::SimDuration;
//!
//! // Figure 1 of the paper, two levels deep.
//! let mut b = WorldBuilder::new(7, AitfConfig::default());
//! let wan = b.network("wan", "10.100.0.0/16", None);
//! let g_net = b.network("G_net", "10.1.0.0/16", Some(wan));
//! let b_net = b.network("B_net", "10.9.0.0/16", Some(wan));
//! let victim = b.host(g_net);
//! let attacker = b.host(b_net);
//! let mut world = b.build();
//! world.sim.run_for(SimDuration::from_secs(5));
//! assert_eq!(world.attack_bytes_at(victim), 0, "no attack app installed");
//! let _ = attacker;
//! ```

pub mod config;
pub mod detector;
pub mod host;
pub mod pipeline;
pub mod policy;
mod proto_tests;
pub mod pushback;
pub mod router;
pub mod traffic;
pub mod world;

pub use config::{AitfConfig, Contract, HostPolicy, RouterPolicy};
// Re-exported so scenario/experiment layers can name the sweep axis
// without a direct aitf-filter dependency.
pub use aitf_filter::EvictionPolicy;
pub use detector::{DetectionMode, RateDetector};
pub use host::{EndHost, HostApi, HostCounters, HostView, RxTap, TrafficApp};
pub use pipeline::{PolicyChains, RequestOutcome, StageId, Verdict};
pub use policy::DefensePolicy;
pub use pushback::{PushbackCounters, PushbackState, LINK_LOCAL, MAX_PUSHBACK_DEPTH};
pub use router::{BorderRouter, RouterCounters, RouterView};
pub use traffic::{RequestForger, Source};
pub use world::{
    HostDecl, HostId, NetDecl, NetId, NetLabel, PeeringDecl, Role, RoutingMode, Side, World,
    WorldBuilder, WorldError,
};

/// A world and everything in it can move to a shard thread — with the
/// `trace` feature too: span logs are plain router-private data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
    assert_send::<BorderRouter>();
    assert_send::<EndHost>();
    assert_send::<aitf_netsim::Simulator>();
};
