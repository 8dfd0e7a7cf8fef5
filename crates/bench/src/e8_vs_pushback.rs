//! E8 — Section V: AITF vs hop-by-hop pushback (\[MBF+01\]).
//!
//! The paper's two contrasts:
//!
//! 1. *Involvement*: "the propagation of an AITF filtering request
//!    involves only 4 nodes ... a pushback request is propagated hop by
//!    hop" — we count the routers that end up processing requests and
//!    holding filters as the path deepens.
//! 2. *Teeth*: "a pushback request ... relies on good will. In contrast,
//!    AITF forces the attacker ... or else risk disconnection" — we insert
//!    one rogue hop and watch pushback stall while AITF escalates around
//!    it and disconnects.

use aitf_core::{AitfConfig, DefensePolicy, HostPolicy, NetId, RouterPolicy};
use aitf_engine::{Outcome, Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    BuiltWorld, HostSel, ProbeSet, Role, Scenario, Side, TargetSel, TopologySpec, TrafficSpec,
};

use crate::harness::{assert_loop_invariants, checked};

/// The shared chain scenario: two depth-`depth` provider chains, a 1000
/// pps flood, optionally one rogue attacker-side hop at `rogue_b_level`
/// (0 = the attacker's gateway, `B_1`).
fn chain_scenario(depth: usize, rogue_b_level: Option<usize>, policy: DefensePolicy) -> Scenario {
    let mut topo = TopologySpec::chain_pair(depth, HostPolicy::Malicious);
    if let Some(level) = rogue_b_level {
        topo.set_net_policy(&format!("B_{}", level + 1), RouterPolicy::non_cooperating());
    }
    Scenario::new(topo)
        .config(AitfConfig {
            t_long: SimDuration::from_secs(30),
            defense: policy,
            ..AitfConfig::default()
        })
        .duration(SimDuration::from_secs(10))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
        ))
}

/// Counts `(nodes_involved, routers_with_filters)` over every chain
/// router, for either defense.
fn involvement(w: &BuiltWorld, policy: DefensePolicy) -> (u64, u64) {
    let mut nodes_involved = 0u64;
    let mut with_filters = 0u64;
    let mut nets = w.nets_on(Side::Victim);
    nets.extend(w.nets_on(Side::Attacker));
    for net in nets {
        let r = w.world.router(net);
        let touched = match policy {
            DefensePolicy::Pushback => {
                r.counters().requests_received > 0 || r.pushback().pushback_received > 0
            }
            _ => r.counters().requests_received > 0,
        };
        let installs = r.filters().stats().installs;
        nodes_involved += u64::from(touched);
        with_filters += u64::from(installs > 0);
    }
    (nodes_involved, with_filters)
}

/// Runs one protocol on a depth-`depth` chain (all routers cooperative);
/// metrics `nodes`, `filters`, `leak`.
pub fn run_protocol(depth: usize, policy: DefensePolicy, seed: u64, shards: usize) -> Outcome {
    let scenario = chain_scenario(depth, None, policy).shards(shards).probes(
        ProbeSet::new()
            .end(move |w, m| {
                let (nodes, filters) = involvement(w, policy);
                m.set("nodes", nodes);
                m.set("filters", filters);
            })
            .leak_ratio("leak"),
    );
    checked(scenario).run(seed)
}

/// The rogue-hop outcome for both protocols.
#[derive(Debug)]
pub struct RogueOutcome {
    /// True if the protocol found a lever against the rogue's side: AITF
    /// disconnects the rogue client; pushback would need the rogue's own
    /// edge filter (which never appears).
    pub source_cut: bool,
    /// Packets that still crossed the rogue's uplink wire during the last
    /// 5 seconds of the run — the bandwidth the rogue's side keeps burning.
    pub uplink_carried_late: u64,
    /// Simulator events dispatched during the run.
    pub events: u64,
}

fn uplink_sent(w: &aitf_core::World, net: NetId) -> u64 {
    let link = w.uplink(net).expect("edge network has an uplink");
    let (a, b) = w.sim.link_endpoints(link);
    let parent = if a == w.router_node(net) { b } else { a };
    w.sim.link_stats_towards(link, parent).sent_pkts
}

/// AITF with the *attacker's gateway itself* rogue: round 2 reaches its
/// provider, which filters AND disconnects the rogue client after the
/// grace period — nothing crosses the rogue's uplink any more. This is a
/// two-phase measurement, so it drives the built scenario by hand.
pub fn rogue_aitf(seed: u64, shards: usize) -> RogueOutcome {
    let mut w = chain_scenario(3, Some(0), DefensePolicy::Aitf)
        .shards(shards)
        .build(seed);
    let leaf = w.net("B_1");
    w.world.sim.run_for(SimDuration::from_secs(10));
    let before = uplink_sent(&w.world, leaf);
    w.world.sim.run_for(SimDuration::from_secs(5));
    let after = uplink_sent(&w.world, leaf);
    assert_loop_invariants(&w.world.sim);
    let disconnected = w.world.router(w.net("B_2")).counters().disconnects_client > 0;
    RogueOutcome {
        source_cut: disconnected,
        uplink_carried_late: after - before,
        events: w.world.sim.dispatched_events(),
    }
}

/// Pushback with the same rogue: the chain stalls one hop above; the
/// rogue's uplink keeps carrying the full flood forever.
pub fn rogue_pushback(seed: u64, shards: usize) -> RogueOutcome {
    let mut w = chain_scenario(3, Some(0), DefensePolicy::Pushback)
        .shards(shards)
        .build(seed);
    let leaf = w.net("B_1");
    w.world.sim.run_for(SimDuration::from_secs(10));
    let edge_filtered = w.world.router(leaf).counters().filters_installed > 0;
    let before = uplink_sent(&w.world, leaf);
    w.world.sim.run_for(SimDuration::from_secs(5));
    let after = uplink_sent(&w.world, leaf);
    assert_loop_invariants(&w.world.sim);
    RogueOutcome {
        source_cut: edge_filtered,
        uplink_carried_late: after - before,
        events: w.world.sim.dispatched_events(),
    }
}

/// The E8 scenario spec: AITF vs pushback across chain depths.
pub fn spec(quick: bool) -> ScenarioSpec {
    let depths: &[u64] = if quick { &[2, 3] } else { &[2, 3, 4, 5, 6] };
    ScenarioSpec::new(
        "e8_vs_pushback",
        "E8 (§V): AITF vs pushback — involvement grows with path depth only for pushback",
        "§V",
    )
    .expectation(
        "AITF involves a constant number of nodes (the round's 2 gateways) \
         regardless of depth; pushback involves every router on the path.",
    )
    .points(
        depths
            .iter()
            .map(|&d| Params::new().with("depth_per_side", d)),
    )
    .runner(|p, ctx| {
        let d = p.usize("depth_per_side");
        let aitf = run_protocol(d, DefensePolicy::Aitf, ctx.seed, ctx.shards);
        let pb = run_protocol(d, DefensePolicy::Pushback, ctx.seed, ctx.shards);
        Outcome::new(
            Params::new()
                .with("aitf_nodes", aitf.metrics.u64("nodes"))
                .with("aitf_filters", aitf.metrics.u64("filters"))
                .with("pb_nodes", pb.metrics.u64("nodes"))
                .with("pb_filters", pb.metrics.u64("filters"))
                .with("aitf_leak", aitf.metrics.f64("leak"))
                .with("pb_leak", pb.metrics.f64("leak")),
        )
        .with_events(aitf.events + pb.events)
    })
}

/// The E8b scenario spec: one rogue hop, disconnection vs good will.
pub fn spec_rogue(_quick: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        "e8b_rogue_hop",
        "E8b (§V): one rogue hop — disconnection vs good will",
        "§V",
    )
    .expectation(
        "with a rogue hop, AITF's disconnection still cuts the source; \
         pushback silently stalls and the flood keeps burning upstream \
         bandwidth.",
    )
    .points(["AITF", "pushback"].into_iter().map(|proto| {
        // Shared seed group: the expectation contrasts the two protocols
        // on the same world.
        Params::new()
            .with("protocol", proto)
            .with("_seed_group", 0u64)
    }))
    .runner(|p, ctx| {
        let o = match p.str("protocol") {
            "AITF" => rogue_aitf(ctx.seed, ctx.shards),
            _ => rogue_pushback(ctx.seed, ctx.shards),
        };
        Outcome::new(
            Params::new()
                .with("source_cut", o.source_cut)
                .with("rogue_uplink_pkts_last_5s", o.uplink_carried_late),
        )
        .with_events(o.events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aitf_involvement_is_constant_pushback_grows() {
        let a3 = run_protocol(3, DefensePolicy::Aitf, 1, 1);
        let a5 = run_protocol(5, DefensePolicy::Aitf, 1, 1);
        let p3 = run_protocol(3, DefensePolicy::Pushback, 1, 1);
        let p5 = run_protocol(5, DefensePolicy::Pushback, 1, 1);
        assert_eq!(
            a3.metrics.u64("nodes"),
            a5.metrics.u64("nodes"),
            "{a3:?} vs {a5:?}"
        );
        assert!(
            p5.metrics.u64("nodes") > p3.metrics.u64("nodes"),
            "{p3:?} vs {p5:?}"
        );
        assert!(
            p5.metrics.u64("filters") >= 2 * a5.metrics.u64("filters"),
            "{p5:?} vs {a5:?}"
        );
    }

    #[test]
    fn both_protect_the_victim_in_the_cooperative_case() {
        let a = run_protocol(3, DefensePolicy::Aitf, 2, 1);
        let p = run_protocol(3, DefensePolicy::Pushback, 2, 1);
        assert!(a.metrics.f64("leak") < 0.1, "{a:?}");
        assert!(p.metrics.f64("leak") < 0.1, "{p:?}");
    }

    #[test]
    fn rogue_hop_distinguishes_the_protocols() {
        let ra = rogue_aitf(3, 2);
        let rp = rogue_pushback(3, 1);
        assert!(ra.source_cut, "{ra:?}");
        assert_eq!(ra.uplink_carried_late, 0, "{ra:?}");
        assert!(!rp.source_cut, "{rp:?}");
        assert!(rp.uplink_carried_late > 2000, "{rp:?}");
    }
}
