//! Request conservation under random partial deployment.
//!
//! The deployment-aware escalation paths reroute filtering requests
//! around legacy providers; whatever subset of the networks drops out of
//! AITF, no request may simply *vanish*. Every border router accounts
//! each received request in exactly one bucket:
//!
//! ```text
//! received == policed + ignored + invalid + refreshed
//!           + unsatisfiable + accepted
//! ```
//!
//! (`accepted` covers "work committed": temporary filter installed on the
//! victim side, verification handshake started, or long filter installed
//! on the attacker side. The identity is **exact at any table capacity**:
//! a request whose handshake was accepted but whose deferred
//! handshake-confirm install then hits a full table stays `accepted` and
//! is tallied in the separate non-identity `deferred_unsatisfied`
//! counter, never double-counted into `unsatisfiable`.)
//!
//! The test drives a two-level provider tree through every one of its
//! 2^8 legacy/AITF subsets — including worlds where the victim's own
//! gateway, the hub, or the whole attacker side is legacy — and checks
//! the identity at every router after the flood has provoked detection,
//! escalation and (where possible) filtering. The same tree, all AITF,
//! then runs every bake-off defense, whose request handlers return their
//! outcome to the same counting site.

use aitf_core::{AitfConfig, DefensePolicy, HostPolicy, NetId, RouterCounters, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};

/// The test world: hub + victim_net + 2 mid providers + 4 leaf networks,
/// one zombie per leaf.
fn topology() -> TopologySpec {
    TopologySpec::tree(2, 2, 1, HostPolicy::Malicious, 10_000_000)
}

/// The right-hand side of the identity: `c`'s requests counted in a bucket.
fn bucketed(c: &RouterCounters) -> u64 {
    c.requests_policed
        + c.requests_ignored
        + c.requests_invalid
        + c.requests_refreshed
        + c.requests_unsatisfiable
        + c.requests_accepted
}

/// The test flood: every attacker at 200 pps, 400 B packets.
fn flood() -> TrafficSpec {
    TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 200, 400)
}

/// [`topology`] with every network `legacy` picks declared legacy.
fn topology_with_legacy(legacy: impl Fn(usize, &str) -> bool) -> TopologySpec {
    let mut topo = topology();
    let names: Vec<String> = topo.nets.iter().map(|n| n.name.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        if legacy(i, name) {
            topo.set_net_policy(name, RouterPolicy::legacy());
        }
    }
    topo
}

#[test]
fn every_legacy_subset_never_loses_a_request() {
    assert_eq!(topology().nets.len(), 8, "one mask bit per network");
    for mask in 0u32..256 {
        let scenario = Scenario::new(topology_with_legacy(|i, _| mask & (1 << i) != 0))
            .config(AitfConfig::default())
            .duration(SimDuration::from_secs(2))
            .traffic(flood());
        // The escape hatch: run by hand so the raw router counters stay
        // inspectable after the horizon.
        let mut world = scenario.build(7);
        world.world.sim.run_for(SimDuration::from_secs(2));

        let net_count = world.world.net_count();
        let mut total_received = 0u64;
        for i in 0..net_count {
            let c = world.world.router(NetId(i)).counters();
            total_received += c.requests_received;
            assert_eq!(
                c.requests_received,
                bucketed(&c),
                "router {i} lost a request under legacy mask {mask:#010b}: {c:?}"
            );
        }
        // Non-triviality: the victim always detects the flood and asks
        // its gateway, and that request is received (and then accounted
        // above) whether or not the gateway runs AITF.
        let victim = world.victim();
        assert!(world.world.host(victim).counters().requests_sent >= 1);
        assert!(total_received >= 1, "mask {mask:#010b}");
    }
}

/// The regression the identity used to have: a starved filter table makes
/// the *deferred* handshake-confirm install fail with TableFull. That
/// request was already counted `accepted` when its handshake started, so
/// it must land in `deferred_unsatisfied` — not `unsatisfiable` — and the
/// identity must stay strict.
#[test]
fn full_tables_on_the_deferred_confirm_path_keep_the_identity_strict() {
    let cfg = AitfConfig {
        // One slot per router. With every attacker-side net below legacy,
        // all four flows' requests target the hub; the first confirmed
        // handshake's long filter holds the hub's only slot for T, and
        // every later confirm (of a flow retried via fast_reblock once
        // the victim gateway's temp slot frees) hits TableFull on the
        // deferred path.
        filter_capacity: 1,
        ..AitfConfig::default()
    };
    let topo = topology_with_legacy(|_, name| name != "hub" && name != "victim_net");
    let scenario = Scenario::new(topo)
        .config(cfg)
        .duration(SimDuration::from_secs(4))
        .traffic(flood());
    let mut world = scenario.build(7);
    world.world.sim.run_for(SimDuration::from_secs(4));

    let mut total_received = 0u64;
    let mut total_deferred = 0u64;
    let mut total_confirmed = 0u64;
    for i in 0..world.world.net_count() {
        let c = world.world.router(NetId(i)).counters();
        total_received += c.requests_received;
        total_deferred += c.deferred_unsatisfied;
        total_confirmed += c.handshakes_confirmed;
        assert_eq!(
            c.requests_received,
            bucketed(&c),
            "router {i} broke the identity under capacity 1: {c:?}"
        );
    }
    assert!(total_received >= 1);
    // Non-triviality: the starved tables actually exercised the deferred
    // TableFull path this test exists for.
    assert!(
        total_confirmed >= 1,
        "no handshake ever confirmed; the deferred path never ran"
    );
    assert!(
        total_deferred >= 1,
        "capacity 1 never starved a deferred confirm; the regression path \
         went unexercised"
    );
}

/// Every bake-off defense on the all-AITF tree: AITF, ingress
/// rate-limiting and path stamping keep the identity at every router.
/// Pushback is the one known exception (ROADMAP item 1): its edge trigger
/// counts a request received and in no bucket, so its routers hold
/// received requests and empty buckets.
#[test]
fn every_bakeoff_policy_keeps_the_request_identity() {
    for policy in DefensePolicy::BAKEOFF {
        let scenario = Scenario::new(topology())
            .config(AitfConfig {
                defense: policy,
                ..AitfConfig::default()
            })
            .duration(SimDuration::from_secs(2))
            .traffic(flood());
        let mut world = scenario.build(7);
        world.world.sim.run_for(SimDuration::from_secs(2));

        let (mut received, mut in_buckets) = (0u64, 0u64);
        for i in 0..world.world.net_count() {
            let c = world.world.router(NetId(i)).counters();
            received += c.requests_received;
            in_buckets += bucketed(&c);
            if policy != DefensePolicy::Pushback {
                assert_eq!(
                    c.requests_received,
                    bucketed(&c),
                    "router {i} lost a request under {policy:?}: {c:?}"
                );
            }
        }
        // Non-triviality: the victim's request reached a router.
        assert!(received >= 1, "{policy:?}: no request received");
        if policy == DefensePolicy::Pushback {
            assert_eq!(in_buckets, 0, "pushback's edge trigger found a bucket");
        }
    }
}
