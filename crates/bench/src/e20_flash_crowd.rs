//! E20 — flash crowd vs DDoS on an Internet-shaped world.
//!
//! The hardest discrimination problem a filtering defense faces is the
//! one the paper's threat model sets up but the star worlds cannot pose:
//! a **flash crowd** (many genuinely-interested low-rate sources) and a
//! **zombie army** (a spoofed flood whose per-source rate is *also* low,
//! because the spoofed pool spreads the aggregate) hitting the same
//! victim at the same time, from a power-law provider graph shaped like
//! the real Internet rather than a star.
//!
//! The world is a ≥100k-network [`TopologySpec::power_law`] graph
//! (preferential attachment, capped provider depth, peering shortcuts)
//! built under hierarchical routing, so construction and routing state
//! stay O(n). The flash crowd is heavy-tailed
//! ([`TrafficSpec::legit_pareto`]: Pareto per-host rates, Poisson
//! arrivals) and scattered over one half of the edge networks; the
//! zombies sit in the other half, each spraying a spoofed source pool.
//! Every [`DefensePolicy::BAKEOFF`] policy runs the identical world and
//! seed, so the rows rank pure discrimination:
//!
//! - `leak_r` / `legit_frac` — how much attack leaks through vs how much
//!   of the crowd survives (the collateral-damage axis);
//! - `hh_attack_frac` — attack share of the victim's heavy-hitter
//!   traffic, measured by the constant-memory streaming probe
//!   ([`ProbeSet::streaming_victim`]): count-min sketches + top-k +
//!   a size reservoir, O(1) per delivered packet;
//! - `probe_bytes` — the probe's memory, pinned flat by CI however large
//!   the world (the metric behind the peak-RSS gate).
//!
//! Expectation: AITF blocks the spoofed flows near their origins and
//! keeps most of the crowd; ingress rate-limiting and path stamping cap
//! the flood but tax crowd members sharing prefixes/origins with
//! zombies, so their `legit_frac` drops.

use aitf_core::{AitfConfig, Contract, DefensePolicy, HostPolicy, NetId};
use aitf_engine::{Params, ScenarioSpec};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, PowerLawSpec, ProbeSet, Role, Scenario, StreamProbeConfig, TargetSel, TopologySpec,
    TrafficSpec,
};

use crate::harness::run_scenario;

/// Edge networks in the power-law graph (quick mode keeps the issue's
/// 100k-net floor; full mode doubles it).
const NETS_QUICK: usize = 100_000;
const NETS_FULL: usize = 200_000;

/// Flash-crowd size (hosts) and its Pareto rate mix: base 1 pps, capped
/// at 30, shape 1.2 — mean ≈ 6 pps of 1000-byte requests per member, a
/// few elephants near the cap.
const CROWD_QUICK: usize = 400;
const CROWD_FULL: usize = 1200;
const CROWD_BASE_PPS: u64 = 1;
const CROWD_CAP_PPS: u64 = 30;
const CROWD_ALPHA: f64 = 1.2;
const CROWD_SIZE: u32 = 1000;

/// Zombie hosts and their spoofed flood: each sprays `SPOOF_PPS` over a
/// shared `SPOOF_POOL_SIZE`-address pool, so per spoofed *source* the
/// rate is crowd-like — the discrimination challenge.
const ZOMBIES_QUICK: usize = 32;
const ZOMBIES_FULL: usize = 96;
const SPOOF_PPS: u64 = 250;
const SPOOF_SIZE: u32 = 500;
const SPOOF_POOL_SIZE: u32 = 50;

/// Topology seed — part of the world's identity, independent of the run
/// seed.
const TOPO_SEED: u64 = 20;

fn config(defense: DefensePolicy) -> AitfConfig {
    AitfConfig {
        defense,
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        filter_capacity: 4096,
        // Internet-sized request budgets, as in E18: the scale question
        // here is discrimination, not gateway throttling (E3/E4).
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    }
}

/// The shared world: crowd scattered over the first half of the
/// generated edge networks, zombies over the second half.
fn topology(n_nets: usize, crowd: usize, zombies: usize) -> TopologySpec {
    let mut topo = TopologySpec::power_law(&PowerLawSpec {
        n_nets,
        skew: 0.8,
        max_depth: 5,
        peering_fraction: 0.002,
        victim_tail_bps: 10_000_000,
        seed: TOPO_SEED,
    });
    // Generated nets start at index 2 (after `core` and `victim_net`).
    let total = topo.nets.len();
    let half = 2 + (total - 2) / 2;
    // The zombie half does not ingress-filter — most real networks don't
    // (the paper's §III-A incentive argument, measured in E9), and with
    // filtering on, the spoofed pool would die at the zombies' own
    // gateways and there would be no discrimination problem to solve.
    for net in &mut topo.nets[half..] {
        net.policy.ingress_filtering = false;
    }
    let host_link = aitf_core::WorldBuilder::default_host_link();
    topo.scatter_hosts(
        2..half,
        crowd,
        Role::Legit,
        HostPolicy::Compliant,
        host_link,
        0xE20_0001,
    );
    topo.scatter_hosts(
        half..total,
        zombies,
        Role::Attacker,
        HostPolicy::Malicious,
        host_link,
        0xE20_0002,
    );
    topo
}

/// One policy's scenario on the shared world.
pub fn scenario(
    n_nets: usize,
    crowd: usize,
    zombies: usize,
    duration: SimDuration,
    policy: DefensePolicy,
) -> Scenario {
    let pool: aitf_packet::Prefix = "172.16.0.0/16".parse().expect("valid prefix");
    Scenario::new(topology(n_nets, crowd, zombies))
        .config(config(policy))
        .duration(duration)
        // The crowd's Poisson arrivals desynchronize its sources; the
        // zombies are staggered off their shared 4 ms period lattice (137
        // µs is coprime to it) so no two of them ever share a timestamp —
        // same-timestamp events from different shards have no guaranteed
        // relative order, and per-flow state (the route-record cache)
        // must not depend on one.
        .traffic(TrafficSpec::legit_pareto(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            CROWD_BASE_PPS,
            CROWD_CAP_PPS,
            CROWD_ALPHA,
            CROWD_SIZE,
            TOPO_SEED,
        ))
        .traffic(
            TrafficSpec::spoof(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                SPOOF_PPS,
                SPOOF_SIZE,
                pool,
                SPOOF_POOL_SIZE,
            )
            .staggered(SimDuration::from_micros(137)),
        )
        .probes(
            ProbeSet::new()
                .leak_ratio("leak_r")
                .legit_delivery("legit_frac")
                .streaming_victim(StreamProbeConfig {
                    top_k: 10,
                    ..StreamProbeConfig::default()
                })
                .end(|w, m| {
                    let footprint: usize = (0..w.world.net_count())
                        .map(|i| w.world.router(NetId(i)).defense_footprint())
                        .sum();
                    m.set("footprint", footprint as u64);
                }),
        )
}

/// The E20 scenario spec: one point per [`DefensePolicy::BAKEOFF`]
/// entry, all sharing one seed group — the rows differ only in the
/// defense, exactly like E19's bake-off, on a world 10,000× larger.
pub fn spec(quick: bool) -> ScenarioSpec {
    let (n_nets, crowd, zombies, secs) = if quick {
        (NETS_QUICK, CROWD_QUICK, ZOMBIES_QUICK, 3)
    } else {
        (NETS_FULL, CROWD_FULL, ZOMBIES_FULL, 6)
    };
    ScenarioSpec::new(
        "e20_flash_crowd",
        "E20 (flash crowd vs DDoS): discrimination on a 100k-net power-law world",
        "§I threat model + §III-C at Internet shape",
    )
    .expectation(
        "AITF filters the spoofed flows at their origin providers and \
         delivers most of the flash crowd; rate-limiting and path \
         stamping cap the flood but tax crowd members behind shared \
         prefixes/origins, dropping their legit_frac. The streaming \
         probe's hh_attack_frac shows the victim's heavy hitters are the \
         spoofed sources, at O(1) memory per delivered packet.",
    )
    .points(DefensePolicy::BAKEOFF.iter().map(|&p| {
        Params::new()
            .with("defense", p.name())
            .with("_seed_group", 0u64)
    }))
    .runner(run_scenario(move |p| {
        let policy = DefensePolicy::from_name(p.str("defense")).expect("bake-off policy name");
        scenario(n_nets, crowd, zombies, SimDuration::from_secs(secs), policy)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_engine::Outcome;

    /// A shrunken stand-in (same generators, 600 nets) so the unit suite
    /// checks discrimination and the sharded path without paying for the
    /// 100k-net build.
    fn small(policy: DefensePolicy, seed: u64, shards: usize) -> Outcome {
        scenario(600, 60, 8, SimDuration::from_secs(3), policy)
            .shards(shards)
            .run(seed)
    }

    #[test]
    fn aitf_discriminates_crowd_from_zombies() {
        let o = small(DefensePolicy::Aitf, 7, 1);
        assert!(o.metrics.f64("leak_r") < 0.25, "{o:?}");
        assert!(o.metrics.f64("legit_frac") > 0.5, "{o:?}");
        assert!(o.events > 0);
    }

    #[test]
    fn heavy_hitters_discriminate_the_spoofed_pool() {
        // Under a defense that never filters per-flow at the source
        // (ingress rate-limiting), the victim keeps receiving attack
        // packets all run, so spoofed sources place among the streaming
        // probe's heavy hitters — and the paired sketches classify them
        // exactly: pool sources are pure attack, crowd sources pure
        // legit.
        let o = scenario(
            600,
            60,
            24,
            SimDuration::from_secs(3),
            DefensePolicy::ingress_ratelimit(),
        )
        .run(7);
        assert!(o.metrics.f64("hh_attack_frac") > 0.3, "{o:?}");
        let srcs = o.metrics.u64_list("hh_srcs");
        let pkts = o.metrics.u64_list("hh_pkts");
        let attack = o.metrics.u64_list("hh_attack_pkts");
        assert!(!srcs.is_empty());
        // Spoofed sources come from 172.16.0.0/16.
        let pool_base = u32::from_be_bytes([172, 16, 0, 0]) as u64;
        let in_pool = |s: u64| (pool_base..pool_base + (1 << 16)).contains(&s);
        assert!(
            srcs.iter().copied().filter(|&s| in_pool(s)).count() >= 3,
            "{srcs:?}"
        );
        for ((&s, &p), &a) in srcs.iter().zip(pkts.iter()).zip(attack.iter()) {
            if in_pool(s) {
                assert_eq!(a, p, "pool source {s} should be pure attack: {o:?}");
            } else {
                assert_eq!(a, 0, "crowd source {s} should be pure legit: {o:?}");
            }
        }
    }

    #[test]
    fn probe_memory_is_flat_across_world_sizes() {
        // The streaming probe's whole point: its footprint depends only
        // on its config, not on the world or the traffic.
        let small_world = small(DefensePolicy::Aitf, 3, 1);
        let larger = scenario(
            1200,
            120,
            16,
            SimDuration::from_secs(3),
            DefensePolicy::Aitf,
        )
        .run(3);
        assert_eq!(
            small_world.metrics.u64("probe_bytes"),
            larger.metrics.u64("probe_bytes")
        );
        assert!(small_world.metrics.u64("probe_bytes") > 0);
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let single = small(DefensePolicy::Aitf, 7, 1);
        for shards in [2, 4] {
            let sharded = small(DefensePolicy::Aitf, 7, shards);
            assert_eq!(single.metrics, sharded.metrics, "shards = {shards}");
            assert_eq!(single.events, sharded.events, "shards = {shards}");
        }
    }

    #[test]
    fn bakeoff_rows_share_one_seed_and_the_quick_world_hits_100k_nets() {
        let s = spec(true);
        assert_eq!(s.points.len(), 4);
        let seeds: Vec<u64> = (0..4).map(|i| s.seed_for(42, i)).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]), "{seeds:?}");
        const { assert!(NETS_QUICK >= 100_000) };
    }
}
