//! The four frozen workloads.
//!
//! Every constant that shapes what is simulated lives in this file and is
//! built only from the public `aitf_scenario` / `aitf_core` API, so editing
//! an experiment under `crates/bench` can never change what the benchmark
//! measures. `--seed` derives the arrival and run seeds (see
//! [`Seeds`]); rates, sizes, horizons and every AITF config constant are
//! fixed.
//!
//! Each workload carries a few legitimate clients so that
//! `sim_legit_delivery` is defined (and non-zero) everywhere: the driver
//! contract has one list of end-to-end metrics for all workloads.

use aitf_core::{
    AitfConfig, Contract, DefensePolicy, EvictionPolicy, HostPolicy, RouterPolicy, WorldBuilder,
};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    HostSel, PowerLawSpec, Role, TargetSel, TopologySpec, TrafficSpec, WorkloadSpec,
};

/// The victim's tail circuit on every world: the paper's congestible link.
const VICTIM_TAIL_BPS: u64 = 10_000_000;

/// Full-size worlds, or the shrunken `--smoke` stand-ins (same generators
/// and code paths, seconds instead of minutes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    FloodBakeoff,
    FilterChurn,
    MegatreeSharded,
    PowerlawFlash,
}

/// One workload: a name, why it exists, and which policies one pass runs
/// back to back.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub policies: &'static [DefensePolicy],
}

const AITF_ONLY: [DefensePolicy; 1] = [DefensePolicy::Aitf];

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::FloodBakeoff,
        name: "flood_bakeoff",
        why: "tiny star world, four policies back to back: >95% of wall is the event loop \
              (netsim queue/link, core forwarding, defense chains); build-side work must read no change",
        policies: &DefensePolicy::BAKEOFF,
    },
    Workload {
        kind: Kind::FilterChurn,
        name: "filter_churn",
        why: "same tables used for writes: install/evict/expire/reactivate under a 64-entry table \
              plus the request-handshake-escalate control plane beside lookups",
        policies: &AITF_ONLY,
    },
    Workload {
        kind: Kind::MegatreeSharded,
        name: "megatree_sharded",
        why: "105,800-host tree on 2 shards: partition, lookahead windows and barrier replay; \
              every pass must equal the shards=1 reference bit for bit",
        policies: &AITF_ONLY,
    },
    Workload {
        kind: Kind::PowerlawFlash,
        name: "powerlaw_flash",
        why: "100k-net power-law world: setup+teardown are ~60% of a pass and memory peaks; \
              non-spoofing zombies make escalation run at scale",
        policies: &AITF_ONLY,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Everything one policy leg of a pass needs, as plain data.
pub struct LegSpec {
    pub topology: TopologySpec,
    pub config: AitfConfig,
    pub traffic: WorkloadSpec,
    pub duration: SimDuration,
    /// Event-loop shards (1 = the classic loop); never above `nproc`.
    pub shards: usize,
    /// Seed handed to `Scenario::run` / `TopologySpec::build`.
    pub run_seed: u64,
    /// Install the constant-memory victim stream tap at setup.
    pub stream_tap: bool,
}

/// SplitMix64: the benchmark's own seed mixer, so no crate's change of
/// hash can move its inputs.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds one `--seed` expands into. Distinct streams, so changing how
/// one is consumed never shifts another.
///
/// The seed only moves what is statistically equivalent from run to run:
/// which rates `megatree_sharded`'s client crowd draws, when Poisson clients
/// send, the simulator's own stream. Rates, start phases of the constant-rate floods,
/// the power-law graph and where its zombies and its flash crowd sit are
/// fixed: a phase jitter of under a millisecond moves the leak ratio of the
/// star worlds by 2× (drop-tail phase effects), another zombie placement
/// moves `powerlaw_flash`'s event count by 20 %, another crowd placement its
/// per-event cost by 15 % (other paths, other cache lines) and another graph
/// by 4×, which would make runs with different seeds different benchmarks.
struct Seeds {
    arrivals: u64,
    run: u64,
}

fn seeds(seed: u64) -> Seeds {
    let s = |i: u64| splitmix(seed ^ i.wrapping_mul(0xA17F_0000_0001));
    Seeds {
        arrivals: s(2),
        run: s(3),
    }
}

/// Seed of the power-law graph, of where its zombies and its crowd sit and
/// of the crowd's Pareto rate mix (E20's): all part of that world's identity.
const TOPOLOGY_SEED: u64 = 20;

/// A constant-rate Poisson client pool: `legit_pareto` with the cap at the
/// base rate, so every client sends at `pps` with seeded arrivals.
fn poisson_clients(on: HostSel, pps: u64, size: u32, seed: u64) -> TrafficSpec {
    TrafficSpec::legit_pareto(on, TargetSel::Victim, pps, pps, 1.2, size, seed)
}

/// Turns the last host of every `per_spoke`-sized spoke into a compliant
/// legitimate client.
fn last_host_of_each_spoke_is_legit(topo: &mut TopologySpec, per_spoke: usize) {
    let zombies: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    for spoke in zombies.chunks(per_spoke) {
        let &i = spoke.last().expect("non-empty spoke");
        topo.hosts[i].policy = HostPolicy::Compliant;
        topo.hosts[i].role = Role::Legit;
    }
}

/// Generates the spec of one leg. Pure data generation — this is what
/// `scenario.topology_gen_s` times.
pub fn generate(kind: Kind, size: Size, seed: u64, policy: DefensePolicy, nproc: usize) -> LegSpec {
    let s = seeds(seed);
    let full = size == Size::Full;
    let mut leg = match kind {
        Kind::FloodBakeoff => flood_bakeoff(full, &s),
        Kind::FilterChurn => filter_churn(full, &s),
        Kind::MegatreeSharded => megatree_sharded(full, &s, nproc),
        Kind::PowerlawFlash => powerlaw_flash(full, &s),
    };
    leg.config.defense = policy;
    leg
}

/// E19's world: an 8-spoke star, one 1000 pps × 500 B zombie and one
/// 100 pps × 1000 B legitimate client per spoke, 20 simulated seconds.
fn flood_bakeoff(full: bool, s: &Seeds) -> LegSpec {
    let (spokes, secs) = if full { (8, 20) } else { (4, 3) };
    let mut topology = TopologySpec::star(spokes, 2, HostPolicy::Malicious, VICTIM_TAIL_BPS);
    last_host_of_each_spoke_is_legit(&mut topology, 2);
    let config = AitfConfig {
        t_long: SimDuration::from_secs(30),
        ..AitfConfig::default()
    };
    let traffic = WorkloadSpec::new()
        .with(poisson_clients(
            HostSel::Role(Role::Legit),
            100,
            1000,
            s.arrivals,
        ))
        .with(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 1000, 500)
                .staggered(SimDuration::from_millis(10)),
        );
    LegSpec {
        topology,
        config,
        traffic,
        duration: SimDuration::from_secs(secs),
        shards: 1,
        run_seed: s.run,
        stream_tap: false,
    }
}

/// A 49-leaf, two-level tree (4 zombies + 1 legitimate client per leaf)
/// whose 64-entry filter tables are kept busy with *writes*: every zombie
/// cycles a shared 48-address spoof pool (ingress filtering off) and runs an
/// on/off flood against a 4 s filter lifetime. The victim's gateway sees
/// 48 + 196 flow labels against 64 slots (install + evict), the leaf and
/// mid-level gateways hold ~50 (install + expire), and a label blocked at
/// one leaf keeps arriving from the others, so the shadow cache reactivates
/// it and the request escalates.
///
/// Two departures from a plain star, both so the control plane keeps
/// running instead of collapsing: the victim's tail is 1 Gbit/s (on a
/// congested 10 Mbit/s tail every verification query is lost and all
/// handshakes time out), and the tree is two levels deep with `max_round`
/// 2 (on a star, round 2 makes the hub disconnect whole spokes and the rest
/// of the run is administrative drops).
fn filter_churn(full: bool, s: &Seeds) -> LegSpec {
    let (branching, secs) = if full { (7, 10) } else { (2, 4) };
    let mut topology = TopologySpec::tree(2, branching, 5, HostPolicy::Malicious, 1_000_000_000);
    last_host_of_each_spoke_is_legit(&mut topology, 5);
    topology.set_all_net_policies(RouterPolicy {
        ingress_filtering: false,
        ..RouterPolicy::default()
    });
    let config = AitfConfig {
        t_long: SimDuration::from_secs(4),
        detection_delay: SimDuration::from_millis(10),
        // Disconnection would end the churn: a disconnected zombie stops
        // asking for filters.
        grace: SimDuration::from_secs(3600),
        filter_capacity: 64,
        shadow_capacity: 256,
        eviction: EvictionPolicy::EvictSoonestExpiring,
        max_round: 2,
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    };
    let pool = "172.16.0.0/16".parse().expect("valid prefix");
    let traffic = WorkloadSpec::new()
        .with(poisson_clients(
            HostSel::Role(Role::Legit),
            20,
            1000,
            s.arrivals,
        ))
        .with(
            TrafficSpec::spoof(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                200,
                500,
                pool,
                48,
            )
            .staggered(SimDuration::from_micros(137)),
        )
        .with(TrafficSpec::onoff(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            300,
            500,
            SimDuration::from_millis(700),
            SimDuration::from_millis(1300),
        ));
    LegSpec {
        topology,
        config,
        traffic,
        duration: SimDuration::from_secs(secs),
        shards: 1,
        run_seed: s.run,
        stream_tap: false,
    }
}

/// E18's world and config: `tree(2, 23, 200)` = 105,800 hosts, the first
/// 2000 zombies at 50 pps staggered ~1 ms, 5 simulated seconds on 2 shards.
/// The last 32 hosts of the tree are a heavy-tailed legitimate crowd.
fn megatree_sharded(full: bool, s: &Seeds, nproc: usize) -> LegSpec {
    let (branching, per_leaf, zombies, crowd, secs) = if full {
        (23, 200, 2000, 32, 5)
    } else {
        (4, 10, 40, 8, 2)
    };
    let mut topology = TopologySpec::tree(
        2,
        branching,
        per_leaf,
        HostPolicy::Malicious,
        VICTIM_TAIL_BPS,
    );
    let n = topology.hosts.len();
    for host in &mut topology.hosts[n - crowd..] {
        host.policy = HostPolicy::Compliant;
        host.role = Role::Legit;
    }
    let config = AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        filter_capacity: 4096,
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    };
    let traffic = WorkloadSpec::new()
        .with(TrafficSpec::legit_pareto(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            5,
            20,
            1.2,
            1000,
            s.arrivals,
        ))
        .with(
            TrafficSpec::flood(
                HostSel::RoleFirst(Role::Attacker, zombies),
                TargetSel::Victim,
                50,
                500,
            )
            .staggered(SimDuration::from_millis(1)),
        );
    LegSpec {
        topology,
        config,
        traffic,
        duration: SimDuration::from_secs(secs),
        shards: 2.min(nproc),
        run_seed: s.run,
        stream_tap: false,
    }
}

/// E20's world with honest zombies: a 100,000-net power-law graph, a 400-
/// host flash crowd in one half of the edge networks and 32 *non-spoofing*
/// 250 pps zombies in the other, so filtering requests escalate along real
/// provider chains (the E20 audit). The crowd's first 368 hosts send at
/// fixed heavy-tailed rates; its last 32 are 4 pps Poisson clients whose
/// arrival times are all that `--seed` moves in this world.
fn powerlaw_flash(full: bool, s: &Seeds) -> LegSpec {
    let (n_nets, crowd, seeded, zombies, secs) = if full {
        (100_000, 400, 32, 32, 6)
    } else {
        (600, 60, 8, 8, 3)
    };
    let mut topology = TopologySpec::power_law(&PowerLawSpec {
        n_nets,
        skew: 0.8,
        max_depth: 5,
        peering_fraction: 0.002,
        victim_tail_bps: VICTIM_TAIL_BPS,
        seed: TOPOLOGY_SEED,
    });
    // Generated nets start at index 2 (after `core` and `victim_net`).
    let total = topology.nets.len();
    let half = 2 + (total - 2) / 2;
    let host_link = WorldBuilder::default_host_link();
    topology.scatter_hosts(
        2..half,
        crowd,
        Role::Legit,
        HostPolicy::Compliant,
        host_link,
        TOPOLOGY_SEED,
    );
    topology.scatter_hosts(
        half..total,
        zombies,
        Role::Attacker,
        HostPolicy::Malicious,
        host_link,
        TOPOLOGY_SEED,
    );
    let config = AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        filter_capacity: 4096,
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    };
    let traffic = WorkloadSpec::new()
        .with(TrafficSpec::legit_pareto(
            HostSel::RoleFirst(Role::Legit, crowd - seeded),
            TargetSel::Victim,
            1,
            30,
            1.2,
            1000,
            TOPOLOGY_SEED,
        ))
        .with(poisson_clients(
            HostSel::RoleSlice(Role::Legit, crowd - seeded, seeded),
            4,
            1000,
            s.arrivals,
        ))
        .with(
            // 137 µs is coprime to the 4 ms period, so no two zombies ever
            // share a timestamp.
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 250, 500)
                .staggered(SimDuration::from_micros(137)),
        );
    LegSpec {
        topology,
        config,
        traffic,
        duration: SimDuration::from_secs(secs),
        shards: 1,
        run_seed: s.run,
        stream_tap: true,
    }
}
