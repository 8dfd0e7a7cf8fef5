//! World builder: assembles AITF networks, hosts and routing into a
//! runnable simulation.
//!
//! An *AITF network* (Section II-A) is an Autonomous Domain fronted by one
//! border router, with filtering contracts towards its end-hosts and its
//! neighbour ADs. The builder mirrors the paper's Figure 1: networks form
//! a provider hierarchy (`G_net ⊂ G_isp ⊂ G_wan`), top-level ADs peer with
//! each other, and end hosts hang off their network's border router
//! through a tail circuit.
//!
//! What the routers read is the declaration itself, stored once per world
//! in one shared, immutable wiring value kept after [`WorldBuilder::build`]
//! returns: the networks' prefixes in address order, the provider tree
//! (parents, uplinks, router addresses), each network's tail circuits and
//! peerings, and under all-pairs routing the next-hop matrix. Every route,
//! ingress verdict and escalation target is answered from it, so no
//! router holds a table of its own; what a router writes (counters, filter
//! tables, control state) is made by the first event that needs it.
//!
//! # Examples
//!
//! ```
//! use aitf_core::{AitfConfig, WorldBuilder};
//! use aitf_netsim::SimDuration;
//!
//! let mut b = WorldBuilder::new(42, AitfConfig::default());
//! let wan = b.network("wan", "10.100.0.0/16", None);
//! let net = b.network("net", "10.1.0.0/16", Some(wan));
//! let host = b.host(net);
//! let mut world = b.build();
//! world.sim.run_for(SimDuration::from_secs(1));
//! assert!(world.host_addr(host).to_string().starts_with("10.1."));
//! ```

use std::any::Any;
use std::fmt;
use std::sync::{Arc, RwLock};

use aitf_netsim::{
    Buckets, LinkDirection, LinkId, LinkParams, NetworkBuilder, NextHops, NodeId, PartitionSpec,
    SimDuration, Simulator,
};
use aitf_packet::{Addr, Prefix, PrefixMap};

use crate::config::{AitfConfig, HostPolicy, RouterPolicy};
use crate::host::{EndHost, TrafficApp, VictimAgent};
use crate::router::{BorderRouter, DataState, RouterSpec, Wiring};

/// How routers forward towards the declared networks.
///
/// Either way a host of a router's own network goes down its tail circuit,
/// and any other destination is first mapped to the one declared network
/// holding it. [`RoutingMode::AllPairs`] then takes the next hop towards
/// that network's router from a fewest-hop path over the router backbone,
/// one breadth-first search per router — correct for arbitrary graphs, but
/// O(n·(n + e)) build time for e links and an n² table of `u32`, which is
/// prohibitive past a few thousand networks.
/// [`RoutingMode::Hierarchical`] exploits the provider-tree structure the
/// builder already enforces: across the last-declared peering whose far
/// side's customer cone holds the network, else down the uplink of the
/// client whose cone holds it, else up the default route — answered by
/// walking the network's provider chain, so no router holds any route and
/// the routing state is the O(n) tree itself. On any tree-plus-peering
/// topology (stars, trees, the power-law generators) both modes forward
/// every packet *for a declared network* over the same links. They are not
/// interchangeable: a destination in no declared network is dropped at the
/// first gateway under all-pairs and carried to the provider root under
/// default routes, so recorded event counts differ — which is why both
/// stay, selected by the generators from world size.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingMode {
    /// All-pairs fewest-hop paths over the router backbone (the default).
    #[default]
    AllPairs,
    /// Provider-tree routing: default-up, subtree-down, peering shortcuts.
    Hierarchical,
}

/// Handle to a network (AD) in a [`WorldBuilder`] / [`World`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NetId(pub usize);

/// Handle to an end host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HostId(pub usize);

/// How a message names a network: its name, quoted, or `#index (prefix)`
/// for an anonymous one (empty name), as the generated networks of an
/// internet-scale world are. The alternate form (`{:#}`) always shows the
/// prefix.
#[derive(Clone, Copy, Debug)]
pub struct NetLabel<'a> {
    /// The network's name; empty for an anonymous network.
    pub name: &'a str,
    /// The network's declaration index.
    pub index: usize,
    /// The network's prefix.
    pub prefix: Prefix,
}

impl fmt::Display for NetLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name {
            "" => write!(f, "#{} ({})", self.index, self.prefix),
            name if f.alternate() => write!(f, "{name:?} ({})", self.prefix),
            name => write!(f, "{name:?}"),
        }
    }
}

struct NetSpec {
    name: String,
    prefix: Prefix,
    parent: Option<usize>,
    policy: RouterPolicy,
    uplink_params: LinkParams,
}

impl NetSpec {
    fn label(&self, index: usize) -> NetLabel<'_> {
        NetLabel {
            name: &self.name,
            index,
            prefix: self.prefix,
        }
    }
}

struct HostSpec {
    net: usize,
    policy: HostPolicy,
    link_params: LinkParams,
}

/// The networks' prefixes in address order, each with its network's index.
///
/// Declared prefixes must be pairwise disjoint in either routing mode —
/// nested networks are rejected too — and prefixes either nest or are
/// disjoint, so in address order an overlapping pair is always adjacent:
/// the one sort that checks the whole declaration is also the list the
/// world's address map is built from.
///
/// # Panics
///
/// Panics if two networks' prefixes overlap, naming the later-declared
/// prefix and the earlier-declared network.
fn address_order(nets: &[NetSpec]) -> Vec<(Prefix, u32)> {
    let count = u32::try_from(nets.len()).expect("network count fits u32");
    let mut by_addr: Vec<(Prefix, u32)> = nets.iter().map(|n| n.prefix).zip(0..count).collect();
    by_addr.sort_unstable();
    if let Some(w) = by_addr.windows(2).find(|w| w[0].0.overlaps(w[1].0)) {
        let (earlier, later) = (w[0].1.min(w[1].1) as usize, w[0].1.max(w[1].1) as usize);
        panic!(
            "prefix {} overlaps existing network {}",
            nets[later].prefix,
            nets[earlier].label(earlier)
        );
    }
    by_addr
}

/// Builder for an AITF world.
pub struct WorldBuilder {
    seed: u64,
    cfg: AitfConfig,
    nets: Vec<NetSpec>,
    hosts: Vec<HostSpec>,
    peerings: Vec<(usize, usize, LinkParams)>,
    routing: RoutingMode,
}

impl WorldBuilder {
    /// Default inter-network link: 1 Gbit/s, 10 ms, fat queue.
    pub fn default_net_link() -> LinkParams {
        LinkParams::ethernet(1_000_000_000, SimDuration::from_millis(10)).with_queue_bytes(1 << 20)
    }

    /// Default tail circuit: 10 Mbit/s, 5 ms, shallow queue — the paper's
    /// introduction example of a link an attacker can congest.
    pub fn default_host_link() -> LinkParams {
        LinkParams::ethernet(10_000_000, SimDuration::from_millis(5))
    }

    /// Creates a builder.
    pub fn new(seed: u64, cfg: AitfConfig) -> Self {
        WorldBuilder {
            seed,
            cfg,
            nets: Vec::new(),
            hosts: Vec::new(),
            peerings: Vec::new(),
            routing: RoutingMode::default(),
        }
    }

    /// Selects the routing mode.
    pub fn routing(&mut self, mode: RoutingMode) -> &mut Self {
        self.routing = mode;
        self
    }

    /// Declares a network with the default router policy and uplink, its
    /// prefix written `a.b.c.d/len`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` does not parse, naming the network and the
    /// literal; otherwise as [`WorldBuilder::network_with`].
    pub fn network(&mut self, name: &str, prefix: &str, parent: Option<NetId>) -> NetId {
        let prefix: Prefix = prefix
            .parse()
            .unwrap_or_else(|_| panic!("network {name:?} has an unparsable prefix {prefix:?}"));
        self.network_with(
            name,
            &prefix,
            parent,
            RouterPolicy::default(),
            Self::default_net_link(),
        )
    }

    /// Declares a network with explicit policy and uplink parameters. An
    /// empty `name` declares an anonymous network: messages name it by
    /// index and prefix.
    ///
    /// # Panics
    ///
    /// Panics if `parent` was not returned by this builder. A prefix that
    /// overlaps another network's is rejected by [`WorldBuilder::build`],
    /// which checks all of them in one pass.
    pub fn network_with(
        &mut self,
        name: &str,
        prefix: &Prefix,
        parent: Option<NetId>,
        policy: RouterPolicy,
        uplink_params: LinkParams,
    ) -> NetId {
        let net = NetSpec {
            name: name.to_string(),
            prefix: *prefix,
            parent: parent.map(|p| p.0),
            policy,
            uplink_params,
        };
        let id = NetId(self.nets.len());
        assert!(
            parent.is_none_or(|p| p.0 < id.0),
            "parent of network {} is not a network of this builder",
            net.label(id.0)
        );
        self.nets.push(net);
        id
    }

    /// Overrides a network's router policy before building.
    pub fn set_router_policy(&mut self, net: NetId, policy: RouterPolicy) {
        self.nets[net.0].policy = policy;
    }

    /// Adds a compliant host with the default tail circuit.
    pub fn host(&mut self, net: NetId) -> HostId {
        self.host_with(net, HostPolicy::Compliant, Self::default_host_link())
    }

    /// Adds a host with explicit policy and tail-circuit parameters.
    pub fn host_with(&mut self, net: NetId, policy: HostPolicy, link_params: LinkParams) -> HostId {
        let id = HostId(self.hosts.len());
        self.hosts.push(HostSpec {
            net: net.0,
            policy,
            link_params,
        });
        id
    }

    /// Connects two (typically top-level) networks as peers.
    pub fn peer(&mut self, a: NetId, b: NetId, params: LinkParams) {
        self.peerings.push((a.0, b.0, params));
    }

    /// Assembles the simulator, routing state and protocol nodes, with
    /// [`BorderRouter`]s at every network. Which defense the routers run
    /// is the configuration's [`crate::AitfConfig::defense`] policy — the
    /// pushback baseline and the other bake-off defenses reuse all the
    /// topology, addressing and routing machinery through their hook
    /// chains instead of substituting a different node type.
    ///
    /// What is per world is one array here — the address order, the
    /// provider tree, each network's hosts and peers — and nothing per
    /// network is copied, sorted or allocated twice on the way into its
    /// router. What the routers read stays that way after the build: one
    /// `Wiring` per world holds the declaration every route, ingress
    /// verdict and escalation target is answered from, and a router holds
    /// its network index into it, so a router no packet reaches is its
    /// wiring and owns no heap memory.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent input: two networks whose prefixes overlap, a
    /// network with more than 250 hosts, or a disconnected topology being
    /// asked to route.
    pub fn build(self) -> World {
        // Hosts make their victim agent on first use; making one here keeps
        // a config no agent can be made from a build-time failure.
        drop(VictimAgent::new(&self.cfg));
        // One config for the whole world, shared by every node.
        let cfg = Arc::new(self.cfg);
        let n = self.nets.len();
        let net_map = PrefixMap::new(&address_order(&self.nets));
        let mut nb = NetworkBuilder::new(self.seed);

        // One node per router, one per host.
        let router_nodes: Vec<NodeId> = self.nets.iter().map(|_| nb.add_node()).collect();
        let host_nodes: Vec<NodeId> = self.hosts.iter().map(|_| nb.add_node()).collect();

        // Links: child → parent uplinks, host tail circuits, peerings.
        let mut uplinks: Vec<Option<LinkId>> = vec![None; n];
        for (i, net) in self.nets.iter().enumerate() {
            if let Some(p) = net.parent {
                uplinks[i] = Some(nb.connect(router_nodes[i], router_nodes[p], net.uplink_params));
            }
        }
        let tail_links: Vec<LinkId> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| nb.connect(host_nodes[i], router_nodes[h.net], h.link_params))
            .collect();
        let peer_links: Vec<LinkId> = self
            .peerings
            .iter()
            .map(|&(a, b, params)| nb.connect(router_nodes[a], router_nodes[b], params))
            .collect();

        let mut sim = nb.build();

        // Who hangs off whom, each as one counting sort.
        let parent: Vec<Option<usize>> = self.nets.iter().map(|net| net.parent).collect();
        let homes = self.hosts.iter().enumerate();
        let hosts_of_net = Buckets::group(n, homes.map(|(h, hspec)| (hspec.net, h)));
        let hosts = self.hosts.iter().zip(&tail_links);
        let tails = Buckets::group(n, hosts.map(|(h, &link)| (h.net, link)));
        let peerings = self.peerings.iter().zip(&peer_links);
        let peers = Buckets::group(
            n,
            peerings.flat_map(|(&(a, b, _), &link)| [(a, (b, link)), (b, (a, link))]),
        );

        // Address assignment: router = .254 of the first /24, hosts from 1
        // — host `k` of a network is its prefix's address `k + 1`, which is
        // how a router finds a host's tail circuit.
        let router_addr: Vec<Addr> = self.nets.iter().map(|n| n.prefix.host_at(254)).collect();
        let mut host_addr = vec![Addr::ZERO; self.hosts.len()];
        for (i, net) in self.nets.iter().enumerate() {
            let hosts = hosts_of_net.of(i);
            assert!(
                hosts.len() <= 250,
                "network {} has {} hosts; a network holds at most 250",
                net.label(i),
                hosts.len()
            );
            for (&h, k) in hosts.iter().zip(1..) {
                host_addr[h] = net.prefix.host_at(k);
            }
        }

        // All-pairs routing runs one breadth-first search per router over
        // the router backbone — one next hop per remote network, the
        // aggregation a real AS-level forwarding table has, at O(n·(n + e))
        // build cost and n² memory. Hosts are leaves on their tail circuit
        // and can never be transit.
        debug_assert!(router_nodes.iter().enumerate().all(|(i, n)| n.0 == i));
        let hops = (self.routing == RoutingMode::AllPairs).then(|| {
            let up = (0..n).filter_map(|i| Some((i, parent[i]?, uplinks[i]?)));
            let across = self.peerings.iter().zip(&peer_links);
            let backbone: Vec<(NodeId, NodeId, LinkId)> = up
                .chain(across.map(|(&(a, b, _), &link)| (a, b, link)))
                .map(|(a, b, link)| (router_nodes[a], router_nodes[b], link))
                .collect();
            NextHops::compute(n, &backbone)
        });
        // A router with no client network and no peering sends everything
        // but its own hosts' traffic up its uplink.
        let mut stub: Vec<bool> = (0..n).map(|i| peers.of(i).is_empty()).collect();
        for &p in parent.iter().flatten() {
            stub[p] = false;
        }

        // What every router reads, as one value for the world, the
        // deployment view seeded with the routers built not to run AITF.
        let legacy = self.nets.iter().zip(&router_addr);
        let legacy = legacy.filter(|(net, _)| !net.policy.aitf_enabled);
        let legacy = RwLock::new(legacy.map(|(_, &addr)| addr).collect());
        let wiring = Arc::new(Wiring {
            net_map,
            parent,
            uplink: uplinks,
            router_addr,
            tails,
            peers,
            hops,
            idle: DataState::new(&cfg),
            legacy,
        });

        // Install routers.
        for (i, net) in self.nets.iter().enumerate() {
            let spec = RouterSpec {
                addr: wiring.router_addr[i],
                prefix: net.prefix,
                net: i,
                stub: stub[i],
                uplink: wiring.uplink[i],
                wiring: Arc::clone(&wiring),
                config: Arc::clone(&cfg),
                policy: net.policy,
            };
            sim.install(router_nodes[i], Box::new(BorderRouter::new(spec)));
        }

        // Install hosts.
        for (h, hspec) in self.hosts.iter().enumerate() {
            let host = EndHost::new(
                host_addr[h],
                wiring.router_addr[hspec.net],
                tail_links[h],
                Arc::clone(&cfg),
                hspec.policy,
            );
            sim.install(host_nodes[h], Box::new(host));
        }

        World {
            sim,
            cfg,
            net_prefixes: self.nets.iter().map(|n| n.prefix).collect(),
            router_nodes,
            host_nodes,
            host_addr,
            host_net: self.hosts.iter().map(|h| h.net).collect(),
            net_cooperating: self
                .nets
                .iter()
                .map(|n| n.policy.aitf_enabled && n.policy.cooperating)
                .collect(),
            tail_links,
            wiring,
            // Last: the names move out of the declarations.
            net_names: self.nets.into_iter().map(|n| n.name).collect(),
        }
    }
}

/// Shard-hint load of one traffic app, in idle nodes. An idle node
/// dispatches no event at all, so any ratio understates a sender; 256 is
/// the first power of two above the largest network (250 hosts and a
/// router), which makes one sending host outweigh any idle network.
/// Measured on the 105,800-host megatree (2,032 of its hosts send): the
/// event split between two shards goes from 90.6 / 9.4 % by node count to
/// 43 / 57 %, and reads the same for any value from 8 up.
const APP_LOAD: u64 = 256;

/// A built AITF world: the simulator plus the name/address bookkeeping the
/// experiment harness needs.
pub struct World {
    /// The underlying simulator; run it with `run_for`/`run_until`.
    pub sim: Simulator,
    /// The configuration the world was built with — the one copy every
    /// router and host of the world shares.
    pub cfg: Arc<AitfConfig>,
    net_names: Vec<String>,
    net_prefixes: Vec<Prefix>,
    router_nodes: Vec<NodeId>,
    host_nodes: Vec<NodeId>,
    host_addr: Vec<Addr>,
    host_net: Vec<usize>,
    /// Build-time `aitf_enabled && cooperating` per network; drives the
    /// shard-hint merging of [`World::shard_hints`].
    net_cooperating: Vec<bool>,
    tail_links: Vec<LinkId>,
    /// What the routers read: the world's parent, uplink and router-address
    /// arrays among it.
    wiring: Arc<Wiring>,
}

impl World {
    /// Number of networks.
    pub fn net_count(&self) -> usize {
        self.router_nodes.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// A network's display name; empty for an anonymous network.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// How a message names a network: see [`NetLabel`].
    pub fn net_label(&self, net: NetId) -> NetLabel<'_> {
        NetLabel {
            name: &self.net_names[net.0],
            index: net.0,
            prefix: self.net_prefixes[net.0],
        }
    }

    /// A network's prefix.
    pub fn net_prefix(&self, net: NetId) -> Prefix {
        self.net_prefixes[net.0]
    }

    /// A network's border-router address.
    pub fn router_addr(&self, net: NetId) -> Addr {
        self.wiring.router_addr[net.0]
    }

    /// A network's border-router node id.
    pub fn router_node(&self, net: NetId) -> NodeId {
        self.router_nodes[net.0]
    }

    /// A host's address.
    pub fn host_addr(&self, host: HostId) -> Addr {
        self.host_addr[host.0]
    }

    /// A host's node id.
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.host_nodes[host.0]
    }

    /// The network a host belongs to.
    pub fn host_net(&self, host: HostId) -> NetId {
        NetId(self.host_net[host.0])
    }

    /// Whether span recording is compiled in (the `trace` feature).
    pub fn tracing_enabled(&self) -> bool {
        aitf_trace::Tracer::ENABLED
    }

    /// The world's escalation span tree so far: every router's private log
    /// replayed in `(virtual time, router address, log position)` order,
    /// with spans still open closed at the current sim time *in the
    /// returned copy* — a pure read, repeatable mid-run. Always empty
    /// without the `trace` feature.
    pub fn trace_spans(&self) -> Vec<aitf_trace::SpanRecord> {
        let logs = (0..self.net_count()).map(|i| {
            let r = self.router(NetId(i));
            (r.addr().0, r.tracer())
        });
        aitf_trace::Tracer::replay(logs, self.sim.now().0)
    }

    /// A network's uplink towards its provider.
    pub fn uplink(&self, net: NetId) -> Option<LinkId> {
        self.wiring.uplink[net.0]
    }

    /// Shard hints for [`aitf_netsim::Simulator::apply_shards`]: one group
    /// per network (its border router plus its hosts), parented along the
    /// provider tree, so the partitioner only ever cuts inter-network
    /// links — whose propagation delay provides the conservative
    /// lookahead.
    ///
    /// A network that does not fully participate in AITF (legacy or
    /// non-cooperating gateway) is merged into its provider's group:
    /// escalation disconnects such children at the provider's side of the
    /// uplink, and keeping that uplink intra-shard keeps the blocking
    /// action local. Non-escalating defense policies (pushback, rate
    /// limiting, path stamping — see
    /// [`crate::DefensePolicy::escalates`]) have no disconnection
    /// lever, so every network keeps its own group there.
    ///
    /// Each group's load is what its hosts will make the event loop do:
    /// `APP_LOAD` (256) per installed [`TrafficApp`], and never less than the
    /// group's node count — so a world nobody sends in is weighed by
    /// nodes, and one where 2 % of the hosts flood is cut through the
    /// flood. Call it after the workload is installed.
    pub fn shard_hints(&self) -> PartitionSpec {
        let n = self.net_count();
        let escalating = self.cfg.defense.escalates();
        // Resolve each net to its merge target. Parents are declared
        // before children in WorldBuilder, so target[parent] is final by
        // the time a child reads it.
        let mut target: Vec<usize> = (0..n).collect();
        for i in 0..n {
            if escalating && !self.net_cooperating[i] {
                if let Some(p) = self.wiring.parent[i] {
                    target[i] = target[p];
                }
            }
        }
        let mut group_of: Vec<usize> = vec![usize::MAX; n];
        let mut roots: Vec<usize> = Vec::new();
        for i in 0..n {
            if target[i] == i {
                group_of[i] = roots.len();
                roots.push(i);
            }
        }
        for i in 0..n {
            group_of[i] = group_of[target[i]];
        }
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); roots.len()];
        let mut apps = vec![0u64; roots.len()];
        for i in 0..n {
            groups[group_of[i]].push(self.router_nodes[i]);
        }
        for (h, &net) in self.host_net.iter().enumerate() {
            groups[group_of[net]].push(self.host_nodes[h]);
            apps[group_of[net]] += self.host(HostId(h)).app_count() as u64;
        }
        let parents: Vec<Option<usize>> = roots
            .iter()
            .map(|&r| self.wiring.parent[r].map(|p| group_of[p]))
            .collect();
        let loads = (groups.iter().zip(&apps))
            .map(|(members, &apps)| (members.len() as u64).max(APP_LOAD * apps))
            .collect();
        PartitionSpec::new(groups, parents).with_loads(loads)
    }

    /// Read access to a border router.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a [`BorderRouter`] (cannot happen for ids
    /// from this world).
    pub fn router(&self, net: NetId) -> &BorderRouter {
        self.sim
            .node_ref::<BorderRouter>(self.router_nodes[net.0])
            .expect("router node")
    }

    /// Mutable access to a border router.
    pub fn router_mut(&mut self, net: NetId) -> &mut BorderRouter {
        self.sim
            .node_mut::<BorderRouter>(self.router_nodes[net.0])
            .expect("router node")
    }

    /// Read access to a host.
    pub fn host(&self, host: HostId) -> &EndHost {
        self.sim
            .node_ref::<EndHost>(self.host_nodes[host.0])
            .expect("host node")
    }

    /// Mutable access to a host.
    pub fn host_mut(&mut self, host: HostId) -> &mut EndHost {
        self.sim
            .node_mut::<EndHost>(self.host_nodes[host.0])
            .expect("host node")
    }

    /// Installs a traffic application on a host (before the run starts).
    pub fn add_app(&mut self, host: HostId, app: Box<dyn TrafficApp>) {
        self.host_mut(host).add_app(app);
    }

    // ------------------------------------------------------------------
    // Dynamic-world hooks: runtime attach / detach / activate.
    //
    // These are the mutation points churn layers drive between `run_*`
    // segments. All of them act at the current virtual time and touch only
    // schedule-independent state, so a run that interleaves them at fixed
    // times stays bit-deterministic.
    // ------------------------------------------------------------------

    /// Installs a traffic application on a host at any time. Before the
    /// simulation starts this is [`World::add_app`]; after, the app is
    /// installed *and started immediately* (its `starting_after` window
    /// counts from now) — how late-arriving hosts begin sending mid-run.
    pub fn activate_app(&mut self, host: HostId, app: Box<dyn TrafficApp>) {
        if !self.sim.is_started() {
            self.add_app(host, app);
            return;
        }
        let node = self.host_nodes[host.0];
        self.sim.with_node_ctx(node, |n, ctx| {
            (n as &mut dyn Any)
                .downcast_mut::<EndHost>()
                .expect("host node")
                .install_app_now(app, ctx);
        });
    }

    /// Detaches a host from the network: its tail circuit is blocked in
    /// both directions and its traffic apps go quiet (timer chains are
    /// dropped, so a retired attacker stops *offering* traffic). Safe to
    /// call before the run starts — the host then begins the simulation
    /// offline.
    pub fn detach_host(&mut self, host: HostId) {
        let link = self.tail_links[host.0];
        self.sim.set_link_blocked(link, LinkDirection::AToB, true);
        self.sim.set_link_blocked(link, LinkDirection::BToA, true);
        self.host_mut(host).set_attached(false);
    }

    /// Reattaches a previously detached host: unblocks the tail circuit
    /// and restarts every installed app (their `starting_after` delays now
    /// count from the reattachment instant). Attaching an already-attached
    /// host is a no-op — its running apps are left untouched, so an
    /// overlapping churn selection cannot restart (and thereby duplicate)
    /// live traffic.
    pub fn attach_host(&mut self, host: HostId) {
        if self.host(host).is_attached() {
            return;
        }
        let link = self.tail_links[host.0];
        self.sim.set_link_blocked(link, LinkDirection::AToB, false);
        self.sim.set_link_blocked(link, LinkDirection::BToA, false);
        self.host_mut(host).set_attached(true);
        if self.sim.is_started() {
            let node = self.host_nodes[host.0];
            self.sim.with_node_ctx(node, |n, ctx| {
                (n as &mut dyn Any)
                    .downcast_mut::<EndHost>()
                    .expect("host node")
                    .restart_apps(ctx);
            });
        }
    }

    /// Replaces a network's router policy at any time — before the run
    /// starts or mid-simulation, between runs — and records the
    /// AITF-participation change in the world's one deployment view, so
    /// escalation immediately routes around a provider that just left
    /// AITF (and back through one that rejoined). This is the network
    /// counterpart of [`World::detach_host`] / [`World::attach_host`]:
    /// the runtime hook `ChurnAction::SetRouterPolicy` compiles onto.
    pub fn set_router_policy(&mut self, net: NetId, policy: RouterPolicy) {
        let router = self.router_mut(net);
        router.set_policy(policy);
        router.advertise(policy.aitf_enabled);
    }

    /// A network's current router policy.
    pub fn router_policy(&self, net: NetId) -> RouterPolicy {
        self.router(net).policy()
    }

    /// Attack bytes delivered to a host so far (the victim's effective
    /// bandwidth numerator).
    pub fn attack_bytes_at(&self, host: HostId) -> u64 {
        self.host(host).counters().rx_attack_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_world() -> (World, NetId, NetId, HostId, HostId) {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let g_net = b.network("g_net", "10.1.0.0/16", Some(wan));
        let b_net = b.network("b_net", "10.9.0.0/16", Some(wan));
        let v = b.host(g_net);
        let a = b.host(b_net);
        (b.build(), g_net, b_net, v, a)
    }

    #[test]
    fn addresses_follow_prefixes() {
        let (w, g_net, b_net, v, a) = two_level_world();
        assert_eq!(w.router_addr(g_net), Addr::new(10, 1, 0, 254));
        assert_eq!(w.router_addr(b_net), Addr::new(10, 9, 0, 254));
        assert_eq!(w.host_addr(v), Addr::new(10, 1, 0, 1));
        assert_eq!(w.host_addr(a), Addr::new(10, 9, 0, 1));
        assert!(w.net_prefix(g_net).contains(w.host_addr(v)));
    }

    #[test]
    fn world_accessors_are_consistent() {
        let (w, g_net, _, v, _) = two_level_world();
        assert_eq!(w.net_count(), 3);
        assert_eq!(w.host_count(), 2);
        assert_eq!(w.host_net(v), g_net);
        assert_eq!(w.net_name(g_net), "g_net");
        assert_eq!(w.router(g_net).addr(), w.router_addr(g_net));
        assert_eq!(w.host(v).addr(), w.host_addr(v));
        assert!(w.uplink(g_net).is_some());
        assert!(w.uplink(NetId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps existing network")]
    fn overlapping_prefixes_rejected() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.network("a", "10.0.0.0/8", None);
        b.network("b", "10.1.0.0/16", None);
        b.build();
    }

    #[test]
    #[should_panic(expected = "network #1 (10.1.7.0/24) has 251 hosts")]
    fn an_anonymous_network_is_named_by_index_and_prefix() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let prefix = Prefix::new(Addr::new(10, 1, 7, 0), 24);
        let link = WorldBuilder::default_net_link();
        let net = b.network_with("", &prefix, Some(wan), RouterPolicy::default(), link);
        for _ in 0..251 {
            b.host(net);
        }
        b.build();
    }

    #[test]
    #[should_panic(expected = "network \"bad\" has an unparsable prefix \"10.1.0.0/33\"")]
    fn a_prefix_literal_that_does_not_parse_names_its_network() {
        WorldBuilder::new(1, AitfConfig::default()).network("bad", "10.1.0.0/33", None);
    }

    #[test]
    fn empty_world_runs() {
        let (mut w, ..) = two_level_world();
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.sim.now().as_secs_f64(), 1.0);
    }

    /// A legitimate client sending 100 B every 10 ms, the first packet
    /// 10 ms in.
    fn ticker(to: Addr) -> Box<crate::Source> {
        Box::new(crate::Source::client(to, 100, 100))
    }

    /// [`ticker`]'s schedule in attack-class packets: what AITF filters
    /// at the sender's gateway.
    fn flood(to: Addr) -> Box<crate::Source> {
        let period = SimDuration::from_millis(10);
        Box::new(crate::Source::flood(to, 100, 100).starting_after(period))
    }

    #[test]
    fn detach_silences_a_host_and_attach_revives_it() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, ticker(victim_addr));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        let rx_before = w.host(v).counters().rx_legit_pkts;
        assert!(tx_before > 50, "sender must be running");
        assert!(rx_before > 50, "victim must be receiving");

        w.detach_host(a);
        assert!(!w.host(a).is_attached());
        w.sim.run_for(SimDuration::from_secs(1));
        // Fully quiet: the app's timer chain died, nothing was offered.
        assert_eq!(w.host(a).counters().tx_pkts, tx_before);

        w.attach_host(a);
        assert!(w.host(a).is_attached());
        w.sim.run_for(SimDuration::from_secs(1));
        assert!(
            w.host(a).counters().tx_pkts > tx_before + 50,
            "reattached host must resume sending"
        );
        assert!(w.host(v).counters().rx_legit_pkts > rx_before + 50);
    }

    #[test]
    fn host_detached_before_start_joins_on_attach() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, ticker(victim_addr));
        w.detach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.host(a).counters().tx_pkts, 0, "dormant until attach");
        w.attach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        assert!(w.host(a).counters().tx_pkts > 50);
    }

    #[test]
    fn same_instant_detach_attach_does_not_double_the_rate() {
        // The stale-chain hazard: a detach→attach with no simulated time
        // in between leaves the pre-detach timer still queued. The epoch
        // stamp must kill it, or restart_apps doubles the send rate.
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, ticker(victim_addr));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        w.detach_host(a);
        w.attach_host(a); // same instant: old timer chain still pending
        w.sim.run_for(SimDuration::from_secs(1));
        let delta = w.host(a).counters().tx_pkts - tx_before;
        // One 10 ms chain ≈ 100 pkts/s; a resurrected second chain ≈ 200.
        assert!((90..=101).contains(&delta), "rate doubled? delta = {delta}");
    }

    #[test]
    fn attaching_an_attached_host_is_a_no_op() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, ticker(victim_addr));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        // Never detached: attach must not restart (and duplicate) the
        // live app chains of an overlapping churn selection.
        w.attach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        let delta = w.host(a).counters().tx_pkts - tx_before;
        assert!((90..=101).contains(&delta), "rate doubled? delta = {delta}");
    }

    #[test]
    fn shard_hints_group_each_net_with_its_hosts() {
        let (w, g_net, b_net, v, a) = two_level_world();
        let spec = w.shard_hints();
        assert_eq!(spec.groups().len(), 3, "one group per network");
        // wan is the root; both leaf nets parent to it.
        assert_eq!(spec.parents()[0], None);
        assert_eq!(spec.parents()[g_net.0], Some(0));
        assert_eq!(spec.parents()[b_net.0], Some(0));
        assert!(spec.groups()[g_net.0].contains(&w.host_node(v)));
        assert!(spec.groups()[b_net.0].contains(&w.host_node(a)));
        // Every node lands in exactly one group.
        let total: usize = spec.groups().iter().map(Vec::len).sum();
        assert_eq!(total, w.sim.node_count());
    }

    #[test]
    fn shard_hints_merge_non_cooperating_nets_into_their_provider() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let coop = b.network("coop", "10.1.0.0/16", Some(wan));
        let legacy = b.network_with(
            "legacy",
            &"10.9.0.0/16".parse().expect("a prefix literal"),
            Some(wan),
            RouterPolicy {
                aitf_enabled: false,
                ..RouterPolicy::default()
            },
            WorldBuilder::default_net_link(),
        );
        let h = b.host(legacy);
        let w = b.build();
        let spec = w.shard_hints();
        assert_eq!(spec.groups().len(), 2, "legacy merges into wan's group");
        // Group 0 is wan's: it holds both wan and legacy routers plus the
        // legacy host; coop keeps its own group.
        assert!(spec.groups()[0].contains(&w.router_node(wan)));
        assert!(spec.groups()[0].contains(&w.router_node(legacy)));
        assert!(spec.groups()[0].contains(&w.host_node(h)));
        assert!(spec.groups()[1].contains(&w.router_node(coop)));
        assert_eq!(spec.parents(), &[None, Some(0)]);
    }

    #[test]
    fn shard_hints_partition_and_run() {
        // End-to-end: hints → partition → sharded run matches single.
        let run = |shards: usize| {
            let (mut w, _, _, v, a) = two_level_world();
            let victim_addr = w.host_addr(v);
            w.add_app(a, ticker(victim_addr));
            if shards > 1 {
                let spec = w.shard_hints();
                let part = w.sim.apply_shards(shards, &spec).expect("partition");
                assert_eq!(part.shards, shards);
            }
            w.sim.run_for(SimDuration::from_secs(2));
            (
                w.sim.dispatched_events(),
                w.host(v).counters().rx_legit_pkts,
                w.host(a).counters().tx_pkts,
            )
        };
        let single = run(1);
        assert_eq!(run(2), single);
        assert_eq!(run(3), single);
    }

    #[test]
    fn shard_hints_cut_through_the_senders_not_the_node_count() {
        // `tree(2, 3, 4)`: hub, victim_net, three providers of three
        // 4-host leaves. Only the first two leaves of the first provider
        // flood. Cut by node count all eight senders share a shard (the
        // three providers weigh the same); cut by load each leaf is a
        // piece of its own. A long grace keeps the zombies connected, so
        // the filters at their gateways — not a disconnection — stop them.
        let cfg = AitfConfig {
            grace: SimDuration::from_secs(3600),
            ..AitfConfig::default()
        };
        let mut b = WorldBuilder::new(1, cfg);
        let hub = b.network("hub", "10.0.0.0/16", None);
        let victim_net = b.network("victim_net", "10.1.0.0/16", Some(hub));
        let victim = b.host(victim_net);
        let mut hosts = Vec::new();
        for ad in 0..3u8 {
            let provider = b.network(
                &format!("ad_{ad}"),
                &format!("10.{}.0.0/16", 10 + ad),
                Some(hub),
            );
            for leaf in 0..3u8 {
                let prefix = format!("10.{}.0.0/16", 20 + 3 * ad + leaf);
                let net = b.network(&format!("leaf_{ad}_{leaf}"), &prefix, Some(provider));
                hosts.extend((0..4).map(|_| {
                    b.host_with(
                        net,
                        HostPolicy::Malicious,
                        WorldBuilder::default_host_link(),
                    )
                }));
            }
        }
        let mut w = b.build();
        let victim_addr = w.host_addr(victim);
        let senders = &hosts[..8];
        for &h in senders {
            w.add_app(h, flood(victim_addr));
        }
        let spec = w.shard_hints();
        let part = w.sim.apply_shards(2, &spec).expect("partition");
        assert_eq!(part.shards, 2);
        let mut senders_in = [0usize; 2];
        for &h in senders {
            senders_in[w.sim.shard_of(w.host_node(h))] += 1;
        }
        assert!(
            senders_in.iter().all(|&n| 10 * n >= 4 * senders.len()),
            "{senders_in:?}"
        );
        w.sim.run_for(SimDuration::from_secs(5));
        let load = w.sim.shard_load();
        assert!(
            w.host(victim).counters().rx_attack_pkts > 0,
            "the flood must arrive"
        );
        assert!(load.busiest_share() <= 0.65, "{load}");
    }

    #[test]
    fn hierarchical_routing_matches_all_pairs_on_a_tree_with_peering() {
        // Same topology, both routing modes: a two-level tree with a
        // peering shortcut. Every packet must traverse the same links, so
        // the event counts and delivery counters agree exactly.
        let run = |mode: RoutingMode| {
            let mut b = WorldBuilder::new(1, AitfConfig::default());
            b.routing(mode);
            let wan = b.network("wan", "10.100.0.0/16", None);
            let isp_a = b.network("isp_a", "10.1.0.0/16", Some(wan));
            let isp_b = b.network("isp_b", "10.9.0.0/16", Some(wan));
            let leaf = b.network("leaf", "10.20.0.0/16", Some(isp_b));
            b.peer(isp_a, isp_b, WorldBuilder::default_net_link());
            let v = b.host(isp_a);
            let a = b.host(leaf);
            let mut w = b.build();
            let victim_addr = w.host_addr(v);
            w.add_app(a, ticker(victim_addr));
            w.sim.run_for(SimDuration::from_secs(2));
            (
                w.sim.dispatched_events(),
                w.host(v).counters().rx_legit_pkts,
            )
        };
        let all_pairs = run(RoutingMode::AllPairs);
        assert!(all_pairs.1 > 100, "traffic must flow: {all_pairs:?}");
        assert_eq!(run(RoutingMode::Hierarchical), all_pairs);
    }

    /// Sends exactly one data packet, at start.
    struct OneShot {
        to: Addr,
    }

    impl crate::TrafficApp for OneShot {
        fn on_start(&mut self, api: &mut crate::HostApi<'_, '_>) {
            api.send_data(
                api.my_addr(),
                self.to,
                aitf_packet::Protocol::Udp,
                0,
                80,
                aitf_packet::TrafficClass::Legit,
                100,
            );
        }
    }

    /// One packet from the host in `leaf` to `dst` on a wan → isp → leaf
    /// chain under `mode`: per-router `undeliverable` in `[wan, isp, leaf]`
    /// order, packets the leaf gateway offered to its uplink, and total
    /// dispatched events.
    fn one_packet_to(mode: RoutingMode, dst: Addr) -> ([u64; 3], u64, u64) {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.routing(mode);
        let wan = b.network("wan", "10.100.0.0/16", None);
        let isp = b.network("isp", "10.9.0.0/16", Some(wan));
        let leaf = b.network("leaf", "10.20.0.0/16", Some(isp));
        let a = b.host(leaf);
        let mut w = b.build();
        w.add_app(a, Box::new(OneShot { to: dst }));
        w.sim.run_for(SimDuration::from_secs(5));
        let undeliverable = [wan, isp, leaf].map(|n| w.router(n).counters().undeliverable);
        let up = w.sim.link(w.uplink(leaf).expect("leaf has an uplink"));
        let offered = up.stats(up.dir_from(w.router_node(leaf))).offered_pkts;
        (undeliverable, offered, w.sim.dispatched_events())
    }

    #[test]
    fn own_prefix_never_goes_up_the_default_route() {
        // An unassigned address inside the leaf's own prefix: without the
        // own-prefix rule the leaf's default route and the provider's
        // subtree route bounce the packet until its TTL runs out.
        let ghost = Addr::new(10, 20, 0, 77);
        let hier = one_packet_to(RoutingMode::Hierarchical, ghost);
        assert_eq!(hier.0, [0, 0, 1], "dropped once, at the leaf gateway");
        assert_eq!(hier.1, 0, "nothing may enter the leaf's uplink");
        assert_eq!(hier, one_packet_to(RoutingMode::AllPairs, ghost));
    }

    #[test]
    fn destination_in_no_network_is_the_one_place_the_modes_differ() {
        // The routing verdict (PR 14): all-pairs has no covering route and
        // drops at the first gateway; default routes carry the packet to
        // the provider root, which has no default and drops it there. One
        // `undeliverable` either way and no TTL-expiry loop — but a
        // different router and one more link crossing per level, which is
        // why Hierarchical cannot replace AllPairs with fixtures
        // byte-identical.
        let nowhere = Addr::new(172, 16, 0, 1);
        let (all_pairs, ap_up, _) = one_packet_to(RoutingMode::AllPairs, nowhere);
        let (hier, hier_up, _) = one_packet_to(RoutingMode::Hierarchical, nowhere);
        assert_eq!(all_pairs, [0, 0, 1], "all-pairs: first gateway");
        assert_eq!(hier, [1, 0, 0], "hierarchical: provider root");
        // One crossing of the leaf uplink, never a bounce back down it.
        assert_eq!((ap_up, hier_up), (0, 1));
    }

    #[test]
    fn nested_prefixes_are_rejected_in_either_routing_mode() {
        // Routing maps an address to the one declared network holding it,
        // in both modes.
        for mode in [RoutingMode::AllPairs, RoutingMode::Hierarchical] {
            let built = std::panic::catch_unwind(|| {
                let mut b = WorldBuilder::new(1, AitfConfig::default());
                b.routing(mode);
                let a = b.network("a", "10.1.0.0/16", None);
                b.network("far", "10.200.0.0/16", None);
                b.network("b", "10.1.2.0/24", Some(a));
                b.build()
            });
            let panic = built.err().expect("a nested network must not build");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains("overlaps existing network \"a\""),
                "{mode:?}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overlaps existing network")]
    fn duplicate_prefixes_rejected_in_hierarchical_mode() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.routing(RoutingMode::Hierarchical);
        b.network("a", "10.1.0.0/16", None);
        b.network("b", "10.1.0.0/16", None);
        b.build();
    }

    #[test]
    fn activate_app_mid_run_starts_immediately() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.host(a).counters().tx_pkts, 0);
        w.activate_app(a, ticker(victim_addr));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx = w.host(a).counters().tx_pkts;
        assert!((90..=101).contains(&tx), "tx = {tx}");
    }
}

/// The world build held to the declarations: forwarding and ingress as a
/// naive model reads them off the declared networks, hosts and peerings.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A declared world. Links are numbered as declared: uplinks, then tail
    /// circuits, then peerings.
    struct Decl {
        mode: RoutingMode,
        prefix: Vec<Prefix>,
        parent: Vec<Option<usize>>,
        uplink: Vec<Option<LinkId>>,
        /// Each host's home network and tail circuit.
        hosts: Vec<(usize, LinkId)>,
        peerings: Vec<(usize, usize, LinkId)>,
    }

    /// What the declared world's routers must do — by parent walks and
    /// linear scans, in the order the declarations were made.
    impl Decl {
        fn host_addr(&self, host: usize) -> Addr {
            let net = self.hosts[host].0;
            let earlier = self.hosts[..host].iter().filter(|h| h.0 == net).count();
            self.prefix[net].host_at(earlier as u32 + 1)
        }
        /// The network on `x`'s provider chain (`x` included) that is a
        /// client of `top`, if `x` is below `top`.
        fn client_towards(&self, top: usize, x: usize) -> Option<usize> {
            let mut chain = std::iter::successors(Some(x), |&c| self.parent[c]);
            chain.find(|&c| self.parent[c] == Some(top))
        }
        fn cone(&self, top: usize) -> impl Iterator<Item = &Prefix> + '_ {
            let nets = 0..self.prefix.len();
            let below = nets.filter(move |&x| x == top || self.client_towards(top, x).is_some());
            below.map(|x| &self.prefix[x])
        }
        /// Router `i`'s routes as declared; a later one replaces an earlier
        /// one for the same prefix.
        fn routes(&self, i: usize) -> Vec<(Prefix, LinkId)> {
            let n = self.prefix.len();
            let mut routes = Vec::new();
            match self.mode {
                RoutingMode::AllPairs => {
                    let up = (0..n).filter_map(|x| Some((x, self.parent[x]?, self.uplink[x]?)));
                    let edge = |(a, b, link)| (NodeId(a), NodeId(b), link);
                    let edges: Vec<_> = up.chain(self.peerings.iter().copied()).map(edge).collect();
                    let hops = NextHops::compute(n, &edges);
                    let hop = |r| Some((self.prefix[r], hops.next_hop(NodeId(i), NodeId(r))?));
                    routes.extend((0..n).filter(|&r| r != i).filter_map(hop));
                }
                RoutingMode::Hierarchical => {
                    routes.extend(self.uplink[i].map(|up| (Prefix::ANY, up)));
                    for x in 0..n {
                        let down = self.client_towards(i, x).and_then(|c| self.uplink[c]);
                        routes.extend(down.map(|link| (self.prefix[x], link)));
                    }
                    for &(a, b, link) in &self.peerings {
                        for far in [(a, b), (b, a)].iter().filter(|e| e.0 == i).map(|e| e.1) {
                            routes.extend(self.cone(far).map(|&p| (p, link)));
                        }
                    }
                }
            }
            let homed = (0..self.hosts.len()).filter(|&h| self.hosts[h].0 == i);
            routes.extend(homed.map(|h| (Prefix::host(self.host_addr(h)), self.hosts[h].1)));
            routes
        }
        /// Longest match, the last listed among equals — and never the own
        /// prefix back up the uplink.
        fn route(&self, i: usize, routes: &[(Prefix, LinkId)], dst: Addr) -> Option<LinkId> {
            let hits = routes.iter().enumerate().filter(|(_, r)| r.0.contains(dst));
            let (_, &(_, link)) = hits.max_by_key(|&(at, r)| (r.0.len(), at))?;
            let bounced = Some(link) == self.uplink[i] && self.prefix[i].contains(dst);
            (!bounced).then_some(link)
        }
        /// The prefixes legitimately sourced behind `link` at router `i`;
        /// `None` when it is not one of `i`'s client links.
        fn behind(&self, i: usize, link: LinkId) -> Option<Vec<Prefix>> {
            let mut nets = 0..self.prefix.len();
            let client = nets.find(|&c| self.parent[c] == Some(i) && self.uplink[c] == Some(link));
            let hosted = self
                .hosts
                .contains(&(i, link))
                .then(|| vec![self.prefix[i]]);
            client.map(|c| self.cone(c).copied().collect()).or(hosted)
        }
    }

    /// 2–40 networks at most four levels below a root, their prefixes (a
    /// mix of /16s and /24s) dealt out in scrambled address order, 0–3
    /// hosts each and 0–3 peerings between any two different networks —
    /// ancestors, repeats and all.
    fn arb_decl() -> impl Strategy<Value = Decl> {
        let nets = proptest::collection::vec((any::<u32>(), any::<u32>(), 0usize..4), 2..41);
        let peerings = proptest::collection::vec((any::<u32>(), any::<u32>()), 0..4);
        (nets, peerings, any::<bool>()).prop_map(|(nets, peerings, hierarchical)| {
            let n = nets.len();
            let mut slots: Vec<usize> = (0..n).collect();
            slots.sort_by_key(|&s| (nets[s].0, s));
            let (mut parent, mut depth) = (vec![None; n], vec![0usize; n]);
            for i in 1..n {
                let pick = nets[i].1 as usize % (i + 1);
                let mut up = (pick < i).then_some(pick);
                while up.is_some_and(|p| depth[p] >= 4) {
                    up = up.and_then(|p| parent[p]);
                }
                (parent[i], depth[i]) = (up, up.map_or(0, |p| depth[p] + 1));
            }
            let slash16 = |s: usize| Prefix::new(Addr::new(10, s as u8, 0, 0), 16);
            let slash24 = |s: usize| Prefix::new(Addr::new(10, 200, s as u8, 0), 24);
            let pairs = peerings
                .iter()
                .map(|&(a, b)| (a as usize % n, b as usize % n));
            let mut links = (0..).map(LinkId);
            Decl {
                mode: match hierarchical {
                    true => RoutingMode::Hierarchical,
                    false => RoutingMode::AllPairs,
                },
                prefix: slots
                    .iter()
                    .map(|&s| if s % 2 == 0 { slash16(s) } else { slash24(s) })
                    .collect(),
                uplink: parent
                    .iter()
                    .map(|p| p.and_then(|_| links.next()))
                    .collect(),
                parent,
                hosts: (0..n)
                    .flat_map(|i| vec![i; nets[i].2])
                    .map(|i| (i, links.next().expect("unbounded")))
                    .collect(),
                peerings: pairs
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| (a, b, links.next().expect("unbounded")))
                    .collect(),
            }
        })
    }

    /// The world `decl` declares, its networks named by index.
    fn build(decl: &Decl, name: impl Fn(usize) -> String) -> World {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.routing(decl.mode);
        let link = WorldBuilder::default_net_link();
        for (i, p) in decl.prefix.iter().enumerate() {
            let parent = decl.parent[i].map(NetId);
            b.network_with(&name(i), p, parent, RouterPolicy::default(), link);
        }
        for &(net, _) in &decl.hosts {
            b.host(NetId(net));
        }
        for &(a, c, _) in &decl.peerings {
            b.peer(NetId(a), NetId(c), WorldBuilder::default_net_link());
        }
        b.build()
    }

    /// Every host's address, and `routers`' addresses, routes to `probes`
    /// and ingress verdicts on every link for sources at `probes`, as
    /// `decl` says.
    fn check(decl: &Decl, w: &World, routers: &[usize], probes: &[Addr]) {
        for h in 0..decl.hosts.len() {
            assert_eq!(w.host_addr(HostId(h)), decl.host_addr(h));
        }
        for &i in routers {
            let router = w.router(NetId(i));
            assert_eq!(router.addr(), decl.prefix[i].host_at(254));
            let routes = decl.routes(i);
            for &dst in probes {
                let expected = decl.route(i, &routes, dst);
                assert_eq!(router.route(dst), expected, "router {} to {}", i, dst);
            }
            for &link in w.sim.links_of(w.router_node(NetId(i))) {
                let behind = decl.behind(i, link);
                for &src in probes {
                    let expected = behind.as_ref().map(|b| b.iter().any(|p| p.contains(src)));
                    let verdict = router.client_behind(link).map(|set| set.contains(src));
                    assert_eq!(
                        verdict, expected,
                        "router {} link {:?} src {}",
                        i, link, src
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn every_route_and_ingress_verdict_is_what_the_declarations_say(decl in arb_decl()) {
            let w = build(&decl, |i| format!("n{i}"));
            // Every host, every router, an unassigned address in every
            // network, and one address in no network.
            let hosts = (0..decl.hosts.len()).map(|h| decl.host_addr(h));
            let nets = decl.prefix.iter();
            let mut probes: Vec<Addr> = hosts
                .chain(nets.flat_map(|p| [p.host_at(254), p.host_at(77)]))
                .collect();
            probes.push(Addr::new(172, 16, 0, 1));
            let routers: Vec<usize> = (0..decl.prefix.len()).collect();
            check(&decl, &w, &routers, &probes);
        }
    }

    /// The model at internet depth, which the small worlds above never
    /// reach: a 2,000-network provider graph grown as `power_law` grows
    /// one (preferential attachment, depth capped at 5, peerings between
    /// sampled pairs neither of which is the other's ancestor), its /24s
    /// scrambled in address order and a few hosts in every fourth network.
    /// Sampled so that a debug build checks it in seconds: every peering
    /// endpoint, the 20 largest cones and 20 others; each of those
    /// networks' router address, first host and `.77`, and one address in
    /// no network.
    #[test]
    fn a_power_law_world_at_internet_depth_routes_as_declared() {
        use rand::{Rng, SeedableRng};
        let n = 2_000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let (mut parent, mut depth, mut ends) = (vec![None], vec![0], vec![0]);
        for i in 1..n {
            // Three in four by degree, else uniformly.
            let mut up = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..i),
                _ => ends[rng.gen_range(0..ends.len())],
            };
            while depth[up] >= 5 {
                up = parent[up].expect("only the root is at depth 0");
            }
            parent.push(Some(up));
            depth.push(depth[up] + 1);
            ends.extend([up, i]);
        }
        let below =
            |a: usize, b: usize| std::iter::successors(Some(b), |&x| parent[x]).any(|x| x == a);
        let mut pairs = Vec::new();
        for _ in 0..40 {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && !below(a, b) && !below(b, a) {
                pairs.push((a, b));
            }
        }
        // 997 is coprime to 2,000: the /24s land in scrambled order.
        let slash24 = |i: usize| {
            let slot = (i * 997 % n) as u32;
            Prefix::new(Addr((10 << 24) | (slot << 8)), 24)
        };
        let mut links = (0..).map(LinkId);
        let decl = Decl {
            mode: RoutingMode::Hierarchical,
            prefix: (0..n).map(slash24).collect(),
            uplink: parent
                .iter()
                .map(|p| p.and_then(|_| links.next()))
                .collect(),
            hosts: (0..n)
                .filter(|i| i % 4 == 0)
                .flat_map(|i| vec![i; 1 + i % 3])
                .map(|i| (i, links.next().expect("unbounded")))
                .collect(),
            peerings: pairs
                .iter()
                .map(|&(a, b)| (a, b, links.next().expect("unbounded")))
                .collect(),
            parent,
        };
        assert!(
            decl.peerings.len() >= 20,
            "{} peerings",
            decl.peerings.len()
        );
        let w = build(&decl, |_| String::new());

        let mut cone = vec![1usize; n];
        for i in (1..n).rev() {
            cone[decl.parent[i].expect("a client")] += cone[i];
        }
        let mut by_cone: Vec<usize> = (0..n).collect();
        by_cone.sort_by_key(|&i| (std::cmp::Reverse(cone[i]), i));
        let mut routers: Vec<usize> = decl.peerings.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        routers.extend(&by_cone[..20]);
        routers.extend((0..20).map(|_| rng.gen_range(0..n)));
        routers.sort_unstable();
        routers.dedup();
        let nets = routers.iter().map(|&i| decl.prefix[i]);
        let mut probes: Vec<Addr> = nets
            .flat_map(|p| [p.host_at(254), p.host_at(1), p.host_at(77)])
            .collect();
        probes.push(Addr::new(172, 16, 0, 1));
        check(&decl, &w, &routers, &probes);
    }
}
