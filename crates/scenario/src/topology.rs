//! Declarative topologies: a `TopologySpec` is plain data describing the
//! networks, hosts and peerings of an AITF world, plus generators for the
//! canned shapes the paper's evaluation uses.
//!
//! - [`TopologySpec::fig1`] — the paper's Figure 1 path: two three-level
//!   provider hierarchies peered at the top, one victim, one attacker;
//!   [`TopologySpec::fig1_with_victim_link`] also sets the victim's tail
//!   circuit (E2's `Tr`).
//! - [`TopologySpec::chain_pair`] — the same shape with configurable
//!   depth, for the escalation and pushback comparisons. Both come from
//!   one chain generator; only the networks' names and prefixes differ.
//! - [`TopologySpec::star`] — one victim network plus `M` attacker
//!   networks around a hub, for capacity and scaling experiments.
//! - [`TopologySpec::tree`] — a multi-level provider tree whose leaves
//!   host the zombies; `tree(1, m, h, ..)` is exactly `star(m, h, ..)`
//!   with one intermediate level added per extra level.
//!
//! Because the spec is data, experiments tweak it declaratively (flip a
//! router policy by name, make the last spoke host a legitimate client)
//! instead of re-rolling `WorldBuilder` calls. Its records are the ones
//! [`aitf_core::World::try_build`] reads in place, so
//! [`TopologySpec::build`] copies no declaration and two specs with equal
//! data produce bit-identical worlds.

use aitf_core::{
    AitfConfig, HostId, HostPolicy, NetId, RouterPolicy, RoutingMode, World, WorldBuilder,
    WorldError,
};
pub use aitf_core::{HostDecl, NetDecl, PeeringDecl, Role, Side};
use aitf_engine::splitmix;
use aitf_netsim::{LinkParams, SimDuration};
use aitf_packet::{Addr, Prefix};

use crate::alloc::PrefixAlloc;

/// Parameters for [`TopologySpec::power_law`] — an AS-graph-like world
/// grown by preferential attachment.
#[derive(Debug, Clone)]
pub struct PowerLawSpec {
    /// Number of generated networks, on top of `core` and `victim_net`.
    pub n_nets: usize,
    /// Probability that a new network attaches preferentially (to a
    /// provider drawn ∝ degree) instead of uniformly. 1.0 is the classic
    /// Barabási–Albert heavy tail; 0.0 a uniform random recursive tree.
    pub skew: f64,
    /// Maximum provider-chain depth; a deeper pick is walked up its
    /// ancestors. Keeps routing state at O(n·max_depth).
    pub max_depth: usize,
    /// Fraction of networks given a peering shortcut (pairs are sampled;
    /// ancestor pairs are skipped).
    pub peering_fraction: f64,
    /// The victim's tail circuit bandwidth (bits/second).
    pub victim_tail_bps: u64,
    /// Seed for the attachment and peering draws — part of the topology's
    /// identity, independent of the run seed.
    pub seed: u64,
}

impl Default for PowerLawSpec {
    fn default() -> Self {
        PowerLawSpec {
            n_nets: 1000,
            skew: 0.75,
            max_depth: 6,
            peering_fraction: 0.01,
            victim_tail_bps: 10_000_000,
            seed: 0,
        }
    }
}

/// A declarative topology: networks × hosts × peerings as plain data.
///
/// # Examples
///
/// ```
/// use aitf_core::AitfConfig;
/// use aitf_scenario::{Role, TopologySpec};
///
/// let mut t = TopologySpec::new();
/// let wan = t.net("wan", "10.100.0.0/16", None);
/// let g = t.net("g_net", "10.1.0.0/16", Some(wan));
/// t.host(g, Role::Victim);
/// let built = t.build(42, AitfConfig::default());
/// assert_eq!(built.world.net_count(), 2);
/// assert_eq!(built.world.host_net(built.victim()), built.net("g_net"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologySpec {
    /// Declared networks, in build order.
    pub nets: Vec<NetDecl>,
    /// Declared hosts, in build order.
    pub hosts: Vec<HostDecl>,
    /// Declared peerings, in build order.
    pub peerings: Vec<PeeringDecl>,
    /// How the lowered world's routers forward. The default is
    /// [`RoutingMode::AllPairs`]; the internet-scale generators switch to
    /// [`RoutingMode::Hierarchical`], which routes from the O(n) provider
    /// tree instead of an O(n²) next-hop matrix. The two differ on destinations in no declared
    /// network, so recorded runs keep the mode they were recorded under.
    pub routing: RoutingMode,
}

impl TopologySpec {
    /// An empty spec.
    pub fn new() -> Self {
        TopologySpec::default()
    }

    /// Declares a network with the default router policy and uplink, its
    /// prefix written `a.b.c.d/len`.
    ///
    /// # Panics
    ///
    /// As [`TopologySpec::net_with`].
    pub fn net(&mut self, name: &str, prefix: &str, parent: Option<usize>) -> usize {
        self.net_with(
            name,
            prefix,
            parent,
            RouterPolicy::default(),
            WorldBuilder::default_net_link(),
            Side::Neutral,
        )
    }

    /// Declares a network with explicit policy, uplink and side, its prefix
    /// written `a.b.c.d/len`; the literal is parsed here, once.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` does not parse, naming the network and the
    /// literal, or if another network already has the name.
    pub fn net_with(
        &mut self,
        name: &str,
        prefix: &str,
        parent: Option<usize>,
        policy: RouterPolicy,
        uplink: LinkParams,
        side: Side,
    ) -> usize {
        let prefix = prefix
            .parse()
            .unwrap_or_else(|_| panic!("network {name:?} has an unparsable prefix {prefix:?}"));
        self.declare(name, prefix, parent, policy, uplink, side)
    }

    /// [`TopologySpec::net_with`] for a prefix the generators already hold
    /// typed.
    fn declare(
        &mut self,
        name: &str,
        prefix: Prefix,
        parent: Option<usize>,
        policy: RouterPolicy,
        uplink: LinkParams,
        side: Side,
    ) -> usize {
        assert!(
            self.nets.iter().all(|n| n.name != name),
            "duplicate network name {name:?}"
        );
        self.nets.push(NetDecl {
            name: name.to_string(),
            prefix,
            parent,
            policy,
            uplink,
            side,
        });
        self.nets.len() - 1
    }

    /// Declares a compliant host with the default tail circuit.
    pub fn host(&mut self, net: usize, role: Role) -> usize {
        self.host_with(
            net,
            role,
            HostPolicy::Compliant,
            WorldBuilder::default_host_link(),
        )
    }

    /// Declares a host with explicit policy and tail-circuit parameters.
    pub fn host_with(
        &mut self,
        net: usize,
        role: Role,
        policy: HostPolicy,
        link: LinkParams,
    ) -> usize {
        self.hosts.push(HostDecl {
            net,
            policy,
            link,
            role,
        });
        self.hosts.len() - 1
    }

    /// Declares a peering.
    pub fn peer(&mut self, a: usize, b: usize, link: LinkParams) {
        self.peerings.push(PeeringDecl { a, b, link });
    }

    /// Index of the network named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such network was declared; an anonymous network has
    /// no name to find it by.
    pub fn net_index(&self, name: &str) -> usize {
        self.nets
            .iter()
            .position(|n| !name.is_empty() && n.name == name)
            .unwrap_or_else(|| panic!("no network named {name:?} in the topology"))
    }

    /// Overrides a network's router policy, by name.
    pub fn set_net_policy(&mut self, name: &str, policy: RouterPolicy) {
        let i = self.net_index(name);
        self.nets[i].policy = policy;
    }

    /// Overrides every network's router policy (e.g. an undefended world
    /// of [`RouterPolicy::legacy`] routers).
    pub fn set_all_net_policies(&mut self, policy: RouterPolicy) {
        for n in &mut self.nets {
            n.policy = policy;
        }
    }

    // ------------------------------------------------------------------
    // Generators for the canned shapes.
    // ------------------------------------------------------------------

    /// The paper's Figure 1: `G_wan ⊃ G_isp ⊃ G_net` and
    /// `B_wan ⊃ B_isp ⊃ B_net`, peered at the top; the victim in `G_net`,
    /// the attacker in `B_net`.
    pub fn fig1(attacker_policy: HostPolicy) -> Self {
        Self::fig1_with_victim_link(attacker_policy, WorldBuilder::default_host_link())
    }

    /// [`TopologySpec::fig1`] with an explicit victim tail circuit — E2
    /// sweeps the victim→gateway delay `Tr` through it.
    pub fn fig1_with_victim_link(attacker_policy: HostPolicy, victim_link: LinkParams) -> Self {
        // Per side, leaf first: the paper's names and their /16s.
        const NETS: [[(&str, u8); 3]; 2] = [
            [("G_net", 1), ("G_isp", 102), ("G_wan", 103)],
            [("B_net", 9), ("B_isp", 202), ("B_wan", 203)],
        ];
        Self::chains(3, attacker_policy, victim_link, |side, level, _| {
            let (name, second) = NETS[side][level];
            (
                name.to_string(),
                Prefix::new(Addr::new(10, second, 0, 0), 16),
            )
        })
    }

    /// Two provider chains of `depth` networks each, peered at the top;
    /// `depth = 3` is [`TopologySpec::fig1`]'s shape. Networks are named
    /// `G_<level>`/`B_<level>` with level 1 at the leaf; prefixes come
    /// from the [`PrefixAlloc`] sequence.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn chain_pair(depth: usize, attacker_policy: HostPolicy) -> Self {
        let victim_link = WorldBuilder::default_host_link();
        Self::chains(depth, attacker_policy, victim_link, |side, level, alloc| {
            let tag = if side == 0 { "G" } else { "B" };
            (format!("{}_{}", tag, level + 1), alloc.next_slash16())
        })
    }

    /// The one chain generator: a victim-side and an attacker-side chain
    /// of `depth` networks, each declared top-down and named by
    /// `naming(side, level, ..)` with level 0 at the leaf, peered at the
    /// top; the victim hangs off the victim-side leaf on `victim_link`,
    /// the attacker off the other.
    fn chains(
        depth: usize,
        attacker_policy: HostPolicy,
        victim_link: LinkParams,
        mut naming: impl FnMut(usize, usize, &mut PrefixAlloc) -> (String, Prefix),
    ) -> Self {
        assert!(depth > 0, "depth must be at least 1");
        let mut alloc = PrefixAlloc::new();
        let mut t = TopologySpec::new();
        let mut leaves = [0usize; 2];
        let mut tops = [0usize; 2];
        for side in 0..2 {
            let s = if side == 0 {
                Side::Victim
            } else {
                Side::Attacker
            };
            let mut parent: Option<usize> = None;
            for level in (0..depth).rev() {
                let (name, prefix) = naming(side, level, &mut alloc);
                let id = t.declare(
                    &name,
                    prefix,
                    parent,
                    RouterPolicy::default(),
                    WorldBuilder::default_net_link(),
                    s,
                );
                if level == depth - 1 {
                    tops[side] = id;
                }
                parent = Some(id);
                leaves[side] = id;
            }
        }
        t.peer(tops[0], tops[1], WorldBuilder::default_net_link());
        t.host_with(leaves[0], Role::Victim, HostPolicy::Compliant, victim_link);
        t.host_with(
            leaves[1],
            Role::Attacker,
            attacker_policy,
            WorldBuilder::default_host_link(),
        );
        t
    }

    /// One victim network plus `n_nets` attacker networks (named
    /// `zombie_net_<i>`, `hosts_per_net` zombies each) around a `hub` AD.
    /// The victim's tail circuit is `victim_tail_bps`; zombies get fat
    /// links so the bottleneck is the victim side, as in the paper's
    /// introduction.
    pub fn star(
        n_nets: usize,
        hosts_per_net: usize,
        zombie_policy: HostPolicy,
        victim_tail_bps: u64,
    ) -> Self {
        Self::tree(1, n_nets, hosts_per_net, zombie_policy, victim_tail_bps)
    }

    /// A multi-level provider tree: a hub AD at the root, `branching`
    /// children per node for `levels` levels, zombies only in the leaf
    /// networks. `tree(1, m, h, ..)` is exactly
    /// [`TopologySpec::star`]`(m, h, ..)` — star worlds are one-level
    /// trees — and deeper trees exercise escalation through shared
    /// intermediate providers.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or the tree needs more than
    /// [`PrefixAlloc::CAPACITY`] networks.
    pub fn tree(
        levels: usize,
        branching: usize,
        hosts_per_leaf: usize,
        zombie_policy: HostPolicy,
        victim_tail_bps: u64,
    ) -> Self {
        assert!(levels > 0, "tree needs at least one level below the hub");
        assert!(
            hosts_per_leaf <= 250,
            "tree asked for {hosts_per_leaf} hosts per leaf but a network \
             holds at most 250"
        );
        // Net count = hub + victim_net + branching + branching² + … ;
        // checked arithmetic so a silly `branching`/`levels` pair fails
        // loudly instead of wrapping into a bogus small tree.
        let mut needed: u64 = 2;
        let mut layer: u64 = 1;
        for _ in 0..levels {
            layer = layer
                .saturating_mul(branching as u64)
                .min(PrefixAlloc::CAPACITY as u64 + 1);
            needed = (needed + layer).min(PrefixAlloc::CAPACITY as u64 + 1);
        }
        assert!(
            needed <= PrefixAlloc::CAPACITY as u64,
            "tree({levels}, {branching}, ..) needs {needed}+ networks but \
             only {} /16 prefixes exist",
            PrefixAlloc::CAPACITY
        );
        let mut alloc = PrefixAlloc::new();
        let mut t = TopologySpec::new();
        let (d, l) = (RouterPolicy::default, WorldBuilder::default_net_link);
        let hub = t.declare("hub", alloc.next_slash16(), None, d(), l(), Side::Neutral);
        let victim_net = t.declare(
            "victim_net",
            alloc.next_slash16(),
            Some(hub),
            d(),
            l(),
            Side::Victim,
        );
        t.host_with(
            victim_net,
            Role::Victim,
            HostPolicy::Compliant,
            LinkParams::ethernet(victim_tail_bps, SimDuration::from_millis(5)),
        );
        // Leaf naming matches the historical star generator at depth 1
        // (`zombie_net_<i>`); deeper trees label intermediate providers
        // `ad_<path>` and leaves by their leaf ordinal.
        let mut leaf_ordinal = 0usize;
        let mut stack: Vec<(usize, usize, String)> = (0..branching)
            .rev()
            .map(|i| (hub, 1, i.to_string()))
            .collect();
        while let Some((parent, level, path)) = stack.pop() {
            let prefix = alloc.next_slash16();
            if level == levels {
                let name = format!("zombie_net_{leaf_ordinal}");
                leaf_ordinal += 1;
                let net = t.declare(&name, prefix, Some(parent), d(), l(), Side::Attacker);
                for _ in 0..hosts_per_leaf {
                    t.host_with(
                        net,
                        Role::Attacker,
                        zombie_policy,
                        WorldBuilder::default_host_link(),
                    );
                }
            } else {
                let name = format!("ad_{path}");
                let net = t.declare(&name, prefix, Some(parent), d(), l(), Side::Neutral);
                for i in (0..branching).rev() {
                    stack.push((net, level + 1, format!("{path}_{i}")));
                }
            }
        }
        t
    }

    /// An internet-scale power-law provider graph — see [`PowerLawSpec`].
    ///
    /// The shape mimics measured AS graphs: a handful of high-degree
    /// transit providers and a long tail of stub networks, grown by
    /// preferential attachment (probability [`PowerLawSpec::skew`] of
    /// picking a parent in proportion to its degree, else uniformly),
    /// with peering shortcuts between a sampled fraction of networks.
    /// `nets[0]` is the `core` root, `nets[1]` the `victim_net` (with the
    /// victim host installed); the generated networks are anonymous (see
    /// [`NetDecl::name`]) and are selected by index range, side or role.
    /// Prefixes are /24s from [`PrefixAlloc::next_slash24`] and the spec
    /// switches itself to [`RoutingMode::Hierarchical`], so a 100k-net
    /// world's routing state is its O(n) provider tree, and the spec
    /// itself is made in a number of allocations that does not grow with
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the graph needs more than
    /// [`PrefixAlloc::CAPACITY_SLASH24`] networks, naming the requested
    /// vs available count.
    pub fn power_law(spec: &PowerLawSpec) -> Self {
        let needed = spec.n_nets as u64 + 2;
        assert!(
            needed <= PrefixAlloc::CAPACITY_SLASH24,
            "power_law asked for {needed} networks but only {} /24 \
             prefixes exist",
            PrefixAlloc::CAPACITY_SLASH24
        );
        assert!(
            (0.0..=1.0).contains(&spec.skew),
            "skew is a probability, got {}",
            spec.skew
        );
        assert!(spec.max_depth >= 1, "max_depth must be at least 1");
        let mut alloc = PrefixAlloc::new();
        let mut t = TopologySpec::new();
        t.routing = RoutingMode::Hierarchical;
        t.nets.reserve_exact(spec.n_nets + 2);
        let (d, l) = (RouterPolicy::default, WorldBuilder::default_net_link);
        let core = t.declare("core", alloc.next_slash24(), None, d(), l(), Side::Neutral);
        let victim_net = t.declare(
            "victim_net",
            alloc.next_slash24(),
            Some(core),
            d(),
            l(),
            Side::Victim,
        );
        t.host_with(
            victim_net,
            Role::Victim,
            HostPolicy::Compliant,
            LinkParams::ethernet(spec.victim_tail_bps, SimDuration::from_millis(5)),
        );

        // Preferential attachment over the *endpoints list*: every edge
        // pushes both its endpoints, so drawing uniformly from the list is
        // drawing a net in proportion to its degree — O(1) per draw, the
        // classic Barabási–Albert trick. Depth is capped by walking a too-
        // deep pick up its provider chain.
        let mut rng = splitmix(spec.seed ^ 0xA5_0000_0001);
        let reserved = |capacity: usize, first: [u32; 2]| {
            let mut v = Vec::with_capacity(capacity);
            v.extend(first);
            v
        };
        let mut endpoints = reserved(2 * spec.n_nets + 2, [core as u32, victim_net as u32]);
        let mut depth = reserved(spec.n_nets + 2, [0, 1]);
        let mut parent_of = reserved(spec.n_nets + 2, [0, 0]);
        for _ in 0..spec.n_nets {
            rng = splitmix(rng);
            let preferential = (rng >> 32) as f64 / (1u64 << 32) as f64 <= spec.skew;
            rng = splitmix(rng);
            let mut parent = if preferential {
                endpoints[(rng % endpoints.len() as u64) as usize] as usize
            } else {
                (rng % t.nets.len() as u64) as usize
            };
            while depth[parent] as usize >= spec.max_depth {
                parent = parent_of[parent] as usize;
            }
            // Direct push: `declare`'s duplicate-name scan is O(n) per net,
            // and an anonymous network has no name to duplicate (an empty
            // `String` does not allocate).
            t.nets.push(NetDecl {
                name: String::new(),
                prefix: alloc.next_slash24(),
                parent: Some(parent),
                policy: RouterPolicy::default(),
                uplink: WorldBuilder::default_net_link(),
                side: Side::Neutral,
            });
            let id = (t.nets.len() - 1) as u32;
            depth.push(depth[parent] + 1);
            parent_of.push(parent as u32);
            endpoints.push(parent as u32);
            endpoints.push(id);
        }

        // Peering shortcuts between sampled pairs — skipped when one pick
        // is the other's ancestor (the tree already routes that pair, and
        // hierarchical mode must not shadow subtree routes).
        let n_peerings = (spec.n_nets as f64 * spec.peering_fraction) as usize;
        let is_ancestor = |a: usize, b: usize, depth: &[u32], parent_of: &[u32]| {
            let mut cur = b;
            while depth[cur] > depth[a] {
                cur = parent_of[cur] as usize;
            }
            cur == a
        };
        for _ in 0..n_peerings {
            rng = splitmix(rng);
            let a = (rng % t.nets.len() as u64) as usize;
            rng = splitmix(rng);
            let b = (rng % t.nets.len() as u64) as usize;
            if a == b
                || is_ancestor(a, b, &depth, &parent_of)
                || is_ancestor(b, a, &depth, &parent_of)
            {
                continue;
            }
            t.peer(a, b, WorldBuilder::default_net_link());
        }
        t
    }

    /// Scatters `count` hosts with one role/policy over the networks in
    /// `nets` (indices into [`TopologySpec::nets`]), deterministically
    /// from `seed`. A full network (250 hosts) overflows to the next
    /// index, so the call never violates the per-network host cap.
    ///
    /// # Panics
    ///
    /// Panics if the selected networks cannot hold `count` more hosts,
    /// naming the requested vs available count.
    pub fn scatter_hosts(
        &mut self,
        nets: std::ops::Range<usize>,
        count: usize,
        role: Role,
        policy: HostPolicy,
        link: LinkParams,
        seed: u64,
    ) -> Vec<usize> {
        let candidates: Vec<usize> = nets.collect();
        let mut load: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        for h in &self.hosts {
            *load.entry(h.net).or_insert(0) += 1;
        }
        let available: u64 = candidates
            .iter()
            .map(|&n| 250u64.saturating_sub(load.get(&n).copied().unwrap_or(0) as u64))
            .sum();
        assert!(
            count as u64 <= available,
            "scatter_hosts asked for {count} hosts but the {} selected \
             networks only hold {available} more",
            candidates.len()
        );
        let mut rng = splitmix(seed ^ 0x5CA7_7E12);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            rng = splitmix(rng);
            let mut at = (rng % candidates.len() as u64) as usize;
            while load.get(&candidates[at]).copied().unwrap_or(0) >= 250 {
                at = (at + 1) % candidates.len();
            }
            let net = candidates[at];
            *load.entry(net).or_insert(0) += 1;
            if role == Role::Attacker && self.nets[net].side == Side::Neutral {
                self.nets[net].side = Side::Attacker;
            }
            out.push(self.host_with(net, role, policy, link));
        }
        out
    }

    // ------------------------------------------------------------------
    // Lowering.
    // ------------------------------------------------------------------

    /// Builds the world. Every border router runs the defense named by
    /// `cfg.defense` (see [`aitf_core::DefensePolicy`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`WorldError`]'s text if the declarations do not
    /// make a world (see [`World::try_build`]).
    pub fn build(&self, seed: u64, cfg: AitfConfig) -> BuiltWorld {
        self.try_build(seed, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TopologySpec::build`], returning the build's error.
    pub(crate) fn try_build(
        &self,
        seed: u64,
        cfg: AitfConfig,
    ) -> Result<BuiltWorld, WorldError<'_>> {
        let (nets, hosts, peerings) = (&self.nets, &self.hosts, &self.peerings);
        Ok(BuiltWorld {
            world: World::try_build(seed, cfg, self.routing, nets, hosts, peerings)?,
            net_sides: self.nets.iter().map(|n| n.side).collect(),
            host_roles: self.hosts.iter().map(|h| h.role).collect(),
        })
    }
}

/// Selects networks — the network counterpart of
/// [`crate::workload::HostSel`], used by churn actions that mutate
/// providers (e.g. `ChurnAction::SetRouterPolicy`).
#[derive(Debug, Clone)]
pub enum NetSel {
    /// One network, by name.
    Name(String),
    /// Several networks, by name, in the given order.
    Names(Vec<String>),
    /// Every network on a side, in declaration order.
    Side(Side),
    /// Every network, in declaration order.
    All,
}

impl NetSel {
    /// Resolves the selection against a built world, in declaration
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on a name that does not exist in the world.
    pub fn resolve(&self, world: &BuiltWorld) -> Vec<NetId> {
        match self {
            NetSel::Name(name) => vec![world.net(name)],
            NetSel::Names(names) => names.iter().map(|n| world.net(n)).collect(),
            NetSel::Side(side) => world.nets_on(*side),
            NetSel::All => (0..world.world.net_count()).map(NetId).collect(),
        }
    }
}

/// A built world plus the role/side bookkeeping workloads and probes
/// select by. Declaration `i` is [`NetId`]`(i)` / [`HostId`]`(i)`, the
/// rule [`World::router_node`] and [`World::host_node`] follow.
pub struct BuiltWorld {
    /// The runnable world.
    pub world: World,
    net_sides: Vec<Side>,
    host_roles: Vec<Role>,
}

impl BuiltWorld {
    /// The network named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such network exists; an anonymous network has no name
    /// to find it by.
    pub fn net(&self, name: &str) -> NetId {
        let mut ids = (0..self.world.net_count()).map(NetId);
        ids.find(|&id| !name.is_empty() && self.world.net_name(id) == name)
            .unwrap_or_else(|| panic!("no network named {name:?} in the world"))
    }

    /// All networks on a side, in declaration order.
    pub fn nets_on(&self, side: Side) -> Vec<NetId> {
        self.net_sides
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(i, _)| NetId(i))
            .collect()
    }

    /// All hosts with a role, in declaration order.
    pub fn hosts_with(&self, role: Role) -> Vec<HostId> {
        self.host_roles
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == role)
            .map(|(i, _)| HostId(i))
            .collect()
    }

    /// The first host with `role`.
    ///
    /// # Panics
    ///
    /// Panics if no host has the role.
    pub fn first_with(&self, role: Role) -> HostId {
        let i = self.host_roles.iter().position(|&r| r == role);
        HostId(i.unwrap_or_else(|| panic!("no host with role {role:?} in the world")))
    }

    /// The victim (first [`Role::Victim`] host).
    pub fn victim(&self) -> HostId {
        self.first_with(Role::Victim)
    }

    /// A host by declaration index.
    pub fn host_id(&self, index: usize) -> HostId {
        assert!(index < self.host_roles.len(), "host index out of range");
        HostId(index)
    }

    /// The role a host was declared with.
    ///
    /// # Panics
    ///
    /// Panics on a handle that did not come from this world.
    pub fn role_of(&self, host: HostId) -> Role {
        let role = self.host_roles.get(host.0);
        *role.unwrap_or_else(|| panic!("host handle {host:?} is not from this world"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_shape() {
        let t = TopologySpec::fig1(HostPolicy::Malicious);
        let f = t.build(1, AitfConfig::default());
        assert_eq!(f.world.net_count(), 6);
        assert_eq!(f.world.host_count(), 2);
        assert_eq!(f.world.net_name(f.net("G_net")), "G_net");
        assert!(f.world.uplink(f.net("G_net")).is_some());
        assert!(f.world.uplink(f.net("G_wan")).is_none());
        assert_eq!(f.role_of(f.victim()), Role::Victim);
        let attacker = f.world.host_addr(f.first_with(Role::Attacker));
        assert!(f.world.net_prefix(f.net("B_net")).contains(attacker));
    }

    #[test]
    fn chain_pair_depth_one_is_minimal() {
        let c = TopologySpec::chain_pair(1, HostPolicy::Compliant).build(1, AitfConfig::default());
        assert_eq!(c.world.net_count(), 2);
        assert_eq!(c.nets_on(Side::Victim).len(), 1);
    }

    #[test]
    fn chain_pair_depth_three_equals_fig1_shape() {
        let c = TopologySpec::chain_pair(3, HostPolicy::Compliant).build(1, AitfConfig::default());
        assert_eq!(c.world.net_count(), 6);
        // G_1 is the leaf (has an uplink), G_3 the top (peered, no uplink).
        assert!(c.world.uplink(c.net("G_1")).is_some());
        assert!(c.world.uplink(c.net("G_3")).is_none());
        assert_eq!(c.world.host_net(c.victim()), c.net("G_1"));
        // Each side is declared top-down.
        assert_eq!(c.nets_on(Side::Victim).last(), Some(&c.net("G_1")));
    }

    #[test]
    fn star_world_counts() {
        let s = TopologySpec::star(8, 3, HostPolicy::Malicious, 10_000_000)
            .build(1, AitfConfig::default());
        assert_eq!(s.nets_on(Side::Attacker).len(), 8);
        assert_eq!(s.hosts_with(Role::Attacker).len(), 24);
        assert_eq!(s.world.net_count(), 10);
        assert_eq!(s.world.host_count(), 25);
        assert_eq!(
            s.world.host_net(s.hosts_with(Role::Attacker)[0]),
            s.nets_on(Side::Attacker)[0]
        );
    }

    #[test]
    fn tree_level_one_is_a_star() {
        let star = TopologySpec::star(4, 2, HostPolicy::Malicious, 10_000_000);
        let tree = TopologySpec::tree(1, 4, 2, HostPolicy::Malicious, 10_000_000);
        assert_eq!(star.nets.len(), tree.nets.len());
        for (a, b) in star.nets.iter().zip(&tree.nets) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(a.parent, b.parent);
        }
        assert_eq!(star.hosts.len(), tree.hosts.len());
    }

    #[test]
    fn deep_tree_hangs_zombies_off_intermediate_providers() {
        let t = TopologySpec::tree(2, 3, 2, HostPolicy::Malicious, 10_000_000);
        // hub + victim_net + 3 mid ADs + 9 leaves.
        assert_eq!(t.nets.len(), 14);
        let b = t.build(1, AitfConfig::default());
        assert_eq!(b.nets_on(Side::Attacker).len(), 9);
        assert_eq!(b.hosts_with(Role::Attacker).len(), 18);
        // Leaves are two hops below the hub.
        let leaf = b.net("zombie_net_0");
        let mid = b.net("ad_0");
        assert!(b.world.uplink(leaf).is_some());
        assert!(b.world.uplink(mid).is_some());
        assert!(b.world.uplink(b.net("hub")).is_none());
    }

    #[test]
    fn star_scales_past_256_nets() {
        // The checked PrefixAlloc bound exists for armies beyond the old
        // 64-net sweeps: building a 300-net star must not exhaust it.
        let t = TopologySpec::star(300, 1, HostPolicy::Malicious, 10_000_000);
        assert_eq!(t.nets.len(), 302);
        let b = t.build(7, AitfConfig::default());
        assert_eq!(b.world.net_count(), 302);
        assert_eq!(b.world.host_count(), 301);
        assert_eq!(b.hosts_with(Role::Attacker).len(), 300);
    }

    #[test]
    #[should_panic(expected = "at most 250")]
    fn tree_rejects_overfull_leaves() {
        let _ = TopologySpec::tree(1, 2, 251, HostPolicy::Malicious, 10_000_000);
    }

    #[test]
    #[should_panic(expected = "/16 prefixes exist")]
    fn tree_rejects_worlds_past_the_prefix_space() {
        // 10 levels of branching 4 ≈ 1.4M networks > 60k /16s; the checked
        // arithmetic must also survive absurd inputs without wrapping.
        let _ = TopologySpec::tree(10, 4, 1, HostPolicy::Malicious, 10_000_000);
    }

    #[test]
    fn power_law_generates_a_heavy_tailed_capped_depth_graph() {
        let spec = PowerLawSpec {
            n_nets: 2000,
            skew: 0.8,
            max_depth: 5,
            peering_fraction: 0.02,
            ..PowerLawSpec::default()
        };
        let t = TopologySpec::power_law(&spec);
        assert_eq!(t.nets.len(), 2002);
        assert_eq!(t.routing, RoutingMode::Hierarchical);
        assert_eq!(t.nets[0].name, "core");
        assert_eq!(t.nets[1].name, "victim_net");
        // Every generated network is anonymous and holds a /24.
        assert!(t.nets.iter().all(|n| n.prefix.len() == 24));
        assert!(t.nets[2..].iter().all(|n| n.name.is_empty()));
        // Depth cap honoured.
        let mut depth = vec![0usize; t.nets.len()];
        let mut degree = vec![0usize; t.nets.len()];
        for (i, n) in t.nets.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i, "parents precede children");
                depth[i] = depth[p] + 1;
                degree[p] += 1;
                degree[i] += 1;
            }
            assert!(depth[i] <= 5, "depth cap violated at {}", n.label(i));
        }
        // Heavy tail: the best-connected provider dwarfs the median (a
        // uniform tree of 2000 nets has max degree ~15).
        let max_degree = *degree.iter().max().expect("nonempty");
        assert!(max_degree > 100, "no heavy tail: max degree {max_degree}");
        let stubs = degree.iter().filter(|&&d| d == 1).count();
        assert!(stubs > 1000, "most networks must be stubs: {stubs}");
        assert!(!t.peerings.is_empty(), "peering shortcuts expected");
        // Deterministic: same spec, same graph.
        let again = TopologySpec::power_law(&spec);
        assert_eq!(t.nets.len(), again.nets.len());
        assert!(t
            .nets
            .iter()
            .zip(&again.nets)
            .all(|(a, b)| a.parent == b.parent && a.prefix == b.prefix));
    }

    #[test]
    fn power_law_world_builds_and_routes() {
        let spec = PowerLawSpec {
            n_nets: 300,
            ..PowerLawSpec::default()
        };
        let mut t = TopologySpec::power_law(&spec);
        let placed = t.scatter_hosts(
            2..302,
            40,
            Role::Legit,
            HostPolicy::Compliant,
            WorldBuilder::default_host_link(),
            9,
        );
        assert_eq!(placed.len(), 40);
        let b = t.build(1, AitfConfig::default());
        assert_eq!(b.world.net_count(), 302);
        assert_eq!(b.hosts_with(Role::Legit).len(), 40);
        assert_eq!(b.role_of(b.victim()), Role::Victim);
    }

    fn small_power_law() -> TopologySpec {
        TopologySpec::power_law(&PowerLawSpec {
            n_nets: 10,
            ..PowerLawSpec::default()
        })
    }

    #[test]
    #[should_panic(expected = "no network named")]
    fn the_empty_name_finds_no_declared_network() {
        let _ = small_power_law().net_index("");
    }

    #[test]
    #[should_panic(expected = "no network named")]
    fn the_empty_name_finds_no_built_network() {
        let b = small_power_law().build(1, AitfConfig::default());
        assert_eq!(b.net("victim_net"), NetId(1));
        let _ = b.net("");
    }

    #[test]
    #[should_panic(expected = "network \"a\" has an unparsable prefix \"10.1.0.0/33\"")]
    fn net_with_names_the_network_whose_literal_does_not_parse() {
        TopologySpec::new().net("a", "10.1.0.0/33", None);
    }

    #[test]
    #[should_panic(expected = "only hold")]
    fn scatter_hosts_rejects_overcommitment() {
        let mut t = TopologySpec::new();
        t.net("a", "10.1.0.0/24", None);
        let _ = t.scatter_hosts(
            0..1,
            251,
            Role::Legit,
            HostPolicy::Compliant,
            WorldBuilder::default_host_link(),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate network name")]
    fn duplicate_net_names_are_rejected() {
        let mut t = TopologySpec::new();
        t.net("a", "10.1.0.0/16", None);
        t.net("a", "10.2.0.0/16", None);
    }

    #[test]
    fn policy_overrides_by_name() {
        let mut t = TopologySpec::fig1(HostPolicy::Malicious);
        t.set_net_policy("B_net", RouterPolicy::non_cooperating());
        assert!(!t.nets[t.net_index("B_net")].policy.cooperating);
        t.set_all_net_policies(RouterPolicy::legacy());
        assert!(t.nets.iter().all(|n| !n.policy.aitf_enabled));
    }
}
