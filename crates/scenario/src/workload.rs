//! Declarative workloads: a `WorkloadSpec` is an ordered list of
//! [`TrafficSpec`] entries — flood armies, legitimate flow pools, on/off
//! phases, spoofing floods — each selecting its source hosts by
//! [`Role`] and compiling onto one [`aitf_core::Source`] per host (a
//! [`TrafficKind::Custom`] entry builds its own [`TrafficApp`]).
//!
//! Compilation order is part of a scenario's identity (it fixes timer
//! sequence numbers and therefore event ordering), so entries install in
//! declaration order and each entry arms its selected hosts in host
//! declaration order.

use std::sync::Arc;

use aitf_core::{HostId, Source, TrafficApp};
use aitf_netsim::SimDuration;
use aitf_packet::{Addr, Prefix};

use crate::topology::{BuiltWorld, HostDecl, Role};

/// How many of the declared `hosts` have `role`.
fn with_role(hosts: &[HostDecl], role: Role) -> usize {
    hosts.iter().filter(|h| h.role == role).count()
}

/// Selects the source hosts of a traffic entry.
#[derive(Debug, Clone)]
pub enum HostSel {
    /// One host, by declaration index.
    Index(usize),
    /// Every host with the role, in declaration order.
    Role(Role),
    /// The first `n` hosts with the role, in declaration order.
    RoleFirst(Role, usize),
    /// `count` hosts with the role starting at offset `start` (declaration
    /// order) — churn waves address disjoint groups of one role with this.
    RoleSlice(Role, usize, usize),
}

impl HostSel {
    /// Resolves the selection against a built world.
    ///
    /// # Panics
    ///
    /// Panics when a [`HostSel::RoleSlice`] reaches past the role's pool —
    /// a mis-sized wave is a scenario-authoring bug.
    pub fn resolve(&self, world: &BuiltWorld) -> Vec<HostId> {
        match *self {
            HostSel::Index(i) => vec![world.host_id(i)],
            HostSel::Role(role) => world.hosts_with(role),
            HostSel::RoleFirst(role, n) => {
                let mut hosts = world.hosts_with(role);
                hosts.truncate(n);
                hosts
            }
            HostSel::RoleSlice(role, start, count) => {
                let hosts = world.hosts_with(role);
                assert!(
                    start + count <= hosts.len(),
                    "RoleSlice({role:?}, {start}, {count}) reaches past the {} hosts of that role",
                    hosts.len()
                );
                hosts[start..start + count].to_vec()
            }
        }
    }

    /// How many of the declared `hosts` [`HostSel::resolve`] would pick,
    /// without building a world; an error names the selection and the
    /// numbers wherever `resolve` — or a caller that needs at least one
    /// host — would panic.
    pub(crate) fn check(&self, hosts: &[HostDecl]) -> Result<usize, String> {
        let n = match *self {
            HostSel::Index(i) => usize::from(i < hosts.len()),
            HostSel::Role(role) => with_role(hosts, role),
            HostSel::RoleFirst(role, n) => with_role(hosts, role).min(n),
            HostSel::RoleSlice(role, start, count) => {
                let pool = with_role(hosts, role);
                if start + count > pool {
                    return Err(format!(
                        "{self:?} reaches past the {pool} {role:?} hosts declared"
                    ));
                }
                count
            }
        };
        if n == 0 {
            return Err(format!(
                "{self:?} selects no host (of {} declared)",
                hosts.len()
            ));
        }
        Ok(n)
    }
}

/// Selects where a traffic entry's packets go.
#[derive(Debug, Clone, Copy)]
pub enum TargetSel {
    /// The world's victim (first [`Role::Victim`] host).
    Victim,
    /// A fixed host, by declaration index.
    Host(usize),
    /// The `i`-th selected source targets the `i`-th host of this role —
    /// distinct zombie→victim pairs (E5's per-flow layout).
    Paired(Role),
}

impl TargetSel {
    /// Resolves the target address for each of `n` sources, looking any
    /// role pool up once (not per source).
    ///
    /// # Panics
    ///
    /// Panics when a paired role has fewer hosts than there are sources.
    fn resolve_all(&self, world: &BuiltWorld, n: usize) -> Vec<Addr> {
        match *self {
            TargetSel::Victim => vec![world.world.host_addr(world.victim()); n],
            TargetSel::Host(i) => vec![world.world.host_addr(world.host_id(i)); n],
            TargetSel::Paired(role) => {
                let pool = world.hosts_with(role);
                assert!(
                    pool.len() >= n,
                    "paired target: {} sources but only {} {:?} hosts",
                    n,
                    pool.len(),
                    role
                );
                pool[..n]
                    .iter()
                    .map(|&h| world.world.host_addr(h))
                    .collect()
            }
        }
    }
}

/// A traffic rate: either per selected host, or an aggregate split across
/// them.
#[derive(Debug, Clone, Copy)]
pub enum Rate {
    /// Each selected host sends at this rate (packets/second).
    PerHost(u64),
    /// The selected hosts share this total rate: each gets `total / n`
    /// packets/second, with the remainder distributed one packet/second
    /// to the first `total % n` hosts.
    Aggregate(u64),
}

impl Rate {
    /// Splits the rate over `n` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if an aggregate rate is too low to give
    /// every host at least one packet/second.
    pub fn split(&self, n: usize) -> Vec<u64> {
        assert!(n > 0, "rate split over zero hosts");
        match *self {
            Rate::PerHost(pps) => vec![pps; n],
            Rate::Aggregate(total) => {
                let base = total / n as u64;
                let extra = (total % n as u64) as usize;
                assert!(
                    base > 0,
                    "aggregate rate {total} pps cannot cover {n} hosts"
                );
                (0..n).map(|i| base + u64::from(i < extra)).collect()
            }
        }
    }
}

/// Factory closure for bespoke traffic applications (forgers, protocol
/// hoppers) that need world addresses at install time.
pub type AppFactory = Arc<dyn Fn(&BuiltWorld, HostId) -> Box<dyn TrafficApp> + Send + Sync>;

/// What kind of traffic an entry generates.
pub enum TrafficKind {
    /// A constant-rate flood ([`Source::flood`]).
    Flood {
        /// Flood rate.
        rate: Rate,
        /// Packet size in bytes.
        size: u32,
    },
    /// The on-off evasion pattern ([`Source::onoff`]).
    OnOff {
        /// Rate during on-phases, packets/second.
        pps: u64,
        /// Packet size in bytes.
        size: u32,
        /// On-phase length.
        on_period: SimDuration,
        /// Off-phase length.
        off_period: SimDuration,
    },
    /// A round-robin source-address spoofing flood ([`Source::spoof`]).
    Spoof {
        /// Rate, packets/second.
        pps: u64,
        /// Packet size in bytes.
        size: u32,
        /// Prefix the spoofed sources are drawn from.
        pool: Prefix,
        /// Number of distinct spoofed sources.
        pool_size: u32,
    },
    /// Legitimate constant-bit-rate foreground traffic
    /// ([`Source::client`]).
    Legit {
        /// Rate, packets/second.
        pps: u64,
        /// Packet size in bytes.
        size: u32,
    },
    /// Heavy-tailed legitimate background load: host `i` of the selection
    /// sends Poisson traffic at `base_pps / uᵢ^(1/alpha)` packets/second,
    /// where `uᵢ` is a per-host uniform draw — a Pareto(`alpha`) rate mix
    /// (most hosts near `base_pps`, a few heavy elephants), capped at
    /// `cap_pps` so one lucky draw cannot out-flood the attack.
    LegitPareto {
        /// Minimum (and modal) per-host rate, packets/second.
        base_pps: u64,
        /// Rate ceiling, packets/second.
        cap_pps: u64,
        /// Pareto shape: smaller is heavier-tailed (1.2 ≈ measured flow
        /// size distributions).
        alpha: f64,
        /// Packet size in bytes.
        size: u32,
        /// Seed of the per-host draws — part of the workload's identity,
        /// independent of the run seed.
        seed: u64,
    },
    /// A bespoke [`TrafficApp`] built at install time. The one kind
    /// without a start window: its app times itself.
    Custom(AppFactory),
}

impl std::fmt::Debug for TrafficKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficKind::Flood { rate, size } => f
                .debug_struct("Flood")
                .field("rate", rate)
                .field("size", size)
                .finish(),
            TrafficKind::OnOff { pps, .. } => f.debug_struct("OnOff").field("pps", pps).finish(),
            TrafficKind::Spoof { pps, .. } => f.debug_struct("Spoof").field("pps", pps).finish(),
            TrafficKind::Legit { pps, .. } => f.debug_struct("Legit").field("pps", pps).finish(),
            TrafficKind::LegitPareto {
                base_pps, alpha, ..
            } => f
                .debug_struct("LegitPareto")
                .field("base_pps", base_pps)
                .field("alpha", alpha)
                .finish(),
            TrafficKind::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// One workload entry: a kind of traffic, its sources, its target and its
/// start window.
#[derive(Debug)]
pub struct TrafficSpec {
    /// Source hosts.
    pub on: HostSel,
    /// Destination (ignored by [`TrafficKind::Custom`]).
    pub to: TargetSel,
    /// Traffic shape.
    pub kind: TrafficKind,
    /// Delay before the first selected host starts.
    pub start_after: SimDuration,
    /// Extra delay per selected host (`i`-th host starts at
    /// `start_after + i · stagger`) — staggered zombie armies.
    pub stagger: SimDuration,
}

impl TrafficSpec {
    fn new(on: HostSel, to: TargetSel, kind: TrafficKind) -> Self {
        TrafficSpec {
            on,
            to,
            kind,
            start_after: SimDuration::ZERO,
            stagger: SimDuration::ZERO,
        }
    }

    /// A constant-rate flood at `pps` packets/second per host.
    pub fn flood(on: HostSel, to: TargetSel, pps: u64, size: u32) -> Self {
        Self::new(
            on,
            to,
            TrafficKind::Flood {
                rate: Rate::PerHost(pps),
                size,
            },
        )
    }

    /// A flood whose `total_pps` is split across the selected hosts.
    pub fn flood_aggregate(on: HostSel, to: TargetSel, total_pps: u64, size: u32) -> Self {
        Self::new(
            on,
            to,
            TrafficKind::Flood {
                rate: Rate::Aggregate(total_pps),
                size,
            },
        )
    }

    /// An on-off flood.
    pub fn onoff(
        on: HostSel,
        to: TargetSel,
        pps: u64,
        size: u32,
        on_period: SimDuration,
        off_period: SimDuration,
    ) -> Self {
        Self::new(
            on,
            to,
            TrafficKind::OnOff {
                pps,
                size,
                on_period,
                off_period,
            },
        )
    }

    /// A round-robin spoofing flood.
    pub fn spoof(
        on: HostSel,
        to: TargetSel,
        pps: u64,
        size: u32,
        pool: Prefix,
        pool_size: u32,
    ) -> Self {
        Self::new(
            on,
            to,
            TrafficKind::Spoof {
                pps,
                size,
                pool,
                pool_size,
            },
        )
    }

    /// A legitimate CBR client.
    pub fn legit(on: HostSel, to: TargetSel, pps: u64, size: u32) -> Self {
        Self::new(on, to, TrafficKind::Legit { pps, size })
    }

    /// Heavy-tailed legitimate background load (Pareto per-host rates,
    /// Poisson arrivals) — see [`TrafficKind::LegitPareto`].
    pub fn legit_pareto(
        on: HostSel,
        to: TargetSel,
        base_pps: u64,
        cap_pps: u64,
        alpha: f64,
        size: u32,
        seed: u64,
    ) -> Self {
        assert!(alpha > 0.0, "Pareto shape must be positive, got {alpha}");
        assert!(base_pps > 0, "base rate must be nonzero");
        assert!(cap_pps >= base_pps, "cap below the base rate");
        Self::new(
            on,
            to,
            TrafficKind::LegitPareto {
                base_pps,
                cap_pps,
                alpha,
                size,
                seed,
            },
        )
    }

    /// A bespoke app per selected host.
    pub fn custom(
        on: HostSel,
        make: impl Fn(&BuiltWorld, HostId) -> Box<dyn TrafficApp> + Send + Sync + 'static,
    ) -> Self {
        Self::new(on, TargetSel::Victim, TrafficKind::Custom(Arc::new(make)))
    }

    /// Delays the entry's start.
    pub fn starting_after(mut self, delay: SimDuration) -> Self {
        self.start_after = delay;
        self
    }

    /// Staggers consecutive hosts' starts.
    pub fn staggered(mut self, stagger: SimDuration) -> Self {
        self.stagger = stagger;
        self
    }

    /// What [`TrafficSpec::install`] asserts about its selections, checked
    /// against the declared `hosts` before any world exists: the sources
    /// are a non-empty selection within their role's pool, a paired
    /// target's pool covers every source, an aggregate flood gives
    /// every source at least one packet per second, and a custom entry
    /// has no start window.
    pub(crate) fn check(&self, hosts: &[HostDecl]) -> Result<(), String> {
        let n = self.on.check(hosts)?;
        if matches!(self.kind, TrafficKind::Custom(_))
            && !(self.start_after.is_zero() && self.stagger.is_zero())
        {
            return Err(format!(
                "custom traffic on {:?} cannot take a start window \
                 (start_after {:?}, stagger {:?})",
                self.on, self.start_after, self.stagger
            ));
        }
        if let TargetSel::Paired(role) = self.to {
            let pool = with_role(hosts, role);
            if pool < n {
                return Err(format!(
                    "{:?} pairs {n} sources with only {pool} {role:?} hosts",
                    self.to
                ));
            }
        }
        if let TrafficKind::Flood {
            rate: Rate::Aggregate(total),
            ..
        } = self.kind
        {
            if total < n as u64 {
                return Err(format!(
                    "an aggregate flood of {total} pps cannot give each of its \
                     {n} sources one packet per second"
                ));
            }
        }
        Ok(())
    }

    /// Installs this entry's apps onto the built world — before the run
    /// starts (the [`WorkloadSpec::compile`] path) or *mid-run*, where the
    /// apps activate immediately at the current virtual time (the churn
    /// `StartTraffic` path; `starting_after`/`stagger` then count from
    /// now).
    ///
    /// # Panics
    ///
    /// Panics on a start window on a custom entry and on entries that
    /// select no hosts — either way a scenario-authoring bug, and a
    /// silently empty entry would masquerade as a perfectly defended run.
    /// The panics are the backstop: [`crate::Scenario::validate`] reports
    /// the same specs as errors first.
    pub fn install(&self, world: &mut BuiltWorld) {
        let sources = self.on.resolve(world);
        assert!(
            !sources.is_empty(),
            "traffic entry {:?} selects no hosts",
            self.on
        );
        let rates = match &self.kind {
            TrafficKind::Flood { rate, size: _ } => Some(rate.split(sources.len())),
            _ => None,
        };
        let targets = self.to.resolve_all(world, sources.len());
        for (i, &host) in sources.iter().enumerate() {
            let start = self.start_after + self.stagger * i as u64;
            let target = targets[i];
            let source = match &self.kind {
                TrafficKind::Flood { size, .. } => {
                    let pps = rates.as_ref().expect("rates computed for floods")[i];
                    Source::flood(target, pps, *size)
                }
                TrafficKind::OnOff {
                    pps,
                    size,
                    on_period,
                    off_period,
                } => Source::onoff(target, *pps, *size, *on_period, *off_period),
                TrafficKind::Spoof {
                    pps,
                    size,
                    pool,
                    pool_size,
                } => Source::spoof(target, *pps, *size, *pool, *pool_size),
                TrafficKind::Legit { pps, size } => Source::client(target, *pps, *size),
                TrafficKind::LegitPareto {
                    base_pps,
                    cap_pps,
                    alpha,
                    size,
                    seed,
                } => {
                    // u ∈ (0, 1] from the top 53 bits of a splitmix draw;
                    // rate = base/u^(1/α) is the Pareto inverse-CDF.
                    let draw = aitf_engine::splitmix(*seed ^ (i as u64).wrapping_mul(0x9E37));
                    let u = ((draw >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                    let rate = (*base_pps as f64 / u.powf(1.0 / *alpha)) as u64;
                    let pps = rate.clamp(*base_pps, *cap_pps);
                    let arrivals = aitf_engine::splitmix(draw ^ 0x00AA_1234);
                    Source::poisson_client(target, pps, *size, arrivals)
                }
                TrafficKind::Custom(make) => {
                    assert!(start.is_zero(), "custom traffic takes no start window");
                    world.world.activate_app(host, make(&*world, host));
                    continue;
                }
            };
            world
                .world
                .activate_app(host, Box::new(source.starting_after(start)));
        }
    }
}

/// An ordered list of traffic entries.
#[derive(Debug, Default)]
pub struct WorkloadSpec {
    /// The entries, in installation order.
    pub traffic: Vec<TrafficSpec>,
}

impl WorkloadSpec {
    /// An empty workload.
    pub fn new() -> Self {
        WorkloadSpec::default()
    }

    /// Builder-style append.
    pub fn with(mut self, spec: TrafficSpec) -> Self {
        self.traffic.push(spec);
        self
    }

    /// Appends an entry.
    pub fn push(&mut self, spec: TrafficSpec) {
        self.traffic.push(spec);
    }

    /// Installs every entry's apps onto the built world, in order (see
    /// [`TrafficSpec::install`] for the per-entry semantics and panics).
    pub fn compile(&self, world: &mut BuiltWorld) {
        for spec in &self.traffic {
            spec.install(world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_host_rate_split_is_even_with_remainder_up_front() {
        assert_eq!(Rate::PerHost(50).split(3), vec![50, 50, 50]);
        assert_eq!(Rate::Aggregate(1000).split(4), vec![250, 250, 250, 250]);
        assert_eq!(Rate::Aggregate(10).split(3), vec![4, 3, 3]);
        let split = Rate::Aggregate(1001).split(4);
        assert_eq!(split, vec![251, 250, 250, 250]);
        assert_eq!(split.iter().sum::<u64>(), 1001);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn aggregate_rate_must_cover_every_host() {
        let _ = Rate::Aggregate(3).split(5);
    }

    #[test]
    #[should_panic(expected = "zero hosts")]
    fn rate_split_rejects_zero_hosts() {
        let _ = Rate::PerHost(10).split(0);
    }

    #[test]
    fn pareto_rates_are_heavy_tailed_capped_and_deterministic() {
        // Reproduce install()'s per-host draw directly: rates sit in
        // [base, cap], most near base, with a genuine tail.
        let rate_for = |i: usize, seed: u64| {
            let draw = aitf_engine::splitmix(seed ^ (i as u64).wrapping_mul(0x9E37));
            let u = ((draw >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            ((100.0 / u.powf(1.0 / 1.2)) as u64).clamp(100, 10_000)
        };
        let rates: Vec<u64> = (0..2000).map(|i| rate_for(i, 7)).collect();
        assert!(rates.iter().all(|&r| (100..=10_000).contains(&r)));
        let modest = rates.iter().filter(|&&r| r < 400).count();
        assert!(modest > 1200, "bulk must sit near base: {modest}");
        let elephants = rates.iter().filter(|&&r| r >= 2000).count();
        assert!(
            (1..200).contains(&elephants),
            "tail must exist but stay rare: {elephants}"
        );
        assert_eq!(rates, (0..2000).map(|i| rate_for(i, 7)).collect::<Vec<_>>());
    }
}
