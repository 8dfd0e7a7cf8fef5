//! One pass of a workload, two ways.
//!
//! - [`untraced`] drives the exact function every experiment uses —
//!   `Scenario::run(seed)` — and reads the phase boundaries from outside,
//!   through two timestamp probes in the benchmark's own `ProbeSet`: a
//!   setup hook (world built, workload compiled, shards applied) and a
//!   first end probe (event loop finished). End-to-end metrics come from
//!   these passes only.
//! - [`traced`] walks the same steps through the decomposed public path
//!   (`TopologySpec::build` → `WorkloadSpec::compile` → `shard_hints` →
//!   `apply_shards` → 100 × `run_for` → probes → `drop`) with a span around
//!   each call. Its record must equal the untraced one.
//!
//! Both collect the same [`Record`] and check the same conservation
//! identities from public counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aitf_core::{DefensePolicy, NetId};
use aitf_netsim::{partition, LinkDirection, LinkId, NodeId, SimDuration};
use aitf_scenario::{BuiltWorld, ProbeSet, Role, Scenario, StreamProbeConfig, VictimStreamTap};

use crate::record::Record;
use crate::spans::Recorder;
use crate::workloads::{generate, Kind, LegSpec, Size};

/// Slices the traced event loop is driven in.
pub const RUN_SLICES: u64 = 100;

/// Host-time phases of one leg, in seconds. `setup_s` starts at topology
/// generation; the four phases are contiguous, so their sum is the leg's
/// wall time up to timer resolution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub gen_s: f64,
    pub setup_s: f64,
    pub run_s: f64,
    pub collect_s: f64,
    pub teardown_s: f64,
}

impl Phases {
    pub fn sum(&self) -> f64 {
        self.setup_s + self.run_s + self.collect_s + self.teardown_s
    }
}

/// What one policy leg of a pass produced.
pub struct Leg {
    pub policy: DefensePolicy,
    pub phases: Phases,
    pub record: Record,
    /// Broken conservation identities (empty = all hold).
    pub violations: Vec<String>,
    /// Conservative lookahead of the sharded loop (0 when single).
    /// Depends on the shard count, so it is not part of the record.
    pub lookahead_ns: u64,
    /// Bytes held by the victim stream tap (0 when not installed).
    pub probe_bytes: u64,
}

/// Everything the collect probe reads off the finished world.
struct Collected {
    record: Record,
    violations: Vec<String>,
    lookahead_ns: u64,
    probe_bytes: u64,
}

fn install_tap(w: &mut BuiltWorld) {
    let victim = w.victim();
    w.world
        .host_mut(victim)
        .set_rx_tap(Box::new(VictimStreamTap::new(StreamProbeConfig {
            top_k: 10,
            ..StreamProbeConfig::default()
        })));
}

/// Reads the record and checks the invariants, from public counters only.
fn collect(w: &BuiltWorld) -> Collected {
    let world = &w.world;
    let mut rec = Record::default();
    let mut violations = Vec::new();
    let mut violate = |msg: String| {
        if violations.len() < 8 {
            violations.push(msg);
        }
    };
    rec.push_u("events", world.sim.dispatched_events());

    // The paper's quantities at the victim.
    let offered = |role: Role| -> u64 {
        w.hosts_with(role)
            .iter()
            .map(|&h| world.host(h).counters().tx_bytes)
            .sum()
    };
    let victim = world.host(w.victim()).counters();
    let attack_offered = offered(Role::Attacker);
    let legit_offered = offered(Role::Legit);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    rec.push_u("attack.offered_attack_bytes", attack_offered);
    rec.push_u("attack.offered_legit_bytes", legit_offered);
    rec.push_u("sim.attack_received_bytes", victim.rx_attack_bytes);
    rec.push_u("sim.legit_received_bytes", victim.rx_legit_bytes);
    rec.push_f(
        "sim.leak_ratio",
        ratio(victim.rx_attack_bytes, attack_offered),
    );
    rec.push_f(
        "sim.legit_delivery",
        ratio(victim.rx_legit_bytes, legit_offered),
    );
    let victim_gw = world.router(w.net("victim_net"));
    rec.push_u(
        "sim.victim_gw_peak_filters",
        victim_gw.filters().stats().peak_occupancy as u64,
    );

    // core + filter: sums over every border router.
    let mut c = aitf_core::RouterCounters::default();
    let mut disconnects = 0u64;
    let mut f = aitf_filter::FilterStats::default();
    let mut shadow_inserts = 0u64;
    let mut footprint = 0u64;
    // Only AITF's escalate chain sorts requests into the buckets below.
    let aitf = world.cfg.defense == DefensePolicy::Aitf;
    for i in 0..world.net_count() {
        let r = world.router(NetId(i));
        let rc = r.counters();
        // Every received request lands in exactly one bucket
        // (`deferred_unsatisfied` is documented as outside the identity).
        let buckets = rc.requests_policed
            + rc.requests_ignored
            + rc.requests_invalid
            + rc.requests_refreshed
            + rc.requests_unsatisfiable
            + rc.requests_accepted;
        if aitf && rc.requests_received != buckets {
            violate(format!(
                "router {}: requests_received {} != bucket sum {buckets}",
                world.net_name(NetId(i)),
                rc.requests_received
            ));
        }
        c.data_forwarded += rc.data_forwarded;
        c.data_filtered_pkts += rc.data_filtered_pkts;
        c.spoofed_dropped += rc.spoofed_dropped;
        c.undeliverable += rc.undeliverable;
        c.requests_received += rc.requests_received;
        c.requests_policed += rc.requests_policed;
        c.requests_accepted += rc.requests_accepted;
        c.requests_unsatisfiable += rc.requests_unsatisfiable;
        c.filters_installed += rc.filters_installed;
        c.handshakes_started += rc.handshakes_started;
        c.handshakes_confirmed += rc.handshakes_confirmed;
        c.escalations_sent += rc.escalations_sent;
        c.reactivations += rc.reactivations;
        disconnects += rc.disconnects_client + rc.disconnects_peer;
        let fs = r.filters().stats();
        if fs.peak_occupancy > r.filters().capacity() {
            violate(format!(
                "router {}: filter peak {} above capacity {}",
                world.net_name(NetId(i)),
                fs.peak_occupancy,
                r.filters().capacity()
            ));
        }
        f.installs += fs.installs;
        f.evictions += fs.evictions;
        f.expirations += fs.expirations;
        f.hits += fs.hits;
        f.misses += fs.misses;
        f.peak_occupancy = f.peak_occupancy.max(fs.peak_occupancy);
        shadow_inserts += r.shadow().stats().inserts;
        footprint += r.defense_footprint() as u64;
    }
    for (name, v) in [
        ("core.data_forwarded", c.data_forwarded),
        ("core.data_filtered_pkts", c.data_filtered_pkts),
        ("core.spoofed_dropped", c.spoofed_dropped),
        ("core.undeliverable", c.undeliverable),
        ("core.requests_received", c.requests_received),
        ("core.requests_policed", c.requests_policed),
        ("core.requests_accepted", c.requests_accepted),
        ("core.requests_unsatisfiable", c.requests_unsatisfiable),
        ("core.filters_installed", c.filters_installed),
        ("core.handshakes_started", c.handshakes_started),
        ("core.handshakes_confirmed", c.handshakes_confirmed),
        ("core.escalations_sent", c.escalations_sent),
        ("core.reactivations", c.reactivations),
        ("core.disconnects", disconnects),
        ("core.victim_rx_attack_pkts", victim.rx_attack_pkts),
        ("core.victim_rx_legit_pkts", victim.rx_legit_pkts),
        ("core.victim_requests_sent", victim.requests_sent),
        ("filter.installs", f.installs),
        ("filter.evictions", f.evictions),
        ("filter.expirations", f.expirations),
        ("filter.hits", f.hits),
        ("filter.misses", f.misses),
        ("filter.peak_occupancy", f.peak_occupancy as u64),
        ("filter.shadow_inserts", shadow_inserts),
        ("defense.footprint", footprint),
    ] {
        rec.push_u(name, v);
    }

    // netsim: every link direction conserves packets.
    let (mut offered_pkts, mut sent, mut queue_drop, mut admin_drop) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..world.sim.link_count() {
        let link = world.sim.link(LinkId(i));
        for dir in [LinkDirection::AToB, LinkDirection::BToA] {
            let s = link.stats(dir);
            let held = link.queued_pkts(dir) as u64 + u64::from(link.has_in_flight(dir));
            let accounted = s.sent_pkts + s.queue_drop_pkts + s.admin_drop_pkts + held;
            if s.offered_pkts != accounted {
                violate(format!(
                    "link {i} {dir:?}: offered {} != sent+dropped+held {accounted}",
                    s.offered_pkts
                ));
            }
            offered_pkts += s.offered_pkts;
            sent += s.sent_pkts;
            queue_drop += s.queue_drop_pkts;
            admin_drop += s.admin_drop_pkts;
        }
    }
    rec.push_u("netsim.link_offered_pkts", offered_pkts);
    rec.push_u("netsim.link_sent_pkts", sent);
    rec.push_u("netsim.link_queue_drop_pkts", queue_drop);
    rec.push_u("netsim.link_admin_drop_pkts", admin_drop);

    // The stream tap's totals are exact: they must agree with the victim.
    let mut probe_bytes = 0u64;
    let tap = world
        .host(w.victim())
        .rx_tap()
        .and_then(|t| t.as_any().downcast_ref::<VictimStreamTap>());
    if let Some(tap) = tap {
        probe_bytes = tap.footprint_bytes() as u64;
        let exact = victim.rx_attack_pkts + victim.rx_legit_pkts;
        if tap.total_pkts() != exact || tap.total_attack_pkts() != victim.rx_attack_pkts {
            violate(format!(
                "stream tap saw {} pkts ({} attack), victim counted {exact} ({})",
                tap.total_pkts(),
                tap.total_attack_pkts(),
                victim.rx_attack_pkts
            ));
        }
    }

    Collected {
        record: rec,
        violations,
        lookahead_ns: world.sim.lookahead().map_or(0, SimDuration::as_nanos),
        probe_bytes,
    }
}

/// The wall-clock marks the probes leave behind.
#[derive(Default)]
struct Marks {
    setup_done: Option<Instant>,
    run_done: Option<Instant>,
    collect_done: Option<Instant>,
    collected: Option<Collected>,
}

/// One leg through `Scenario::run`. `shards` overrides the workload's
/// shard count (the shards = 1 reference of `megatree_sharded`).
pub fn untraced_leg(
    kind: Kind,
    size: Size,
    seed: u64,
    policy: DefensePolicy,
    nproc: usize,
    shards: Option<usize>,
) -> Leg {
    let start = Instant::now();
    let leg = generate(kind, size, seed, policy, nproc);
    let gen_done = Instant::now();
    let marks = Rc::new(RefCell::new(Marks::default()));
    let mut probes = ProbeSet::new();
    if leg.stream_tap {
        probes = probes.setup(install_tap);
    }
    let (m_setup, m_run, m_collect) = (marks.clone(), marks.clone(), marks.clone());
    probes = probes
        .setup(move |_| m_setup.borrow_mut().setup_done = Some(Instant::now()))
        .end(move |_, _| m_run.borrow_mut().run_done = Some(Instant::now()))
        .end(move |w, _| {
            let collected = collect(w);
            let mut m = m_collect.borrow_mut();
            m.collected = Some(collected);
            m.collect_done = Some(Instant::now());
        });
    let LegSpec {
        topology,
        config,
        traffic,
        duration,
        shards: spec_shards,
        run_seed,
        ..
    } = leg;
    Scenario::new(topology)
        .config(config)
        .workload(traffic)
        .duration(duration)
        .shards(shards.unwrap_or(spec_shards))
        .probes(probes)
        .run(run_seed);
    let returned = Instant::now();

    let mut m = marks.borrow_mut();
    let setup_done = m.setup_done.expect("setup hook ran");
    let run_done = m.run_done.expect("first end probe ran");
    let collect_done = m.collect_done.expect("collect probe ran");
    let c = m.collected.take().expect("collect probe ran");
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Leg {
        policy,
        phases: Phases {
            gen_s: secs(start, gen_done),
            setup_s: secs(start, setup_done),
            run_s: secs(setup_done, run_done),
            collect_s: secs(run_done, collect_done),
            teardown_s: secs(collect_done, returned),
        },
        record: c.record,
        violations: c.violations,
        lookahead_ns: c.lookahead_ns,
        probe_bytes: c.probe_bytes,
    }
}

/// Per-call host times and loop observations only the traced path sees.
#[derive(Clone, Debug, Default)]
pub struct TraceDetail {
    pub lower_s: f64,
    pub compile_s: f64,
    pub shard_hints_s: f64,
    pub partition_s: f64,
    pub apply_shards_s: f64,
    pub spec_drop_s: f64,
    /// `(events dispatched, host ns)` per `run_for` slice.
    pub slices: Vec<(u64, u64)>,
    /// Largest backlog seen at a slice boundary.
    pub peak_pending: u64,
    pub nets: usize,
    /// Border routers on the first zombie's path to the victim.
    pub path_len: usize,
}

/// One leg through the decomposed public path, a span around each call.
pub fn traced_leg(
    rec: &mut Recorder,
    kind: Kind,
    size: Size,
    seed: u64,
    policy: DefensePolicy,
    nproc: usize,
) -> (Leg, TraceDetail) {
    let mut d = TraceDetail::default();
    rec.enter("pass.leg");
    rec.enter("setup");
    let (leg, gen_s) = rec.time("scenario.topology_gen", || {
        generate(kind, size, seed, policy, nproc)
    });
    d.nets = leg.topology.nets.len();
    d.path_len = path_len(&leg);
    let (mut world, lower_s) = rec.time("scenario.lower", || {
        leg.topology.build(leg.run_seed, leg.config.clone())
    });
    d.lower_s = lower_s;
    d.compile_s = rec
        .time("scenario.compile", || leg.traffic.compile(&mut world))
        .1;
    if leg.shards > 1 {
        let (hints, hints_s) = rec.time("core.shard_hints", || world.world.shard_hints());
        d.shard_hints_s = hints_s;
        // `apply_shards` is link listing + `partition` + rewiring; replay
        // the partition step alone to see its share.
        d.partition_s = rec
            .time("netsim.partition(replay)", || {
                let sim = &world.world.sim;
                let links: Vec<(NodeId, NodeId, SimDuration)> = (0..sim.link_count())
                    .map(|i| {
                        let l = sim.link(LinkId(i));
                        let (a, b) = l.endpoints();
                        (a, b, l.params().delay)
                    })
                    .collect();
                partition(leg.shards, sim.node_count(), &links, &hints).expect("partition")
            })
            .1;
        d.apply_shards_s = rec
            .time("netsim.apply_shards", || {
                world
                    .world
                    .sim
                    .apply_shards(leg.shards, &hints)
                    .expect("world shard partition")
            })
            .1;
    }
    if leg.stream_tap {
        rec.time("scenario.setup_hooks", || install_tap(&mut world));
    }
    let setup_s = rec.exit();

    rec.enter("netsim.run");
    let slice = leg.duration / RUN_SLICES;
    assert_eq!(
        slice * RUN_SLICES,
        leg.duration,
        "horizon divides into slices"
    );
    let mut events = 0u64;
    for _ in 0..RUN_SLICES {
        let t = Instant::now();
        rec.time("netsim.run_for", || world.world.sim.run_for(slice));
        let ns = t.elapsed().as_nanos() as u64;
        let now = world.world.sim.dispatched_events();
        d.slices.push((now - events, ns));
        events = now;
        d.peak_pending = d.peak_pending.max(world.world.sim.pending_events() as u64);
    }
    let run_s = rec.exit();

    let (c, collect_s) = rec.time("scenario.collect", || collect(&world));
    rec.enter("teardown");
    let ((), world_drop_s) = rec.time("core.teardown", || drop(world));
    d.spec_drop_s = rec.time("scenario.spec_drop", || drop(leg)).1;
    let teardown_s = rec.exit();
    rec.exit();
    debug_assert!(teardown_s >= world_drop_s);
    (
        Leg {
            policy,
            phases: Phases {
                gen_s,
                setup_s,
                run_s,
                collect_s,
                // The world drop alone: `core.teardown_s`.
                teardown_s: world_drop_s,
            },
            record: c.record,
            violations: c.violations,
            lookahead_ns: c.lookahead_ns,
            probe_bytes: c.probe_bytes,
        },
        d,
    )
}

/// Border routers between the first zombie and the victim along the
/// provider tree (peering shortcuts ignored): what a route record on that
/// path holds.
fn path_len(leg: &LegSpec) -> usize {
    let depth = |mut net: usize| {
        let mut d = 0;
        while let Some(p) = leg.topology.nets[net].parent {
            net = p;
            d += 1;
        }
        d
    };
    let net_of = |role: Role| {
        leg.topology
            .hosts
            .iter()
            .find(|h| h.role == role)
            .map(|h| h.net)
            .expect("every workload has a victim and a zombie")
    };
    depth(net_of(Role::Attacker)) + depth(net_of(Role::Victim)) + 1
}

/// A whole pass: the workload's policies back to back.
pub struct Pass {
    pub legs: Vec<Leg>,
    /// Wall time of the pass, measured around all legs.
    pub wall_s: f64,
}

impl Pass {
    pub fn sum(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        self.legs.iter().map(|l| f(&l.phases)).sum()
    }

    pub fn events(&self) -> u64 {
        self.legs.iter().map(|l| l.record.u("events")).sum()
    }
}

pub fn untraced(
    kind: Kind,
    size: Size,
    seed: u64,
    policies: &[DefensePolicy],
    nproc: usize,
    shards: Option<usize>,
) -> Pass {
    let start = Instant::now();
    let legs = policies
        .iter()
        .map(|&p| untraced_leg(kind, size, seed, p, nproc, shards))
        .collect();
    Pass {
        legs,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub fn traced(
    rec: &mut Recorder,
    kind: Kind,
    size: Size,
    seed: u64,
    policies: &[DefensePolicy],
    nproc: usize,
) -> (Pass, Vec<TraceDetail>) {
    let start = Instant::now();
    rec.enter("pass");
    let (legs, details) = policies
        .iter()
        .map(|&p| traced_leg(rec, kind, size, seed, p, nproc))
        .unzip();
    rec.exit();
    (
        Pass {
            legs,
            wall_s: start.elapsed().as_secs_f64(),
        },
        details,
    )
}
