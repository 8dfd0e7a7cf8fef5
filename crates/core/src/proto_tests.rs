//! End-to-end protocol tests over the paper's Figure 1 topology.
//!
//! These are the behavioural contract of the whole crate: a constant flood
//! is launched from `B_host` towards `G_host` across three provider levels
//! on each side, and the tests assert who blocked what, when, and with how
//! many filters — for cooperative, non-cooperative, malicious and forged
//! scenarios.

#![cfg(test)]

use aitf_netsim::{SimDuration, SimTime};
use aitf_packet::{
    Addr, AitfMessage, FilteringRequest, FlowLabel, Packet, Protocol, RequestDestination,
    TrafficClass,
};

use crate::config::{AitfConfig, HostPolicy, RouterPolicy};
use crate::host::{HostApi, TrafficApp};
use crate::policy::DefensePolicy;
use crate::traffic::{RequestForger, Source};
use crate::world::{HostId, NetId, World, WorldBuilder};

/// A constant-rate flood of `pps` packets/second whose first packet goes
/// out one period in.
fn periodic_flood(target: Addr, pps: u64, size: u32) -> Box<Source> {
    let period = SimDuration::from_nanos(1_000_000_000 / pps);
    Box::new(Source::flood(target, pps, size).starting_after(period))
}

/// The paper's Figure 1: G_host–G_gw1–G_gw2–G_gw3 = B_gw3–B_gw2–B_gw1–B_host.
#[allow(dead_code)] // Handles kept symmetric for readability.
struct Fig1 {
    world: World,
    g_net: NetId,
    g_isp: NetId,
    g_wan: NetId,
    b_net: NetId,
    b_isp: NetId,
    b_wan: NetId,
    victim: HostId,
    attacker: HostId,
}

fn fig1(cfg: AitfConfig, attacker_policy: HostPolicy) -> Fig1 {
    let mut b = WorldBuilder::new(42, cfg);
    let g_wan = b.network("G_wan", "10.103.0.0/16", None);
    let g_isp = b.network("G_isp", "10.102.0.0/16", Some(g_wan));
    let g_net = b.network("G_net", "10.1.0.0/16", Some(g_isp));
    let b_wan = b.network("B_wan", "10.203.0.0/16", None);
    let b_isp = b.network("B_isp", "10.202.0.0/16", Some(b_wan));
    let b_net = b.network("B_net", "10.9.0.0/16", Some(b_isp));
    b.peer(g_wan, b_wan, WorldBuilder::default_net_link());
    let victim = b.host(g_net);
    let attacker = b.host_with(b_net, attacker_policy, WorldBuilder::default_host_link());
    Fig1 {
        world: b.build(),
        g_net,
        g_isp,
        g_wan,
        b_net,
        b_isp,
        b_wan,
        victim,
        attacker,
    }
}

fn flood(f: &mut Fig1, pps: u64, size: u32) {
    let target = f.world.host_addr(f.victim);
    f.world
        .add_app(f.attacker, periodic_flood(target, pps, size));
}

#[test]
fn cooperative_world_quenches_flood_at_attacker_gateway() {
    let cfg = AitfConfig::default();
    let td = cfg.detection_delay;
    let mut f = fig1(cfg, HostPolicy::Compliant);
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(10));

    // The victim saw attack traffic only during the detection+request
    // window: at 1000 pps * 500 B that window is Td + ~2*5ms ≈ 115 ms,
    // so roughly 115 packets; allow generous slack.
    let c = f.world.host(f.victim).counters();
    assert!(
        c.rx_attack_pkts > 0,
        "some leak before the block is expected"
    );
    assert!(
        c.rx_attack_pkts < 400,
        "flood not quenched: {} attack packets reached the victim",
        c.rx_attack_pkts
    );
    assert!(c.requests_sent >= 1);
    let _ = td;

    // The attacker's gateway holds the long filter...
    let b_gw1 = f.world.router(f.b_net);
    assert_eq!(b_gw1.counters().filters_installed, 1);
    assert!(b_gw1.counters().handshakes_confirmed >= 1);
    // ...and the victim's gateway only ever needed its temporary filter.
    let g_gw1 = f.world.router(f.g_net);
    assert!(g_gw1.counters().escalations_sent == 0);

    // The compliant attacker actually stopped sending.
    let a = f.world.host(f.attacker).counters();
    assert!(a.flows_stopped == 1);
    assert!(
        a.tx_suppressed > 0,
        "self-filter must suppress further sends"
    );

    // Nobody was disconnected.
    assert_eq!(b_gw1.counters().disconnects_client, 0);
}

#[test]
fn malicious_host_is_disconnected_after_grace() {
    let cfg = AitfConfig::default();
    let mut f = fig1(cfg, HostPolicy::Malicious);
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(10));

    let b_gw1 = f.world.router(f.b_net);
    assert_eq!(
        b_gw1.counters().disconnects_client,
        1,
        "the zombie must be disconnected after the grace period"
    );
    // The host kept trying to send (malicious hosts have no self-filter).
    let a = f.world.host(f.attacker).counters();
    assert_eq!(a.tx_suppressed, 0);
    assert!(a.notices_received >= 1);
    // After disconnection nothing reaches even B_gw1: its filter stops
    // seeing hits. The victim saw only the initial leak.
    let v = f.world.host(f.victim).counters();
    assert!(v.rx_attack_pkts < 400, "victim leak: {}", v.rx_attack_pkts);
}

#[test]
fn non_cooperating_attacker_gateway_forces_escalation() {
    let cfg = AitfConfig::default();
    let mut f = fig1(cfg, HostPolicy::Malicious);
    // B_gw1 ignores filtering requests.
    f.world
        .set_router_policy(f.b_net, RouterPolicy::non_cooperating());
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(10));

    // Round 2 lands at B_gw2 (B_isp), which installs the long filter.
    let b_gw2 = f.world.router(f.b_isp);
    assert!(
        b_gw2.counters().filters_installed >= 1,
        "escalation must reach B_isp: {:?}",
        b_gw2.counters()
    );
    // The victim's gateway escalated at least once.
    let g_gw1 = f.world.router(f.g_net);
    assert!(g_gw1.counters().escalations_sent >= 1 || g_gw1.counters().reactivations >= 1);
    // B_isp, holding the bag for its bad client, disconnects B_net.
    assert_eq!(b_gw2.counters().disconnects_client, 1);
    let v = f.world.host(f.victim).counters();
    assert!(v.rx_attack_pkts < 800, "victim leak: {}", v.rx_attack_pkts);
}

#[test]
fn contract_buckets_are_made_by_the_first_request_at_the_links_contract() {
    let cfg = AitfConfig::default();
    let (r1, r2) = (cfg.client_contract.burst, cfg.peer_contract.burst);
    let mut f = fig1(cfg, HostPolicy::Malicious);
    f.world
        .set_router_policy(f.b_net, RouterPolicy::non_cooperating());
    flood(&mut f, 1000, 500);
    for net in [f.g_net, f.g_isp, f.b_net] {
        assert!(f.world.router(net).limiter().is_empty());
    }
    f.world.sim.run_for(SimDuration::from_secs(10));

    let burst_at = |net: NetId, over_uplink_of: NetId| {
        let link = f.world.uplink(over_uplink_of).expect("not a root");
        let bucket = f.world.router(net).limiter().bucket(link.0 as u64);
        bucket.map(|b| b.burst())
    };
    // Round 2 reaches G_isp over G_net's uplink, a client link there: R1.
    assert_eq!(burst_at(f.g_isp, f.g_net), Some(r1));
    // Round 1 reached B_net over its own uplink, not a client link: R2.
    assert_eq!(burst_at(f.b_net, f.b_net), Some(r2));
    // Only links that carried a request are policed.
    assert_eq!(f.world.router(f.g_isp).limiter().len(), 1);
}

/// Figure 1 plus one network and host hanging off each side that the flood
/// never touches, under `defense`, after a 10 s flood.
fn flooded_fig1_with_bystanders(defense: DefensePolicy) -> (Fig1, [NetId; 2], [HostId; 2]) {
    let cfg = AitfConfig {
        defense,
        ..AitfConfig::default()
    };
    let mut b = WorldBuilder::new(42, cfg);
    let g_wan = b.network("G_wan", "10.103.0.0/16", None);
    let g_isp = b.network("G_isp", "10.102.0.0/16", Some(g_wan));
    let g_net = b.network("G_net", "10.1.0.0/16", Some(g_isp));
    let b_wan = b.network("B_wan", "10.203.0.0/16", None);
    let b_isp = b.network("B_isp", "10.202.0.0/16", Some(b_wan));
    let b_net = b.network("B_net", "10.9.0.0/16", Some(b_isp));
    let g_side = b.network("G_side", "10.2.0.0/16", Some(g_isp));
    let b_side = b.network("B_side", "10.10.0.0/16", Some(b_wan));
    b.peer(g_wan, b_wan, WorldBuilder::default_net_link());
    let victim = b.host(g_net);
    let attacker = b.host(b_net);
    let bystanders = [b.host(g_side), b.host(b_side)];
    let mut f = Fig1 {
        world: b.build(),
        g_net,
        g_isp,
        g_wan,
        b_net,
        b_isp,
        b_wan,
        victim,
        attacker,
    };
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(10));
    (f, [g_side, b_side], bystanders)
}

#[test]
fn idle_routers_and_hosts_stay_idle_and_only_the_gateways_hold_control_state() {
    let (mut f, side_nets, bystanders) = flooded_fig1_with_bystanders(DefensePolicy::Aitf);
    assert!(f.world.host(f.victim).counters().requests_sent >= 1);
    assert_eq!(f.world.router(f.b_net).counters().filters_installed, 1);

    // Off the path: nothing was ever made. What an idle router reads is
    // the world's idle data state: zero counters and empty tables at the
    // configured capacities.
    let cfg = &f.world.cfg;
    for net in side_nets {
        let r = f.world.router(net);
        assert!(!r.has_data_state(), "{}", f.world.net_name(net));
        assert!(!r.has_control_state(), "{}", f.world.net_name(net));
        let zeros = format!("{:?}", crate::RouterCounters::default());
        assert_eq!(format!("{:?}", r.counters()), zeros);
        assert_eq!(r.filters().stats(), Default::default());
        assert_eq!(r.shadow().stats(), Default::default());
        assert_eq!(r.filters().capacity(), cfg.filter_capacity);
        assert_eq!(r.shadow().capacity(), cfg.shadow_capacity);
    }
    // A bystander host holds neither agent nor data, reads zero counters
    // and has no self-filter table to show.
    let zeros = format!("{:?}", crate::HostCounters::default());
    for h in bystanders {
        let host = f.world.host(h);
        assert!(!host.has_victim_agent());
        assert_eq!(format!("{:?}", host.counters()), zeros);
        assert!(host.self_filters().is_none());
        assert!(!host.has_host_data(), "reads make nothing");
    }
    // On the path, but only ever forwarding (the request goes gateway to
    // gateway; transit routers carry it like data): a data state for the
    // counters and the filter checks, no control state.
    for net in [f.g_isp, f.g_wan, f.b_wan, f.b_isp] {
        let r = f.world.router(net);
        assert!(r.counters().data_forwarded > 0);
        assert!(r.has_data_state(), "{}", f.world.net_name(net));
        assert!(!r.has_control_state(), "{}", f.world.net_name(net));
        assert_eq!(r.filters().stats().installs, 0);
        assert_eq!(r.shadow().stats().inserts, 0);
    }
    // The two gateways served the request, and both ends received packets.
    assert!(f.world.router(f.g_net).has_control_state());
    assert!(f.world.router(f.b_net).has_control_state());
    assert!(f.world.host(f.victim).has_victim_agent());
    assert!(f.world.host(f.attacker).has_victim_agent());

    // Reads and no-ops leave an idle router idle: every accessor, a timer
    // nobody armed and a verification reply nobody is waiting for.
    let idle = side_nets[0];
    let r = f.world.router(idle);
    let _ = (r.counters(), r.filters().len(), r.shadow().len());
    assert!(r.limiter().is_empty());
    assert_eq!(r.pushback().pushback_received, 0);
    assert_eq!(r.defense_footprint(), 0);
    let (addr, uplink) = (r.addr(), r.uplink().expect("not a root"));
    let stray = aitf_packet::VerificationReply {
        request_id: 1,
        flow: FlowLabel::src_dst(Addr::new(10, 9, 0, 1), Addr::new(10, 1, 0, 1)),
        nonce: aitf_packet::Nonce(77),
        confirm: true,
    };
    let reply = Packet::control(
        0,
        Addr::new(10, 1, 0, 1),
        addr,
        AitfMessage::VerificationReply(stray),
    );
    let node = f.world.router_node(idle);
    f.world.sim.with_node_ctx(node, |n, ctx| {
        n.on_timer(12_345, ctx);
        n.on_packet(reply, uplink, ctx);
    });
    assert!(!f.world.router(idle).has_control_state());
    assert!(!f.world.router(idle).has_data_state());
    // ... and an idle host idle.
    let node = f.world.host_node(bystanders[0]);
    f.world
        .sim
        .with_node_ctx(node, |n, ctx| n.on_timer(12_345, ctx));
    assert!(!f.world.host(bystanders[0]).has_victim_agent());
    assert!(!f.world.host(bystanders[0]).has_host_data());

    // A zombie that only sends (to an address in no declared network, so
    // its first gateway drops everything and nothing ever comes back)
    // holds the data its sends write, but no victim agent.
    let zombie = bystanders[1];
    let nowhere = periodic_flood(Addr::new(192, 0, 2, 1), 1000, 100);
    f.world.activate_app(zombie, nowhere);
    f.world.sim.run_for(SimDuration::from_secs(1));
    let host = f.world.host(zombie);
    assert!(host.counters().tx_pkts > 0);
    assert!(host.has_host_data());
    assert!(!host.has_victim_agent());
    assert_eq!(host.self_filters().map(|t| t.len()), Some(0));
}

#[test]
fn per_packet_policy_state_is_made_by_the_packets_that_need_it() {
    // Path stamping checks every data packet against the revocations: a
    // router nobody sent a revocation to has none, and makes no state to
    // find that out. Only the victim's gateway was told.
    let (f, ..) = flooded_fig1_with_bystanders(DefensePolicy::PathStamp);
    assert!(f.world.router(f.g_net).counters().data_filtered_pkts > 0);
    assert!(f.world.router(f.g_net).has_control_state());
    for net in [f.g_isp, f.g_wan, f.b_wan, f.b_isp, f.b_net] {
        assert!(f.world.router(net).counters().data_forwarded > 0);
        assert!(!f.world.router(net).has_control_state());
    }
    // Pushback learns arrival links, and rate limiting polices client
    // links, from the data packets themselves: state along the path (the
    // whole path, or its one client-facing edge), none beside it.
    for (defense, on_path) in [
        (DefensePolicy::Pushback, vec![f.b_net, f.b_wan, f.g_net]),
        (DefensePolicy::ingress_ratelimit(), vec![f.b_net]),
    ] {
        let (f, side_nets, bystanders) = flooded_fig1_with_bystanders(defense);
        for net in on_path {
            assert!(f.world.router(net).has_control_state(), "{defense:?}");
        }
        for net in side_nets {
            assert!(!f.world.router(net).has_control_state(), "{defense:?}");
        }
        for h in bystanders {
            assert!(!f.world.host(h).has_victim_agent(), "{defense:?}");
        }
    }
}

#[test]
fn fully_rogue_attacker_side_triggers_peer_disconnect() {
    let cfg = AitfConfig::default();
    let mut f = fig1(cfg, HostPolicy::Malicious);
    for net in [f.b_net, f.b_isp, f.b_wan] {
        f.world
            .set_router_policy(net, RouterPolicy::non_cooperating());
    }
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(20));

    // The worst case of Section II-D: G_gw3 disconnects from B_gw3.
    let g_gw3 = f.world.router(f.g_wan);
    assert!(
        g_gw3.counters().disconnects_peer >= 1,
        "top-level victim-side gateway must disconnect the rogue peer: {:?}",
        g_gw3.counters()
    );
    // After the disconnect the flood is fully dead.
    let v0 = f.world.host(f.victim).counters().rx_attack_pkts;
    f.world.sim.run_for(SimDuration::from_secs(5));
    let v1 = f.world.host(f.victim).counters().rx_attack_pkts;
    assert_eq!(v0, v1, "flood must stay dead after peer disconnect");
}

#[test]
fn forged_request_is_denied_by_handshake() {
    // A compromised host M in G_isp forges "block A->V" for a legitimate
    // flow it is not on the path of. The handshake must kill it.
    let cfg = AitfConfig::default();
    let mut b = WorldBuilder::new(7, cfg);
    let wan = b.network("wan", "10.100.0.0/16", None);
    let a_net = b.network("a_net", "10.1.0.0/16", Some(wan));
    let v_net = b.network("v_net", "10.2.0.0/16", Some(wan));
    let m_net = b.network("m_net", "10.3.0.0/16", Some(wan));
    let a = b.host(a_net);
    let v = b.host(v_net);
    let m = b.host(m_net);
    let mut world = b.build();

    let a_addr = world.host_addr(a);
    let v_addr = world.host_addr(v);
    let a_gw = world.router_addr(a_net);
    // A sends legitimate traffic to V.
    world.add_app(a, Box::new(Source::client(v_addr, 100, 500)));
    // M forges a request claiming V wants A blocked.
    world.add_app(
        m,
        Box::new(RequestForger::new(
            a_gw,
            FlowLabel::src_dst(a_addr, v_addr),
            SimDuration::from_secs(1),
        )),
    );
    world.sim.run_for(SimDuration::from_secs(5));

    let a_router = world.router(a_net);
    assert_eq!(
        a_router.counters().handshakes_denied,
        1,
        "{:?}",
        a_router.counters()
    );
    assert_eq!(
        a_router.counters().filters_installed,
        0,
        "forged request must not block"
    );
    // V denied the query.
    assert_eq!(world.host(v).counters().verification_denied, 1);
    // The legitimate flow kept flowing.
    let legit = world.host(v).counters().rx_legit_pkts;
    assert!(legit > 400, "legit flow harmed: only {legit} packets");
}

#[test]
fn forgery_succeeds_without_verification_ablation() {
    let cfg = AitfConfig {
        verification: false,
        ..AitfConfig::default()
    };
    let mut b = WorldBuilder::new(7, cfg);
    let wan = b.network("wan", "10.100.0.0/16", None);
    let a_net = b.network("a_net", "10.1.0.0/16", Some(wan));
    let v_net = b.network("v_net", "10.2.0.0/16", Some(wan));
    let m_net = b.network("m_net", "10.3.0.0/16", Some(wan));
    let a = b.host(a_net);
    let v = b.host(v_net);
    let m = b.host(m_net);
    let mut world = b.build();
    let a_addr = world.host_addr(a);
    let v_addr = world.host_addr(v);
    let a_gw = world.router_addr(a_net);
    world.add_app(a, Box::new(Source::client(v_addr, 100, 500)));
    world.add_app(
        m,
        Box::new(RequestForger::new(
            a_gw,
            FlowLabel::src_dst(a_addr, v_addr),
            SimDuration::from_secs(1),
        )),
    );
    world.sim.run_for(SimDuration::from_secs(5));

    // Without the handshake the forged request installs a real filter and
    // the legitimate flow dies — this is why Section II-E exists.
    let a_router = world.router(a_net);
    assert!(a_router.counters().filters_installed >= 1);
    let legit_at_2s = world.host(v).counters().rx_legit_pkts;
    assert!(
        legit_at_2s < 150,
        "legit flow should have been cut early, got {legit_at_2s} packets"
    );
}

#[test]
fn victim_gateway_filter_is_temporary_not_long() {
    let cfg = AitfConfig::default();
    let t_tmp = cfg.t_tmp;
    let mut f = fig1(cfg, HostPolicy::Compliant);
    flood(&mut f, 1000, 500);
    // Run long enough for install, then check expiry bookkeeping.
    f.world.sim.run_for(SimDuration::from_millis(300));
    let flow = FlowLabel::src_dst(f.world.host_addr(f.attacker), f.world.host_addr(f.victim));
    let g_gw1 = f.world.router(f.g_net);
    let exp = g_gw1
        .filters()
        .expiry_of(&flow)
        .expect("temp filter present");
    assert!(
        exp <= SimTime::ZERO + SimDuration::from_millis(300) + t_tmp,
        "victim gateway filter must be temporary"
    );
    // The shadow outlives the filter by design.
    let shadow = g_gw1.shadow().get(&flow).expect("shadow present");
    assert!(shadow.expires > exp);
}

// ----------------------------------------------------------------------
// A request that arrives with no attack path.
// ----------------------------------------------------------------------

/// A victim-side app that sends one round-1 request for `flow` to its
/// gateway `at` after start, with an empty path — what only a malformed
/// client sends, since a victim has received a flow's route record before
/// it asks.
struct PathlessRequest {
    gateway: Addr,
    flow: FlowLabel,
    at: SimDuration,
}

impl TrafficApp for PathlessRequest {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.set_timer(self.at);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>) {
        let req = FilteringRequest {
            id: 1,
            flow: self.flow,
            dest: RequestDestination::VictimGateway,
            duration_ns: 60_000_000_000,
            path: Default::default(),
            round: 1,
        };
        let msg = AitfMessage::FilteringRequest(req);
        api.send_raw(Packet::control(0, api.my_addr(), self.gateway, msg));
    }
}

/// Figure 1 with the attacker flooding and the victim sending one
/// pathless request `at`. Without verification and with a detection delay
/// past any horizon, neither the handshake nor the victim's own agent
/// takes part: that one request is the only one sent.
fn pathless_request_under(at: SimDuration) -> Fig1 {
    let cfg = AitfConfig {
        verification: false,
        detection_delay: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut f = fig1(cfg, HostPolicy::Malicious);
    let victim = f.world.host_addr(f.victim);
    let flow = FlowLabel::src_dst(f.world.host_addr(f.attacker), victim);
    let gateway = f.world.router_addr(f.g_net);
    flood(&mut f, 1000, 500);
    f.world
        .add_app(f.victim, Box::new(PathlessRequest { gateway, flow, at }));
    f
}

/// Requests received by every router but the victim's gateway.
fn requests_beyond_victim_gateway(f: &Fig1) -> u64 {
    [f.g_isp, f.g_wan, f.b_net, f.b_isp, f.b_wan]
        .iter()
        .map(|&net| f.world.router(net).counters().requests_received)
        .sum()
}

#[test]
fn a_pathless_request_is_invalid_and_goes_nowhere() {
    let at = SimDuration::from_millis(500);
    let mut f = pathless_request_under(at);
    f.world.sim.run_for(at + AitfConfig::default().t_tmp);

    // G_gw1 counts the request invalid and acts on nothing: no filter, no
    // shadow entry, and no request goes further up or across.
    let flow = FlowLabel::src_dst(f.world.host_addr(f.attacker), f.world.host_addr(f.victim));
    let g_gw1 = f.world.router(f.g_net);
    let c = g_gw1.counters();
    assert_eq!(c.requests_received, 1, "{c:?}");
    assert_eq!(c.requests_invalid, 1, "{c:?}");
    assert_eq!(c.requests_accepted, 0, "{c:?}");
    assert_eq!(c.data_filtered_pkts, 0, "{c:?}");
    assert!(g_gw1.filters().expiry_of(&flow).is_none());
    assert!(g_gw1.shadow().get(&flow).is_none());
    assert_eq!(requests_beyond_victim_gateway(&f), 0);
}

// ----------------------------------------------------------------------
// Partial deployment: deployment-aware escalation.
// ----------------------------------------------------------------------

#[test]
fn escalation_skips_legacy_hop_to_nearest_aitf_node() {
    // G_isp never runs AITF and B_gw1 refuses to cooperate. Round 2's
    // escalation must skip the legacy G_isp straight to G_wan (instead of
    // being silently eaten), and G_wan's round-2 request lands on B_isp —
    // the nearest participating node — so the flood still dies on the
    // attacker's side.
    let cfg = AitfConfig::default();
    let mut f = fig1(cfg, HostPolicy::Malicious);
    f.world.set_router_policy(f.g_isp, RouterPolicy::legacy());
    f.world
        .set_router_policy(f.b_net, RouterPolicy::non_cooperating());
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(10));

    // The legacy hop was never asked anything: no requests reached (or
    // were wasted on) G_isp.
    let g_gw2 = f.world.router(f.g_isp).counters();
    assert_eq!(g_gw2.requests_received, 0, "legacy G_isp must be skipped");
    assert_eq!(g_gw2.requests_ignored, 0);
    // The victim's gateway escalated directly to G_wan...
    assert!(f.world.router(f.g_net).counters().escalations_sent >= 1);
    assert!(f.world.router(f.g_wan).counters().requests_received >= 1);
    // ...and the round-2 filter landed at B_gw2.
    let b_gw2 = f.world.router(f.b_isp).counters();
    assert!(
        b_gw2.filters_installed >= 1,
        "round 2 must block at B_isp: {b_gw2:?}"
    );
    // Nothing fell into the void.
    for net in [f.g_net, f.g_isp, f.g_wan, f.b_net, f.b_isp, f.b_wan] {
        assert_eq!(f.world.router(net).counters().escalations_dropped, 0);
    }
    let v = f.world.host(f.victim).counters();
    assert!(v.rx_attack_pkts < 3000, "victim leak: {}", v.rx_attack_pkts);
}

#[test]
fn provider_leaving_aitf_mid_attack_reescalates_around_it() {
    // The E17 mechanics at protocol level: the flood is blocked at B_gw1
    // in round 1; then B_net *and* B_isp leave AITF mid-attack
    // (`World::set_router_policy` records it in the deployment view).
    // Their filters go dormant, the flow reappears, and the victim
    // gateway's round-2 re-escalation must route around both dropped-out
    // providers to B_wan, which re-blocks the flow and holds its own
    // client (B_isp's network) accountable. Grace is pushed past the horizon so the
    // zombie is not simply unplugged before the churn happens.
    let cfg = AitfConfig {
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut f = fig1(cfg, HostPolicy::Malicious);
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(f.world.router(f.b_net).counters().filters_installed, 1);
    assert_eq!(f.world.router(f.b_wan).counters().filters_installed, 0);
    let leak_before_flip = f.world.host(f.victim).counters().rx_attack_pkts;

    f.world.set_router_policy(f.b_net, RouterPolicy::legacy());
    f.world.set_router_policy(f.b_isp, RouterPolicy::legacy());
    f.world.sim.run_for(SimDuration::from_secs(2));

    // Re-blocked at the nearest still-participating node: B_wan started
    // the verification handshake and installed the long filter; the
    // dropped-out B_isp was never asked to filter.
    let b_gw3 = f.world.router(f.b_wan).counters();
    assert!(b_gw3.handshakes_started >= 1, "{b_gw3:?}");
    assert!(b_gw3.filters_installed >= 1, "{b_gw3:?}");
    assert_eq!(f.world.router(f.b_isp).counters().handshakes_started, 0);
    assert_eq!(f.world.router(f.b_isp).counters().filters_installed, 0);

    // B_wan's misbehaving client is B_isp's network; the accountability
    // notice goes there and is ignored (it left AITF) — the §II-D
    // pressure that would get it disconnected after the grace period.
    assert!(f.world.router(f.b_isp).counters().requests_ignored >= 1);
    assert!(b_gw3.attacker_notices_sent >= 1, "{b_gw3:?}");

    // The re-escalation spike is bounded: once re-blocked, the leak
    // stops growing.
    let leak_after_settle = f.world.host(f.victim).counters().rx_attack_pkts;
    f.world.sim.run_for(SimDuration::from_secs(4));
    let leak_end = f.world.host(f.victim).counters().rx_attack_pkts;
    assert!(
        leak_end - leak_after_settle < 50,
        "leak must stop after re-escalation: {leak_before_flip} -> \
         {leak_after_settle} -> {leak_end}"
    );
}

#[test]
fn rejoining_provider_is_escalated_through_again() {
    // The flip is reversible: after B_net leaves and the flow re-blocks
    // upstream, B_net rejoining AITF restores its dormant filter — new
    // flows block at B_net again, round 1, exactly as at full deployment.
    let cfg = AitfConfig {
        grace: SimDuration::from_secs(3600),
        ..AitfConfig::default()
    };
    let mut f = fig1(cfg, HostPolicy::Malicious);
    flood(&mut f, 1000, 500);
    f.world.sim.run_for(SimDuration::from_secs(2));
    f.world.set_router_policy(f.b_net, RouterPolicy::legacy());
    f.world.sim.run_for(SimDuration::from_secs(2));
    // Re-blocked at B_isp while B_net is out.
    assert!(f.world.router(f.b_isp).counters().filters_installed >= 1);

    f.world.set_router_policy(f.b_net, RouterPolicy::default());
    // B_net's long filter (60 s) is live again the moment it rejoins:
    // its data-plane drop counter resumes climbing.
    let dropped_at_rejoin = f.world.router(f.b_net).counters().data_filtered_pkts;
    f.world.sim.run_for(SimDuration::from_secs(2));
    let dropped_end = f.world.router(f.b_net).counters().data_filtered_pkts;
    assert!(
        dropped_end > dropped_at_rejoin + 500,
        "rejoined provider must filter at wire speed again: \
         {dropped_at_rejoin} -> {dropped_end}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let mut b = WorldBuilder::new(seed, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let g = b.network("g", "10.1.0.0/16", Some(wan));
        let bad = b.network("b", "10.9.0.0/16", Some(wan));
        let v = b.host(g);
        let a = b.host_with(
            bad,
            HostPolicy::Malicious,
            WorldBuilder::default_host_link(),
        );
        let mut w = b.build();
        let target = w.host_addr(v);
        w.add_app(a, periodic_flood(target, 500, 600));
        w.sim.run_for(SimDuration::from_secs(5));
        let vc = w.host(v).counters();
        (
            vc.rx_attack_pkts,
            vc.rx_attack_bytes,
            vc.requests_sent,
            w.sim.dispatched_events(),
        )
    };
    assert_eq!(run(99), run(99));
    // A different seed still works (values may differ).
    let _ = run(100);
}

/// Sends a burst of data packets at start, from the host's own address or
/// claiming `src`.
struct DataBurst {
    src: Option<Addr>,
    target: Addr,
    count: u32,
}

impl TrafficApp for DataBurst {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        let src = self.src.unwrap_or(api.my_addr());
        for _ in 0..self.count {
            api.send_data(
                src,
                self.target,
                Protocol::Udp,
                0,
                80,
                TrafficClass::Legit,
                100,
            );
        }
    }
}

/// A data packet addressed to a router reaches that router's Escalate
/// hook, which has no handler for it under any policy: every policy must
/// count the misdelivery, none may swallow it.
fn data_addressed_to_a_router_is_counted_undeliverable(defense: DefensePolicy) {
    let cfg = AitfConfig {
        defense,
        ..AitfConfig::default()
    };
    let mut f = fig1(cfg, HostPolicy::Compliant);
    let target = f.world.router(f.g_net).addr();
    let burst = DataBurst {
        src: None,
        target,
        count: 5,
    };
    f.world.add_app(f.attacker, Box::new(burst));
    f.world.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        f.world.router(f.g_net).counters().undeliverable,
        5,
        "{defense:?}"
    );
}

#[test]
fn aitf_counts_data_addressed_to_a_router() {
    data_addressed_to_a_router_is_counted_undeliverable(DefensePolicy::Aitf);
}

#[test]
fn pushback_counts_data_addressed_to_a_router() {
    data_addressed_to_a_router_is_counted_undeliverable(DefensePolicy::Pushback);
}

#[test]
fn ingress_ratelimit_counts_data_addressed_to_a_router() {
    data_addressed_to_a_router_is_counted_undeliverable(DefensePolicy::ingress_ratelimit());
}

#[test]
fn path_stamp_counts_data_addressed_to_a_router() {
    data_addressed_to_a_router_is_counted_undeliverable(DefensePolicy::PathStamp);
}

/// Five packets claiming source `src`, from a `leaf_a` host to a host on
/// `wan`, over wan → isp → {leaf_a, leaf_b}. The leaf gateways never
/// ingress-filter, `isp` does when `isp_filters`, `wan` always. Returns
/// `spoofed_dropped` at `[wan, isp, leaf_a]` and the packets delivered.
fn spoof_from_leaf_a(src: Addr, isp_filters: bool) -> ([u64; 3], u64) {
    let lax = RouterPolicy {
        ingress_filtering: false,
        ..RouterPolicy::default()
    };
    let isp_policy = if isp_filters {
        RouterPolicy::default()
    } else {
        lax
    };
    let link = WorldBuilder::default_net_link();
    let mut b = WorldBuilder::new(7, AitfConfig::default());
    let wan = b.network("wan", "10.100.0.0/16", None);
    let prefix = |literal: &str| literal.parse().expect("a prefix literal");
    let isp = b.network_with("isp", &prefix("10.50.0.0/16"), Some(wan), isp_policy, link);
    let leaf_a = b.network_with("leaf_a", &prefix("10.1.0.0/16"), Some(isp), lax, link);
    b.network_with("leaf_b", &prefix("10.2.0.0/16"), Some(isp), lax, link);
    let sink = b.host(wan);
    let sender = b.host(leaf_a);
    let mut w = b.build();
    let burst = DataBurst {
        src: Some(src),
        target: w.host_addr(sink),
        count: 5,
    };
    w.add_app(sender, Box::new(burst));
    w.sim.run_for(SimDuration::from_secs(1));
    let dropped = [wan, isp, leaf_a].map(|n| w.router(n).counters().spoofed_dropped);
    (dropped, w.host(sink).counters().rx_legit_pkts)
}

#[test]
fn ingress_filtering_above_the_edge_checks_the_whole_customer_cone() {
    // A leaf_b address arriving at isp on leaf_a's link is outside that
    // link's cone.
    let in_leaf_b = Addr::new(10, 2, 0, 1);
    assert_eq!(spoof_from_leaf_a(in_leaf_b, true), ([0, 5, 0], 0));
    // Unfiltered at isp it reaches wan on isp's link, whose cone holds
    // leaf_b: the spoof Section III-A says ingress filtering cannot catch.
    assert_eq!(spoof_from_leaf_a(in_leaf_b, false), ([0, 0, 0], 5));
    // A source in nobody's cone gets no further than the first provider
    // that filters.
    let nowhere = Addr::new(172, 16, 0, 1);
    assert_eq!(spoof_from_leaf_a(nowhere, false), ([5, 0, 0], 0));
}
