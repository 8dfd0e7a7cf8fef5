//! The "on-off" evasion game and the shadow cache that ends it.
//!
//! Section II-B, footnote 2: an attacker whose gateway ignores filtering
//! requests can stop just long enough for the victim-gateway's temporary
//! filter (`Ttmp`) to expire, then resume. The gateway's DRAM shadow —
//! kept for the full `T` — recognises the flow on its first returning
//! packet, reinstalls the filter and escalates past the rogue gateway.
//!
//! Run with `cargo run --example onoff_evasion`; add
//! `--features aitf-scenario/trace` for the gateway's span listing (the
//! default build compiles span recording out).

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_packet::FlowLabel;
use aitf_scenario::{HostSel, Role, TargetSel, TopologySpec, TrafficSpec};

fn main() {
    let cfg = AitfConfig {
        t_long: SimDuration::from_secs(30),
        t_tmp: SimDuration::from_secs(1),
        ..AitfConfig::default()
    };
    let mut f = TopologySpec::fig1(HostPolicy::Malicious).build(99, cfg);
    let (victim, attacker) = (f.victim(), f.first_with(Role::Attacker));
    // The attacker's own gateway plays dumb — otherwise the first round
    // would end the game immediately.
    let b_net = f.net("B_net");
    f.world
        .set_router_policy(b_net, RouterPolicy::non_cooperating());

    let target = f.world.host_addr(victim);
    // Bursts of 200 ms separated by 1.5 s of silence: tuned to outlive the
    // 1 s temporary filter.
    TrafficSpec::onoff(
        HostSel::Role(Role::Attacker),
        TargetSel::Victim,
        1000,
        500,
        SimDuration::from_millis(200),
        SimDuration::from_millis(1500),
    )
    .install(&mut f);
    f.world.sim.run_for(SimDuration::from_secs(20));

    println!("=== on-off evasion vs the DRAM shadow ===\n");
    let gw = f.world.router(f.net("G_net"));
    let flow = FlowLabel::src_dst(f.world.host_addr(attacker), target);
    println!("victim's gateway (G_gw1):");
    println!(
        "  shadow reactivations (bursts caught): {}",
        gw.counters().reactivations
    );
    println!(
        "  escalation round reached:              {}",
        gw.shadow().get(&flow).map_or(0, |e| e.round)
    );
    println!(
        "  escalations sent:                      {}",
        gw.counters().escalations_sent
    );

    let b_gw2 = f.world.router(f.net("B_isp"));
    println!("\nB_isp (the rogue gateway's provider):");
    println!(
        "  long filters installed:                {}",
        b_gw2.counters().filters_installed
    );
    println!(
        "  clients disconnected:                  {}",
        b_gw2.counters().disconnects_client
    );

    let v = f.world.host(victim).counters();
    let a = f.world.host(attacker).counters();
    println!("\nscoreboard:");
    println!("  attacker sent:    {} packets", a.tx_pkts);
    println!("  victim received:  {} packets", v.rx_attack_pkts);
    println!(
        "  effective bandwidth of the undesired flow: {:.4}%",
        100.0 * v.rx_attack_bytes as f64 / (a.tx_bytes.max(1)) as f64
    );
    println!("\ngateway spans (first 12):");
    if !f.world.tracing_enabled() {
        println!("  (none: span recording is compiled out — re-run with `--features aitf-scenario/trace`)");
    }
    let spans = f.world.trace_spans();
    for s in spans.iter().filter(|s| s.router == gw.addr().0).take(12) {
        println!("  {}", s.line());
    }
}
