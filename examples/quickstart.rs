//! Quickstart: the paper's Figure 1 in thirty lines.
//!
//! `B_host` floods `G_host`; AITF detects, propagates a filtering request
//! to the attacker's gateway, verifies it with the 3-way handshake, and
//! blocks the flood at the network closest to the attacker — all within
//! a few hundred simulated milliseconds.
//!
//! Run with `cargo run --example quickstart`; add
//! `--features aitf-scenario/trace` for the span listing of the attacker's
//! gateway (the default build compiles span recording out).

use aitf_core::{AitfConfig, HostPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, Role, TargetSel, TopologySpec, TrafficSpec};

fn main() {
    // Paper defaults: T = 60 s, Ttmp = 1 s, R1 = 100/s, R2 = 1/s.
    let mut f = TopologySpec::fig1(HostPolicy::Compliant).build(42, AitfConfig::default());
    let (victim, attacker) = (f.victim(), f.first_with(Role::Attacker));

    // A 4 Mbit/s UDP flood at the victim.
    TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 1000, 500).install(&mut f);

    f.world.sim.run_for(SimDuration::from_secs(5));

    println!("=== AITF quickstart: Figure 1, cooperative world ===\n");
    let v = f.world.host(victim).counters();
    println!("victim ({}):", f.world.host_addr(victim));
    println!("  attack packets that got through: {}", v.rx_attack_pkts);
    println!("  filtering requests sent:         {}", v.requests_sent);

    let g_gw1 = f.world.router(f.net("G_net"));
    println!("\nvictim's gateway (G_gw1, {}):", g_gw1.addr());
    println!(
        "  packets dropped by temp filter:  {}",
        g_gw1.counters().data_filtered_pkts
    );
    println!(
        "  shadow entries logged:           {}",
        g_gw1.shadow().stats().inserts
    );

    let b_gw1 = f.world.router(f.net("B_net"));
    println!("\nattacker's gateway (B_gw1, {}):", b_gw1.addr());
    println!(
        "  handshakes confirmed:            {}",
        b_gw1.counters().handshakes_confirmed
    );
    println!(
        "  long (T) filters installed:      {}",
        b_gw1.counters().filters_installed
    );
    println!(
        "  packets it blocked:              {}",
        b_gw1.counters().data_filtered_pkts
    );

    let a = f.world.host(attacker).counters();
    println!("\nattacker ({}):", f.world.host_addr(attacker));
    println!("  stop notices received:           {}", a.notices_received);
    println!("  flows stopped (compliant):       {}", a.flows_stopped);
    println!("  sends suppressed by self-filter: {}", a.tx_suppressed);

    println!("\nspans recorded at the attacker's gateway:");
    if !f.world.tracing_enabled() {
        println!("  (none: span recording is compiled out — re-run with `--features aitf-scenario/trace`)");
    }
    let spans = f.world.trace_spans();
    for s in spans.iter().filter(|s| s.router == b_gw1.addr().0) {
        println!("  {}", s.line());
    }
    println!("\nThe flood was pushed back to the AITF node closest to the attacker.");
}
