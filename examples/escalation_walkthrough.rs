//! Walkthrough of Section II-D: what happens when gateways refuse.
//!
//! Runs the Figure 1 scenario four times with 0–3 non-cooperating
//! attacker-side gateways and narrates where the filtering ends up each
//! time — from "blocked at the attacker's gateway" to the worst case
//! where `G_gw3` disconnects from `B_gw3` entirely.
//!
//! Run with `cargo run --example escalation_walkthrough`; add
//! `--features aitf-scenario/trace` for `G_gw1`'s span listing per run (the
//! default build compiles span recording out).

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, Role, TargetSel, TopologySpec, TrafficSpec};

/// The attacker-side gateways, leaf first: display label, network name.
const B_SIDE: [(&str, &str); 3] = [("B_gw1", "B_net"), ("B_gw2", "B_isp"), ("B_gw3", "B_wan")];

fn main() {
    println!("=== escalation walkthrough (Fig. 1, Section II-D) ===");
    for rogues in 0..=3 {
        let mut f =
            TopologySpec::fig1(HostPolicy::Malicious).build(1000 + rogues, AitfConfig::default());
        for (_, net) in B_SIDE.iter().take(rogues as usize) {
            let net = f.net(net);
            f.world
                .set_router_policy(net, RouterPolicy::non_cooperating());
        }
        TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 1000, 500)
            .install(&mut f);
        f.world.sim.run_for(SimDuration::from_secs(15));

        println!("\n--- {rogues} non-cooperating attacker-side gateway(s) ---");
        for (name, net) in B_SIDE {
            let c = f.world.router(f.net(net)).counters();
            let role = if c.filters_installed > 0 {
                format!(
                    "BLOCKED the flow (filters: {}, disconnects: {})",
                    c.filters_installed, c.disconnects_client
                )
            } else if c.requests_ignored > 0 {
                format!("ignored {} request(s)", c.requests_ignored)
            } else {
                "not involved".to_string()
            };
            println!("  {name}: {role}");
        }
        let g3 = f.world.router(f.net("G_wan")).counters();
        if g3.disconnects_peer > 0 {
            println!("  G_gw3: DISCONNECTED the peering to B_gw3 (worst case)");
        }
        let v = f.world.host(f.victim()).counters();
        println!(
            "  victim: {} attack packets leaked of {} sent",
            v.rx_attack_pkts,
            f.world
                .host(f.first_with(Role::Attacker))
                .counters()
                .tx_pkts
        );
        println!("  G_gw1 spans (first 6):");
        if !f.world.tracing_enabled() {
            println!("    (none: span recording is compiled out — re-run with `--features aitf-scenario/trace`)");
        }
        let g_gw1 = f.world.router(f.net("G_net")).addr().0;
        let spans = f.world.trace_spans();
        for s in spans.iter().filter(|s| s.router == g_gw1).take(6) {
            println!("    {}", s.line());
        }
    }
    println!(
        "\nEach extra rogue gateway costs one escalation round; the flood \
         is always cut, and the rogue side pays with connectivity."
    );
}
