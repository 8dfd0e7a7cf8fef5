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

use aitf_attack::FloodSource;
use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::fig1;

fn main() {
    println!("=== escalation walkthrough (Fig. 1, Section II-D) ===");
    for rogues in 0..=3 {
        let mut f = fig1(AitfConfig::default(), 1000 + rogues, HostPolicy::Malicious);
        let b_side = [f.b_net, f.b_isp, f.b_wan];
        for &net in b_side.iter().take(rogues as usize) {
            f.world
                .router_mut(net)
                .set_policy(RouterPolicy::non_cooperating());
        }
        let target = f.world.host_addr(f.victim);
        f.world
            .add_app(f.attacker, Box::new(FloodSource::new(target, 1000, 500)));
        f.world.sim.run_for(SimDuration::from_secs(15));

        println!("\n--- {rogues} non-cooperating attacker-side gateway(s) ---");
        for (name, net) in [("B_gw1", f.b_net), ("B_gw2", f.b_isp), ("B_gw3", f.b_wan)] {
            let c = f.world.router(net).counters();
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
        let g3 = f.world.router(f.g_wan).counters();
        if g3.disconnects_peer > 0 {
            println!("  G_gw3: DISCONNECTED the peering to B_gw3 (worst case)");
        }
        let v = f.world.host(f.victim).counters();
        println!(
            "  victim: {} attack packets leaked of {} sent",
            v.rx_attack_pkts,
            f.world.host(f.attacker).counters().tx_pkts
        );
        println!("  G_gw1 spans (first 6):");
        if !f.world.tracer().is_enabled() {
            println!("    (none: span recording is compiled out — re-run with `--features aitf-scenario/trace`)");
        }
        let g_gw1 = f.world.router(f.g_net).addr().0;
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
