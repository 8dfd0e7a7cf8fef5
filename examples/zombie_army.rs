//! A distributed attack: 64 zombies across 16 networks flood one web
//! server while a legitimate client keeps using it.
//!
//! Without AITF the 10 Mbit/s tail circuit drowns (legitimate goodput
//! collapses); with AITF every zombie flow is pushed back to its own
//! provider and the legitimate client recovers. Run with
//! `cargo run --example zombie_army`.

use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, Role, Side, TargetSel, TopologySpec, TrafficSpec};

const ZOMBIE_PPS: u64 = 250;
const ZOMBIE_PKT_BYTES: u32 = 500;

fn run(defended: bool) -> (f64, f64, u64) {
    let mut topo = TopologySpec::star(16, 4, HostPolicy::Malicious, 10_000_000);
    // One honest client in the last zombie network (collateral position):
    // hosts are fixed at build, so the last zombie slot becomes the client.
    let last = topo.hosts.len() - 1;
    topo.hosts[last].policy = HostPolicy::Compliant;
    topo.hosts[last].role = Role::Legit;
    let mut s = topo.build(7, AitfConfig::default());
    if !defended {
        // Legacy routers: no AITF anywhere. The world-level hook keeps
        // every router's deployment view in sync with the flip.
        let nets: Vec<_> = (0..s.world.net_count()).map(aitf_core::NetId).collect();
        for net in nets {
            s.world.set_router_policy(net, RouterPolicy::legacy());
        }
    }
    // The victim doubles as the web server; the client talks to it.
    TrafficSpec::legit(HostSel::Role(Role::Legit), TargetSel::Victim, 500, 1000).install(&mut s);
    TrafficSpec::flood(
        HostSel::Role(Role::Attacker),
        TargetSel::Victim,
        ZOMBIE_PPS,
        ZOMBIE_PKT_BYTES,
    )
    .staggered(SimDuration::from_millis(50))
    .install(&mut s);
    let zombies = s.hosts_with(Role::Attacker).len();
    let offered = zombies as f64 * ZOMBIE_PPS as f64 * ZOMBIE_PKT_BYTES as f64 * 8.0;

    s.world.sim.run_for(SimDuration::from_secs(12));
    let v = s.world.host(s.victim()).counters();
    let secs = 12.0;
    let goodput = v.rx_legit_bytes as f64 * 8.0 / secs;
    let attack_bw = v.rx_attack_bytes as f64 * 8.0 / secs;
    let mut disconnected = 0;
    for net in s.nets_on(Side::Attacker) {
        disconnected += s.world.router(net).counters().disconnects_client;
    }
    println!(
        "  offered attack load: {:.1} Mbit/s across {zombies} zombies",
        offered / 1e6,
    );
    (goodput, attack_bw, disconnected)
}

fn main() {
    println!("=== zombie army vs a 10 Mbit/s tail circuit ===\n");
    println!("without AITF (legacy routers):");
    let (goodput, attack_bw, _) = run(false);
    println!("  legitimate goodput: {:.3} Mbit/s", goodput / 1e6);
    println!(
        "  attack bandwidth delivered: {:.3} Mbit/s\n",
        attack_bw / 1e6
    );

    println!("with AITF:");
    let (goodput_d, attack_d, disconnected) = run(true);
    println!("  legitimate goodput: {:.3} Mbit/s", goodput_d / 1e6);
    println!("  attack bandwidth delivered: {:.3} Mbit/s", attack_d / 1e6);
    println!("  zombies disconnected by their own providers: {disconnected}");

    println!(
        "\nAITF recovered {:.1}x of the legitimate goodput and cut the \
         attack's effective bandwidth by {:.0}x.",
        goodput_d / goodput.max(1.0),
        attack_bw.max(1.0) / attack_d.max(1.0),
    );
}
