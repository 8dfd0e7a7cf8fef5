//! A malicious node forges a filtering request against a legitimate flow —
//! and the 3-way handshake kills it.
//!
//! Section II-E: "compromised node M can maliciously request the blocking
//! of traffic from A to V". The attacker's gateway verifies every request
//! by asking the claimed victim (with a nonce only on-path nodes can see);
//! V never asked, so it denies, and the legitimate flow survives. The
//! example also re-runs the attack with verification disabled to show the
//! damage the handshake prevents.
//!
//! Run with `cargo run --example forged_request`.

use aitf_core::{AitfConfig, RequestForger, Source, WorldBuilder};
use aitf_netsim::SimDuration;
use aitf_packet::FlowLabel;

fn run(verification: bool) {
    let cfg = AitfConfig {
        verification,
        ..AitfConfig::default()
    };
    let mut b = WorldBuilder::new(5, cfg);
    let wan = b.network("wan", "10.100.0.0/16", None);
    let a_net = b.network("a_net", "10.1.0.0/16", Some(wan));
    let v_net = b.network("v_net", "10.2.0.0/16", Some(wan));
    let m_net = b.network("m_net", "10.3.0.0/16", Some(wan));
    let a = b.host(a_net);
    let v = b.host(v_net);
    let m = b.host(m_net);
    let mut w = b.build();

    let a_addr = w.host_addr(a);
    let v_addr = w.host_addr(v);
    // A sends a steady legitimate stream to V.
    w.add_app(a, Box::new(Source::client(v_addr, 200, 500)));
    // M (off-path) forges "V does not want A's traffic" at A's gateway.
    w.add_app(
        m,
        Box::new(RequestForger::new(
            w.router_addr(a_net),
            FlowLabel::src_dst(a_addr, v_addr),
            SimDuration::from_secs(1),
        )),
    );
    w.sim.run_for(SimDuration::from_secs(5));

    let gw = w.router(a_net).counters();
    let vc = w.host(v).counters();
    println!(
        "  handshake {}: queries denied by V: {}, filters installed: {}, \
         legit packets delivered: {} / ~1000",
        if verification { "ON " } else { "OFF" },
        gw.handshakes_denied,
        gw.filters_installed,
        vc.rx_legit_pkts,
    );
}

fn main() {
    println!("=== forged filtering request vs the 3-way handshake ===\n");
    println!("with verification (the AITF design):");
    run(true);
    println!("\nwithout verification (ablation — why Section II-E exists):");
    run(false);
    println!(
        "\nOff-path forgery cannot block a legitimate flow unless the \
         forger already routes it (Section III-B)."
    );
}
