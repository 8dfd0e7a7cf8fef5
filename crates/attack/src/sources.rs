//! Attack traffic generators.
//!
//! All sources are [`TrafficApp`]s installed on an [`aitf_core::EndHost`].
//! Whether the host *stops* when asked is the host's
//! [`aitf_core::HostPolicy`], not the source's concern — a compliant host
//! suppresses the source's packets at the send hook.

use aitf_core::{HostApi, TrafficApp};
use aitf_netsim::{SimDuration, SimTime};
use aitf_packet::{Addr, Prefix, Protocol, TrafficClass};
use rand::Rng;

/// A constant-rate flood towards one target.
///
/// # Examples
///
/// ```
/// use aitf_attack::FloodSource;
/// use aitf_packet::Addr;
///
/// // 1000 packets/s of 500-byte UDP to the victim, starting at t = 0.
/// let src = FloodSource::new(Addr::new(10, 1, 0, 1), 1000, 500);
/// assert_eq!(src.packets_per_sec(), 1000);
/// ```
#[derive(Debug)]
pub struct FloodSource {
    target: Addr,
    period: SimDuration,
    pps: u64,
    size: u32,
    start_after: SimDuration,
    stop_at: Option<SimTime>,
    dst_port: u16,
}

impl FloodSource {
    /// A UDP flood of `pps` packets/second of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is zero.
    pub fn new(target: Addr, pps: u64, size: u32) -> Self {
        assert!(pps > 0, "flood rate must be positive");
        FloodSource {
            target,
            period: SimDuration::from_nanos(1_000_000_000 / pps),
            pps,
            size,
            start_after: SimDuration::ZERO,
            stop_at: None,
            dst_port: 80,
        }
    }

    /// Delays the first packet.
    pub fn starting_after(mut self, delay: SimDuration) -> Self {
        self.start_after = delay;
        self
    }

    /// Stops the flood at an absolute time.
    pub fn stopping_at(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Overrides the destination port.
    pub fn with_dst_port(mut self, port: u16) -> Self {
        self.dst_port = port;
        self
    }

    /// The configured rate.
    pub fn packets_per_sec(&self) -> u64 {
        self.pps
    }
}

impl TrafficApp for FloodSource {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.set_timer(self.start_after, 0);
    }

    fn on_timer(&mut self, _token: u32, api: &mut HostApi<'_, '_>) {
        if let Some(stop) = self.stop_at {
            if api.now() >= stop {
                return;
            }
        }
        api.send_from_self(
            self.target,
            Protocol::Udp,
            self.dst_port,
            TrafficClass::Attack,
            self.size,
        );
        api.set_timer(self.period, 0);
    }
}

/// The "on-off" evasion pattern (Section II-B footnote 2): flood for
/// `on_period`, go silent for `off_period`, repeat — hoping the victim's
/// gateway forgets between bursts. The shadow cache exists to defeat this.
#[derive(Debug)]
pub struct OnOffSource {
    target: Addr,
    period: SimDuration,
    size: u32,
    on_period: SimDuration,
    off_period: SimDuration,
    /// Time the current on-phase started.
    phase_started: SimTime,
    sending: bool,
}

impl OnOffSource {
    /// Builds an on-off flood: `pps`/`size` during on-phases.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is zero or either period is zero.
    pub fn new(
        target: Addr,
        pps: u64,
        size: u32,
        on_period: SimDuration,
        off_period: SimDuration,
    ) -> Self {
        assert!(pps > 0, "rate must be positive");
        assert!(
            !on_period.is_zero() && !off_period.is_zero(),
            "periods must be positive"
        );
        OnOffSource {
            target,
            period: SimDuration::from_nanos(1_000_000_000 / pps),
            size,
            on_period,
            off_period,
            phase_started: SimTime::ZERO,
            sending: true,
        }
    }
}

impl TrafficApp for OnOffSource {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        self.phase_started = api.now();
        self.sending = true;
        api.set_timer(SimDuration::ZERO, 0);
    }

    fn on_timer(&mut self, _token: u32, api: &mut HostApi<'_, '_>) {
        let now = api.now();
        if self.sending {
            if now.saturating_since(self.phase_started) >= self.on_period {
                // Go quiet; wake up when the off-phase ends.
                self.sending = false;
                self.phase_started = now;
                api.set_timer(self.off_period, 0);
                return;
            }
            api.send_from_self(
                self.target,
                Protocol::Udp,
                80,
                TrafficClass::Attack,
                self.size,
            );
            api.set_timer(self.period, 0);
        } else {
            // Off-phase over: resume.
            self.sending = true;
            self.phase_started = now;
            api.set_timer(SimDuration::ZERO, 0);
        }
    }
}

/// A flood that spoofs its source address from a prefix — each packet a
/// different fake host. Ingress filtering at the attacker's gateway
/// (Section III-A) stops it cold; without ingress filtering the victim
/// faces an apparently-huge set of distinct undesired flows.
#[derive(Debug)]
pub struct SpoofingFlood {
    target: Addr,
    period: SimDuration,
    size: u32,
    spoof_pool: Prefix,
    /// Number of distinct spoofed sources (cycled deterministically when
    /// `random` is false).
    pool_size: u32,
    next: u32,
    random: bool,
    start_after: SimDuration,
}

impl SpoofingFlood {
    /// A spoofing flood cycling through `pool_size` addresses in
    /// `spoof_pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pps` or `pool_size` is zero.
    pub fn new(target: Addr, pps: u64, size: u32, spoof_pool: Prefix, pool_size: u32) -> Self {
        assert!(pps > 0 && pool_size > 0);
        SpoofingFlood {
            target,
            period: SimDuration::from_nanos(1_000_000_000 / pps),
            size,
            spoof_pool,
            pool_size,
            next: 0,
            random: false,
            start_after: SimDuration::ZERO,
        }
    }

    /// Draws spoofed sources randomly instead of round-robin.
    pub fn randomised(mut self) -> Self {
        self.random = true;
        self
    }

    /// Delays the first packet — a zombie army staggered off a shared
    /// period lattice produces no same-timestamp event collisions, which
    /// keeps large sharded runs bit-identical at any shard count.
    pub fn starting_after(mut self, delay: SimDuration) -> Self {
        self.start_after = delay;
        self
    }
}

impl TrafficApp for SpoofingFlood {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.set_timer(self.start_after, 0);
    }

    fn on_timer(&mut self, _token: u32, api: &mut HostApi<'_, '_>) {
        let index = if self.random {
            api.rng().gen_range(0..self.pool_size)
        } else {
            let i = self.next;
            self.next = (self.next + 1) % self.pool_size;
            i
        };
        let src = self.spoof_pool.host_at(index);
        api.send_data(
            src,
            self.target,
            Protocol::Udp,
            0,
            80,
            TrafficClass::Attack,
            self.size,
        );
        api.set_timer(self.period, 0);
    }
}

/// A malicious node forging filtering requests: it claims that `victim`
/// does not want traffic from `claimed_src`, hoping to cut a legitimate
/// flow it is not a party to (the attack Section II-E's 3-way handshake
/// exists to stop).
#[derive(Debug)]
pub struct RequestForger {
    /// The gateway the forged request is sent to (the claimed attacker's
    /// gateway).
    pub to_gateway: Addr,
    /// The legitimate flow the forger wants blocked.
    pub claim_flow: aitf_packet::FlowLabel,
    /// When to fire.
    pub delay: SimDuration,
    /// How many times to re-send (a persistent forger).
    pub repeats: u32,
}

impl RequestForger {
    /// A one-shot forger.
    pub fn new(to_gateway: Addr, claim_flow: aitf_packet::FlowLabel, delay: SimDuration) -> Self {
        RequestForger {
            to_gateway,
            claim_flow,
            delay,
            repeats: 1,
        }
    }
}

impl TrafficApp for RequestForger {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.set_timer(self.delay, 0);
    }

    fn on_timer(&mut self, _token: u32, api: &mut HostApi<'_, '_>) {
        if self.repeats == 0 {
            return;
        }
        self.repeats -= 1;
        let req = aitf_packet::FilteringRequest {
            id: 0xF0F0_0000 + self.repeats as u64,
            flow: self.claim_flow,
            dest: aitf_packet::RequestDestination::AttackerGateway,
            duration_ns: 60_000_000_000,
            path: Default::default(),
            round: 1,
        };
        let pkt = aitf_packet::Packet::control(
            0,
            api.my_addr(),
            self.to_gateway,
            aitf_packet::AitfMessage::FilteringRequest(req),
        );
        api.send_raw(pkt);
        if self.repeats > 0 {
            api.set_timer(SimDuration::from_secs(1), 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_core::{AitfConfig, HostPolicy, WorldBuilder};

    fn tiny_world() -> (aitf_core::World, aitf_core::HostId, aitf_core::HostId) {
        let mut b = WorldBuilder::new(5, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let g = b.network("g", "10.1.0.0/16", Some(wan));
        let bad = b.network("b", "10.9.0.0/16", Some(wan));
        let v = b.host(g);
        let a = b.host_with(
            bad,
            HostPolicy::Malicious,
            WorldBuilder::default_host_link(),
        );
        (b.build(), v, a)
    }

    #[test]
    fn flood_sends_at_configured_rate() {
        let (mut w, v, a) = tiny_world();
        let target = w.host_addr(v);
        // Disable the defense so the raw rate is visible: no detection ever
        // fires because the victim's requests are what stop the flow; here
        // we just check tx accounting over 1 s.
        w.add_app(a, Box::new(FloodSource::new(target, 200, 100)));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx = w.host(a).counters().tx_pkts;
        assert!((195..=201).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn flood_start_and_stop_windows() {
        let (mut w, v, a) = tiny_world();
        let target = w.host_addr(v);
        w.add_app(
            a,
            Box::new(
                FloodSource::new(target, 100, 100)
                    .starting_after(SimDuration::from_millis(500))
                    .stopping_at(SimTime::ZERO + SimDuration::from_millis(1500)),
            ),
        );
        w.sim.run_for(SimDuration::from_millis(400));
        assert_eq!(w.host(a).counters().tx_pkts, 0, "not started yet");
        w.sim.run_for(SimDuration::from_secs(2));
        let tx = w.host(a).counters().tx_pkts;
        // Active window was 1 s at 100 pps.
        assert!((95..=105).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn onoff_source_alternates() {
        let (mut w, v, a) = tiny_world();
        let target = w.host_addr(v);
        w.add_app(
            a,
            Box::new(OnOffSource::new(
                target,
                1000,
                100,
                SimDuration::from_millis(100),
                SimDuration::from_millis(900),
            )),
        );
        w.sim.run_for(SimDuration::from_secs(3));
        let tx = w.host(a).counters().tx_pkts;
        // 3 cycles × ~100 ms on at 1000 pps ≈ 300 packets.
        assert!((250..=350).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn spoofing_flood_uses_distinct_sources() {
        let (mut w, v, a) = tiny_world();
        let target = w.host_addr(v);
        let pool: Prefix = "10.9.128.0/24".parse().unwrap();
        // Attacker's own network prefix, so ingress filtering lets it pass.
        w.add_app(a, Box::new(SpoofingFlood::new(target, 100, 100, pool, 16)));
        w.sim.run_for(SimDuration::from_secs(1));
        // The victim sees many distinct undesired flows → many detections.
        let v_detections = w.host(v).counters().detections;
        assert!(v_detections >= 8, "detections = {v_detections}");
    }

    #[test]
    fn spoofed_sources_outside_prefix_are_dropped_by_ingress() {
        let (mut w, v, a) = tiny_world();
        let target = w.host_addr(v);
        // Spoofing from a prefix that is NOT the attacker's network.
        let pool: Prefix = "172.16.0.0/24".parse().unwrap();
        w.add_app(a, Box::new(SpoofingFlood::new(target, 100, 100, pool, 16)));
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            w.host(v).counters().rx_attack_pkts,
            0,
            "ingress must stop spoofs"
        );
        let b_net = w.host_net(a);
        assert!(w.router(b_net).counters().spoofed_dropped > 50);
    }
}
