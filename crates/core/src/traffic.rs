//! The traffic applications hosts run.
//!
//! The paper's threat model has one kind of sender in four shapes: zombies
//! flooding the victim (Section I), on-off attackers waiting out the
//! victim's gateway (Section II-B footnote 2), spoofers that ingress
//! filtering stops (Section III-A), and the legitimate clients whose
//! goodput the defense must keep. [`Source`] is that sender; its
//! constructors pick the shape and [`Source::starting_after`] delays any
//! of them. [`RequestForger`] is the off-path adversary of Section II-E,
//! forging a filtering request.
//!
//! Whether a host *stops* when asked is its
//! [`HostPolicy`](crate::HostPolicy), not the source's concern: a
//! compliant host suppresses the source's packets at the send hook.

use aitf_netsim::{SimDuration, SimTime};
use aitf_packet::{
    Addr, AitfMessage, FilteringRequest, FlowLabel, Packet, Prefix, Protocol, RequestDestination,
    TrafficClass,
};

use crate::host::{HostApi, TrafficApp};

/// A periodic sender: a flood, an on-off flood, a spoofing flood or a
/// legitimate client.
///
/// Attack shapes send UDP to port 80 and their first packet at the start
/// time; clients send TCP to port 443 and their first packet one gap
/// after it. Every packet leaves from source port 0. The start time is
/// `starting_after` past the host's start — or past its reattachment,
/// which re-runs the start: an on-off source begins a fresh on-phase, a
/// client draws a fresh lead gap, and a spoofing flood carries on from
/// the spoofed address it had reached.
///
/// # Examples
///
/// ```
/// use aitf_core::Source;
/// use aitf_netsim::SimDuration;
/// use aitf_packet::Addr;
///
/// // 1000 packets/s of 500-byte UDP to the victim, from t = 2 s on.
/// let flood = Source::flood(Addr::new(10, 1, 0, 1), 1000, 500)
///     .starting_after(SimDuration::from_secs(2));
/// # let _ = flood;
/// ```
#[derive(Debug)]
pub struct Source {
    target: Addr,
    size: u32,
    /// `1e9 / pps` ns: the send period, and a client's mean gap.
    period: SimDuration,
    start_after: SimDuration,
    shape: Shape,
}

/// What distinguishes the four senders, with the state each keeps.
#[derive(Debug)]
enum Shape {
    Flood,
    OnOff {
        on_period: SimDuration,
        off_period: SimDuration,
        /// When the current phase started.
        phase_started: SimTime,
        sending: bool,
    },
    Spoof {
        pool: Prefix,
        /// Distinct spoofed sources, cycled round-robin.
        pool_size: u32,
        /// The pool index of the next packet's source.
        next: u32,
    },
    Client {
        /// SplitMix64 state of the Poisson gaps; `None` sends CBR.
        arrivals: Option<u64>,
    },
}

/// SplitMix64 finalizer, the mixer the seeded Poisson gaps draw from.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Source {
    /// # Panics
    ///
    /// Panics if `pps` is zero.
    fn new(target: Addr, pps: u64, size: u32, shape: Shape) -> Self {
        assert!(pps > 0, "traffic rate must be positive");
        Source {
            target,
            size,
            period: SimDuration::from_nanos(1_000_000_000 / pps),
            start_after: SimDuration::ZERO,
            shape,
        }
    }

    /// A constant-rate flood of `pps` packets/second of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is zero.
    pub fn flood(target: Addr, pps: u64, size: u32) -> Self {
        Source::new(target, pps, size, Shape::Flood)
    }

    /// The on-off evasion pattern: flood at `pps` for `on_period`, go
    /// silent for `off_period`, repeat — hoping the victim's gateway
    /// forgets between bursts. The shadow cache exists to defeat this.
    ///
    /// # Panics
    ///
    /// Panics if `pps` or either period is zero.
    pub fn onoff(
        target: Addr,
        pps: u64,
        size: u32,
        on_period: SimDuration,
        off_period: SimDuration,
    ) -> Self {
        assert!(
            !on_period.is_zero() && !off_period.is_zero(),
            "on-off periods must be positive"
        );
        let shape = Shape::OnOff {
            on_period,
            off_period,
            phase_started: SimTime::ZERO,
            sending: true,
        };
        Source::new(target, pps, size, shape)
    }

    /// A flood whose packets claim the sources `pool.host_at(0..pool_size)`
    /// in turn. Ingress filtering at the attacker's gateway stops it when
    /// `pool` lies outside the attacker's network; otherwise the victim
    /// faces `pool_size` apparently distinct undesired flows.
    ///
    /// # Panics
    ///
    /// Panics if `pps` or `pool_size` is zero.
    pub fn spoof(target: Addr, pps: u64, size: u32, pool: Prefix, pool_size: u32) -> Self {
        assert!(pool_size > 0, "spoof pool must be non-empty");
        let shape = Shape::Spoof {
            pool,
            pool_size,
            next: 0,
        };
        Source::new(target, pps, size, shape)
    }

    /// A legitimate constant-bit-rate client.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is zero.
    pub fn client(target: Addr, pps: u64, size: u32) -> Self {
        Source::new(target, pps, size, Shape::Client { arrivals: None })
    }

    /// A legitimate client with Poisson arrivals at a mean of `pps`,
    /// drawn from its own stream seeded by `seed`: give each client a
    /// distinct seed and its schedule is the same at any shard count.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is zero.
    pub fn poisson_client(target: Addr, pps: u64, size: u32, seed: u64) -> Self {
        let arrivals = Some(splitmix64(seed ^ 0x1E61_7000_0000_0001));
        Source::new(target, pps, size, Shape::Client { arrivals })
    }

    /// Delays the start: the first packet of an attack shape, and the
    /// first gap of a client.
    pub fn starting_after(mut self, delay: SimDuration) -> Self {
        self.start_after = delay;
        self
    }

    /// The next client gap: the period, or an exponential draw with the
    /// period as its mean.
    fn gap(&mut self) -> SimDuration {
        match &mut self.shape {
            Shape::Client {
                arrivals: Some(state),
            } => {
                *state = splitmix64(*state);
                // u ∈ (0, 1] from the top 53 bits; inverse-CDF draw.
                let u = ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                SimDuration::from_secs_f64(-u.ln() * self.period.as_secs_f64())
            }
            _ => self.period,
        }
    }
}

impl TrafficApp for Source {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        let lead = match &mut self.shape {
            Shape::OnOff {
                phase_started,
                sending,
                ..
            } => {
                *phase_started = api.now() + self.start_after;
                *sending = true;
                SimDuration::ZERO
            }
            Shape::Client { .. } => self.gap(),
            Shape::Flood | Shape::Spoof { .. } => SimDuration::ZERO,
        };
        api.set_timer(self.start_after + lead);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>) {
        let (src, class) = match &mut self.shape {
            Shape::OnOff {
                on_period,
                off_period,
                phase_started,
                sending,
            } => {
                let now = api.now();
                if !*sending {
                    // Off-phase over: resume.
                    *sending = true;
                    *phase_started = now;
                    api.set_timer(SimDuration::ZERO);
                    return;
                }
                if now.saturating_since(*phase_started) >= *on_period {
                    // Go quiet; wake up when the off-phase ends.
                    *sending = false;
                    *phase_started = now;
                    api.set_timer(*off_period);
                    return;
                }
                (api.my_addr(), TrafficClass::Attack)
            }
            Shape::Spoof {
                pool,
                pool_size,
                next,
            } => {
                let src = pool.host_at(*next);
                *next = (*next + 1) % *pool_size;
                (src, TrafficClass::Attack)
            }
            Shape::Flood => (api.my_addr(), TrafficClass::Attack),
            Shape::Client { .. } => (api.my_addr(), TrafficClass::Legit),
        };
        let (proto, port) = match class {
            TrafficClass::Attack => (Protocol::Udp, 80),
            TrafficClass::Legit => (Protocol::Tcp, 443),
        };
        api.send_data(src, self.target, proto, 0, port, class, self.size);
        let gap = self.gap();
        api.set_timer(gap);
    }
}

/// A malicious node forging a filtering request: `delay` after its host
/// starts, it claims to the gateway `to_gateway` that the destination of
/// `claim_flow` wants that flow blocked — hoping to cut a legitimate flow
/// it is not a party to (the attack Section II-E's 3-way handshake exists
/// to stop).
#[derive(Debug)]
pub struct RequestForger {
    to_gateway: Addr,
    claim_flow: FlowLabel,
    delay: SimDuration,
}

impl RequestForger {
    /// A forger of one request for `claim_flow`, sent to `to_gateway`.
    pub fn new(to_gateway: Addr, claim_flow: FlowLabel, delay: SimDuration) -> Self {
        RequestForger {
            to_gateway,
            claim_flow,
            delay,
        }
    }
}

impl TrafficApp for RequestForger {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.set_timer(self.delay);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>) {
        let req = FilteringRequest {
            id: 0xF0F0_0000,
            flow: self.claim_flow,
            dest: RequestDestination::AttackerGateway,
            duration_ns: 60_000_000_000,
            path: Default::default(),
            round: 1,
        };
        let msg = AitfMessage::FilteringRequest(req);
        api.send_raw(Packet::control(0, api.my_addr(), self.to_gateway, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AitfConfig, HostId, HostPolicy, RxTap, World, WorldBuilder};

    /// A victim in `g` and a malicious host in `b` (10.9.0.0/16), both
    /// under a shared `wan`.
    fn tiny_world(cfg: AitfConfig) -> (World, HostId, HostId) {
        let mut b = WorldBuilder::new(5, cfg);
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

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn flood_sends_at_configured_rate() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        w.add_app(a, Box::new(Source::flood(target, 200, 100)));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx = w.host(a).counters().tx_pkts;
        assert!((195..=201).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn flood_starts_after_its_window() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        let flood = Source::flood(target, 100, 100).starting_after(ms(500));
        w.add_app(a, Box::new(flood));
        w.sim.run_for(ms(400));
        assert_eq!(w.host(a).counters().tx_pkts, 0, "not started yet");
        w.sim.run_for(ms(1100));
        let tx = w.host(a).counters().tx_pkts;
        // The first packet at 500 ms, then every 10 ms through 1.5 s.
        assert_eq!(tx, 101, "tx = {tx}");
    }

    #[test]
    fn onoff_source_alternates() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        let onoff = Source::onoff(target, 1000, 100, ms(100), ms(900));
        w.add_app(a, Box::new(onoff));
        w.sim.run_for(SimDuration::from_secs(3));
        let tx = w.host(a).counters().tx_pkts;
        // 3 cycles × ~100 ms on at 1000 pps ≈ 300 packets.
        assert!((250..=350).contains(&tx), "tx = {tx}");
    }

    #[test]
    fn spoofing_flood_uses_distinct_sources() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        // Inside the attacker's own network, so ingress filtering lets it pass.
        let pool: Prefix = "10.9.128.0/24".parse().unwrap();
        w.add_app(a, Box::new(Source::spoof(target, 100, 100, pool, 16)));
        w.sim.run_for(SimDuration::from_secs(1));
        // The victim sees many distinct undesired flows → many detections.
        let v_detections = w.host(v).counters().detections;
        assert!(v_detections >= 8, "detections = {v_detections}");
    }

    #[test]
    fn spoofed_sources_outside_prefix_are_dropped_by_ingress() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        // Spoofing from a prefix that is NOT the attacker's network.
        let pool: Prefix = "172.16.0.0/24".parse().unwrap();
        w.add_app(a, Box::new(Source::spoof(target, 100, 100, pool, 16)));
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            w.host(v).counters().rx_attack_pkts,
            0,
            "ingress must stop spoofs"
        );
        let b_net = w.host_net(a);
        assert!(w.router(b_net).counters().spoofed_dropped > 50);
    }

    /// A server in `g` and a client host in `c`.
    fn client_world() -> (World, HostId, HostId) {
        let mut b = WorldBuilder::new(3, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let g = b.network("g", "10.1.0.0/16", Some(wan));
        let c = b.network("c", "10.2.0.0/16", Some(wan));
        let server = b.host(g);
        let client = b.host(c);
        (b.build(), server, client)
    }

    #[test]
    fn cbr_client_delivers_expected_goodput() {
        let (mut w, server, client) = client_world();
        let target = w.host_addr(server);
        w.add_app(client, Box::new(Source::client(target, 100, 1000)));
        w.sim.run_for(SimDuration::from_secs(5));
        let rx = w.host(server).counters().rx_legit_bytes;
        // ~5 s × 100 pps × 1000 B, minus in-flight tail.
        assert!((480_000..=500_000).contains(&rx), "rx = {rx}");
    }

    #[test]
    fn poisson_client_matches_mean_rate() {
        let (mut w, server, client) = client_world();
        let target = w.host_addr(server);
        let poisson = Source::poisson_client(target, 200, 500, 17);
        w.add_app(client, Box::new(poisson));
        w.sim.run_for(SimDuration::from_secs(10));
        let rx_pkts = w.host(server).counters().rx_legit_pkts as f64;
        let expected = 2000.0;
        assert!(
            (rx_pkts - expected).abs() < expected * 0.15,
            "rx_pkts = {rx_pkts}, expected ≈ {expected}"
        );
    }

    // ------------------------------------------------------------------
    // State across a detach/attach restart.
    // ------------------------------------------------------------------

    /// Every delivered packet's source, in arrival order.
    #[derive(Default)]
    struct Sources(Vec<Addr>);

    impl RxTap for Sources {
        fn on_rx(&mut self, src: Addr, _class: TrafficClass, _size_bytes: u32) {
            self.0.push(src);
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn received(w: &World, v: HostId) -> &[Addr] {
        let tap = w.host(v).rx_tap().expect("tap installed");
        &tap.as_any().downcast_ref::<Sources>().expect("Sources").0
    }

    #[test]
    fn a_spoofing_flood_resumes_its_cursor_after_a_restart() {
        // Detection never fires within the run, so no filter hides a flow.
        let cfg = AitfConfig {
            detection_delay: SimDuration::from_secs(100),
            ..AitfConfig::default()
        };
        let (mut w, v, a) = tiny_world(cfg);
        w.host_mut(v).set_rx_tap(Box::<Sources>::default());
        let target = w.host_addr(v);
        let pool: Prefix = "10.9.128.0/24".parse().unwrap();
        w.add_app(a, Box::new(Source::spoof(target, 100, 100, pool, 16)));
        w.sim.run_for(ms(255));
        let sent = w.host(a).counters().tx_pkts;
        assert_eq!(sent, 26, "sends at 0, 10, …, 250 ms");
        w.detach_host(a);
        w.sim.run_for(ms(500));
        let before = received(&w, v).len();
        w.attach_host(a);
        w.sim.run_for(ms(200));
        let after = &received(&w, v)[before..before + 10];
        let expected: Vec<Addr> = (sent..sent + 10)
            .map(|i| pool.host_at((i % 16) as u32))
            .collect();
        assert_eq!(after, expected, "the cursor continues at {}", sent % 16);
    }

    #[test]
    fn an_onoff_source_restarts_its_on_phase_after_a_restart() {
        let (mut w, v, a) = tiny_world(AitfConfig::default());
        let target = w.host_addr(v);
        let onoff = Source::onoff(target, 1000, 100, ms(100), ms(900));
        w.add_app(a, Box::new(onoff));
        // Detached 50 ms into the first on-phase, back 20 ms later.
        w.sim.run_for(ms(50));
        w.detach_host(a);
        w.sim.run_for(ms(20));
        let before = w.host(a).counters().tx_pkts;
        w.attach_host(a);
        w.sim.run_for(ms(500));
        let after = w.host(a).counters().tx_pkts - before;
        // A whole fresh on-phase, not the 30 ms left of the old one.
        assert_eq!(after, 100, "sent {after} after the restart");
    }

    #[test]
    fn a_client_draws_a_fresh_lead_gap_after_a_restart() {
        let (mut w, server, client) = client_world();
        let target = w.host_addr(server);
        w.add_app(client, Box::new(Source::poisson_client(target, 50, 100, 3)));
        // A twin of the installed client predicts its gaps.
        let mut twin = Source::poisson_client(target, 50, 100, 3);
        let gaps: Vec<SimDuration> = (0..64).map(|_| twin.gap()).collect();
        let detach_at = SimTime::ZERO + ms(300);
        w.sim.run_until(detach_at);
        w.detach_host(client);
        w.attach_host(client);
        // Packets sent at or before the detach, each one gap after the last.
        let mut at = SimTime::ZERO;
        let mut sent = 0;
        while at + gaps[sent] <= detach_at {
            at += gaps[sent];
            sent += 1;
        }
        assert_eq!(w.host(client).counters().tx_pkts, sent as u64);
        // The pending gap `sent` died with the detach; the restart draws
        // the next one as its lead.
        let next = detach_at + gaps[sent + 1];
        w.sim.run_until(SimTime(next.0 - 1));
        assert_eq!(w.host(client).counters().tx_pkts, sent as u64);
        w.sim.run_until(next);
        assert_eq!(w.host(client).counters().tx_pkts, sent as u64 + 1);
    }
}
