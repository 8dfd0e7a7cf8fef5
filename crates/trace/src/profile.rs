//! Per-subsystem event counters and wall-time buckets.

/// The subsystem a dispatched simulator event is attributed to.
///
/// The simulator seeds the class from the event kind (link completions are
/// [`Subsystem::Link`], node dispatches start from the node's own class);
/// nodes refine it mid-handler — a border router reclassifies control-plane
/// work as [`Subsystem::Escalation`], an end host reclassifies detection
/// work as [`Subsystem::Detector`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Subsystem {
    /// Event-loop overhead: queue pop/push, clock bookkeeping — everything
    /// in the loop that is not inside a dispatch. Derived as the residual
    /// `loop wall − Σ dispatch wall` by [`SubsystemProfile::finalized`].
    Queue,
    /// Link transmit completions and queue drains.
    Link,
    /// End-host application work: traffic sources, sinks, host timers.
    HostApp,
    /// Border-router data-path work: forwarding, filtering, shim stamping.
    RouterData,
    /// AITF control plane: filtering requests, handshakes, escalation.
    Escalation,
    /// Attack-detection work at end hosts (Td timers, rate estimators).
    Detector,
    /// Defense hook pipeline: events consumed by a router's defense
    /// stages — packets vetoed at the Ingress/Egress hooks, and the
    /// control planes of non-AITF policies (pushback, rate limiting,
    /// path stamping).
    DefenseHook,
}

impl Subsystem {
    /// Number of subsystem classes.
    pub const COUNT: usize = 7;

    /// Every class, in display order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::Queue,
        Subsystem::Link,
        Subsystem::HostApp,
        Subsystem::RouterData,
        Subsystem::DefenseHook,
        Subsystem::Escalation,
        Subsystem::Detector,
    ];

    /// Stable machine-readable name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Queue => "netsim_queue",
            Subsystem::Link => "link",
            Subsystem::HostApp => "host_app",
            Subsystem::RouterData => "router_datapath",
            Subsystem::DefenseHook => "defense_hook",
            Subsystem::Escalation => "escalation",
            Subsystem::Detector => "detector",
        }
    }

    fn index(self) -> usize {
        match self {
            Subsystem::Queue => 0,
            Subsystem::Link => 1,
            Subsystem::HostApp => 2,
            Subsystem::RouterData => 3,
            Subsystem::DefenseHook => 4,
            Subsystem::Escalation => 5,
            Subsystem::Detector => 6,
        }
    }
}

/// One subsystem's accumulated cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bucket {
    /// Events attributed to this subsystem.
    pub events: u64,
    /// Wall nanoseconds spent in those events.
    pub nanos: u64,
}

/// Fixed-size per-subsystem accumulator — no allocation on the record
/// path, so the instrumented event loop stays alloc-free.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SubsystemProfile {
    buckets: [Bucket; Subsystem::COUNT],
    /// Total wall nanoseconds spent inside event loops. A sharded run sums
    /// every shard's window wall plus the coordinator's barrier wall — the
    /// shards run concurrently, so the coordinator's own wall would be
    /// *smaller* than the dispatch time it has to cover and the queue
    /// residual would saturate to 0.
    loop_nanos: u64,
}

impl SubsystemProfile {
    /// Attributes one event of `nanos` wall cost to `subsystem`.
    #[inline]
    pub fn record(&mut self, subsystem: Subsystem, nanos: u64) {
        let b = &mut self.buckets[subsystem.index()];
        b.events += 1;
        b.nanos += nanos;
    }

    /// Adds wall time spent inside the event loop (dispatches included).
    #[inline]
    pub fn add_loop_nanos(&mut self, nanos: u64) {
        self.loop_nanos += nanos;
    }

    /// Sums `other` into `self` (aggregating across runs).
    pub fn merge(&mut self, other: &SubsystemProfile) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            b.events += o.events;
            b.nanos += o.nanos;
        }
        self.loop_nanos += other.loop_nanos;
    }

    /// The bucket for `subsystem` as currently recorded (the
    /// [`Subsystem::Queue`] bucket is only meaningful after
    /// [`SubsystemProfile::finalized`]).
    pub fn bucket(&self, subsystem: Subsystem) -> Bucket {
        self.buckets[subsystem.index()]
    }

    /// Total events attributed across all dispatch buckets.
    pub fn total_events(&self) -> u64 {
        Subsystem::ALL
            .iter()
            .filter(|&&s| s != Subsystem::Queue)
            .map(|&s| self.bucket(s).events)
            .sum()
    }

    /// Total wall nanoseconds spent inside event loops.
    pub fn loop_nanos(&self) -> u64 {
        self.loop_nanos
    }

    /// A copy with the [`Subsystem::Queue`] bucket filled in as the
    /// residual: every dispatched event passed through the queue, and its
    /// cost is the loop wall time not attributed to any dispatch.
    pub fn finalized(&self) -> SubsystemProfile {
        let mut out = *self;
        let dispatched: u64 = Subsystem::ALL
            .iter()
            .filter(|&&s| s != Subsystem::Queue)
            .map(|&s| self.bucket(s).nanos)
            .sum();
        out.buckets[Subsystem::Queue.index()] = Bucket {
            events: self.total_events(),
            nanos: self.loop_nanos.saturating_sub(dispatched),
        };
        out
    }

    /// `(subsystem, bucket)` rows in display order, queue residual filled.
    pub fn rows(&self) -> Vec<(Subsystem, Bucket)> {
        let f = self.finalized();
        Subsystem::ALL.iter().map(|&s| (s, f.bucket(s))).collect()
    }

    /// Renders the finalized profile as one JSON object
    /// (`{"netsim_queue":{"events":..,"nanos":..},...}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (s, b)) in self.rows().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"events\":{},\"nanos\":{}}}",
                s.name(),
                b.events,
                b.nanos
            ));
        }
        out.push('}');
        out
    }
}

/// How a sharded event loop's work was spread (`Simulator::shard_load`):
/// plain counts the loop keeps in every build, never part of a record or
/// a determinism comparison. Whether the shards were busy *at the same
/// time* is not in here — that is wall time; read the benchmark's
/// `netsim.shard_speedup`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardLoad {
    /// Events dispatched by each shard, in shard-id order (one entry for
    /// an unsharded run).
    pub events: Vec<u64>,
    /// Cut-link transmission completions the coordinator dispatched at
    /// barriers — events of the run that no shard counts.
    pub barrier_events: u64,
    /// Conservative windows run.
    pub windows: u64,
    /// Windows in which at most one shard had an event, run on the
    /// coordinating thread without waking a worker.
    pub windows_inline: u64,
    /// Staged cut-link operations (sends, blocked-flag flips) replayed at
    /// barriers.
    pub replayed_ops: u64,
    /// Adjacent replayed operations of *different* shards whose whole
    /// `(time, produce time, chain)` key was equal — on different cut
    /// links; the same link is a debug assertion — so only the shard id
    /// ordered them.
    pub key_ties: u64,
    /// Links whose ends sit in different shards.
    pub cut_links: u64,
    /// The window length: least propagation delay over the cut links
    /// (0 when nothing is cut).
    pub lookahead_ns: u64,
}

impl ShardLoad {
    /// Share of the shard-dispatched events the busiest shard handled
    /// (1.0 for an unsharded or idle run).
    pub fn busiest_share(&self) -> f64 {
        let total: u64 = self.events.iter().sum();
        match self.events.iter().max() {
            Some(&most) if total > 0 => most as f64 / total as f64,
            _ => 1.0,
        }
    }
}

impl std::fmt::Display for ShardLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shards, events {:?} (busiest {:.1}%) + {} at barriers; {} windows \
             ({} inline) of {} ns; {} cut links, {} staged ops replayed, {} key ties",
            self.events.len(),
            self.events,
            100.0 * self.busiest_share(),
            self.barrier_events,
            self.windows,
            self.windows_inline,
            self.lookahead_ns,
            self.cut_links,
            self.replayed_ops,
            self.key_ties,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_finalize_attribute_the_residual_to_the_queue() {
        let mut p = SubsystemProfile::default();
        p.record(Subsystem::Link, 100);
        p.record(Subsystem::Escalation, 50);
        p.record(Subsystem::Escalation, 50);
        p.add_loop_nanos(300);
        assert_eq!(p.total_events(), 3);
        let f = p.finalized();
        let q = f.bucket(Subsystem::Queue);
        assert_eq!(q.events, 3);
        assert_eq!(q.nanos, 100, "300 loop - 200 dispatched");
        assert_eq!(f.bucket(Subsystem::Escalation).nanos, 100);
    }

    #[test]
    fn merge_sums_buckets_and_loop_time() {
        let mut a = SubsystemProfile::default();
        a.record(Subsystem::HostApp, 10);
        a.add_loop_nanos(20);
        let mut b = SubsystemProfile::default();
        b.record(Subsystem::HostApp, 5);
        b.record(Subsystem::Detector, 7);
        b.add_loop_nanos(30);
        a.merge(&b);
        assert_eq!(
            a.bucket(Subsystem::HostApp),
            Bucket {
                events: 2,
                nanos: 15
            }
        );
        assert_eq!(a.bucket(Subsystem::Detector).events, 1);
        assert_eq!(a.loop_nanos(), 50);
    }

    #[test]
    fn shard_load_names_the_busiest_share() {
        let load = ShardLoad {
            events: vec![30, 70],
            windows: 5,
            windows_inline: 2,
            ..ShardLoad::default()
        };
        assert_eq!(load.busiest_share(), 0.7);
        let line = load.to_string();
        assert!(
            line.contains("2 shards") && line.contains("busiest 70.0%"),
            "{line}"
        );
        assert!(line.contains("5 windows (2 inline)"), "{line}");
        assert_eq!(ShardLoad::default().busiest_share(), 1.0);
    }

    #[test]
    fn json_has_every_subsystem_key() {
        let j = SubsystemProfile::default().to_json();
        for s in Subsystem::ALL {
            assert!(j.contains(s.name()), "{j}");
        }
    }
}
