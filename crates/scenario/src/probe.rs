//! Declarative measurement: a `ProbeSet` names what a scenario records.
//!
//! Two probe families cover the paper's evaluation:
//!
//! - **end probes** run once after the simulation and append metrics in
//!   declaration order — effective-bandwidth leak ratios, filter-table
//!   peaks, router counter sums, or any bespoke extraction;
//! - **sampled probes** run every `bin` of simulated time and accumulate
//!   a named series (the figure-style traces); summarizers then reduce
//!   the series store to scalar metrics (window means, first-crossing
//!   times), and series marked for emission ride into the JSON as
//!   `_series_*` float lists.
//!
//! Metric order in the final [`aitf_engine::Outcome`] is: end probes (in
//! order), then summarizers (in order), then `_series_time_s` plus every
//! emitted series (in order) — so a scenario's table and JSON columns are
//! exactly the probe declaration order.

use aitf_core::{HostId, RxTap};
use aitf_engine::Params;
use aitf_netsim::SimDuration;
use aitf_packet::{Addr, TrafficClass};

use crate::stream::{CountMinSketch, Reservoir, TopK};
use crate::topology::{BuiltWorld, Role, Side};

/// A hook that runs once after the world is built, before the first
/// simulated event — the place to install streaming taps on hosts.
pub type SetupProbe = Box<dyn FnOnce(&mut BuiltWorld)>;

/// An end-of-run metric extractor. May append several related metrics.
pub type EndProbe = Box<dyn FnOnce(&BuiltWorld, &mut Params)>;

/// A per-bin series sampler.
pub struct SampledProbe {
    /// Metric name the series is emitted under (conventionally
    /// `_series_*`, which keeps it JSON-only).
    pub name: &'static str,
    /// Whether the series itself lands in the metrics (summarizers can
    /// read it either way).
    pub emit: bool,
    pub(crate) sample: Box<dyn FnMut(&BuiltWorld) -> f64>,
}

/// Reduces sampled series to scalar metrics after the run.
pub type Summarizer = Box<dyn FnOnce(&SeriesStore, &mut Params)>;

/// The sampled series of one run: a shared time axis plus one value
/// vector per sampled probe.
#[derive(Debug, Default)]
pub struct SeriesStore {
    /// Simulated seconds at the end of each bin.
    pub time_s: Vec<f64>,
    pub(crate) series: Vec<(&'static str, Vec<f64>)>,
}

impl SeriesStore {
    /// The series sampled under `name`.
    ///
    /// # Panics
    ///
    /// Panics if no sampled probe has that name.
    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("no sampled series named {name:?}"))
    }

    /// Mean of a series over bins whose time is in `[from, to)` seconds.
    ///
    /// Returns `None` when the window contains no samples — an empty
    /// window is "no data", not "zero", and a silent `0.0` once read as a
    /// perfectly-quelled attack in a window that was never sampled.
    /// Metric emitters follow the [`ProbeSet::time_to_block`] convention
    /// and record `None` as `-1`.
    pub fn window_mean(&self, name: &str, from: f64, to: f64) -> Option<f64> {
        let values = self.series(name);
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&t, &v) in self.time_s.iter().zip(values) {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Simulated time of the first bin where the series satisfies `pred`,
    /// if any.
    pub fn first_time(&self, name: &str, mut pred: impl FnMut(f64) -> bool) -> Option<f64> {
        let values = self.series(name);
        self.time_s
            .iter()
            .zip(values)
            .find(|&(_, &v)| pred(v))
            .map(|(&t, _)| t)
    }
}

/// Parameters of the constant-memory victim stream probe
/// ([`ProbeSet::streaming_victim`]). The defaults bound the probe to a
/// few hundred KiB regardless of how many sources hit the victim.
#[derive(Debug, Clone, Copy)]
pub struct StreamProbeConfig {
    /// Count-min sketch counters per row (rounded up to a power of two);
    /// the estimate error bound is `≈ e/width · packets`.
    pub sketch_width: usize,
    /// Count-min sketch rows (independent hash functions).
    pub sketch_depth: usize,
    /// Heavy-hitter sources tracked and emitted.
    pub top_k: usize,
    /// Reservoir capacity for the packet-size distribution.
    pub reservoir: usize,
    /// Seed for the sketch hash families and the reservoir sequence.
    pub seed: u64,
}

impl Default for StreamProbeConfig {
    fn default() -> Self {
        StreamProbeConfig {
            sketch_width: 2048,
            sketch_depth: 4,
            top_k: 16,
            reservoir: 512,
            seed: 0,
        }
    }
}

/// The streaming aggregator [`ProbeSet::streaming_victim`] hangs off the
/// victim host: O(1) per delivered packet, O(config) memory — it never
/// materializes per-source state no matter how many sources exist.
///
/// Both sketches share one hash layout (same width/depth/seed), so the
/// attack-class estimate for a key can never exceed its all-traffic
/// estimate: per-slot, the attack rows see a subset of the adds.
pub struct VictimStreamTap {
    pkts: CountMinSketch,
    attack_pkts: CountMinSketch,
    top: TopK,
    sizes: Reservoir,
}

impl VictimStreamTap {
    /// Builds the aggregator for `cfg`.
    pub fn new(cfg: StreamProbeConfig) -> Self {
        VictimStreamTap {
            pkts: CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth, cfg.seed),
            attack_pkts: CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth, cfg.seed),
            top: TopK::new(cfg.top_k),
            sizes: Reservoir::new(cfg.reservoir, cfg.seed),
        }
    }

    /// Heavy-hitter sources, heaviest first: `(raw address, estimated
    /// packets)`.
    pub fn heavy_hitters(&self) -> Vec<(u64, u64)> {
        self.top.ranked()
    }

    /// Estimated attack-class packets from a (raw-address) key.
    pub fn attack_estimate(&self, key: u64) -> u64 {
        self.attack_pkts.estimate(key)
    }

    /// Exact total of tapped data packets.
    pub fn total_pkts(&self) -> u64 {
        self.pkts.total()
    }

    /// Exact total of tapped attack-class packets.
    pub fn total_attack_pkts(&self) -> u64 {
        self.attack_pkts.total()
    }

    /// The packet-size sample (quantiles, mean).
    pub fn sizes(&self) -> &Reservoir {
        &self.sizes
    }

    /// Bytes held by every streaming structure — constant for a fixed
    /// config, which is what the CI memory gate pins.
    pub fn footprint_bytes(&self) -> usize {
        self.pkts.footprint_bytes()
            + self.attack_pkts.footprint_bytes()
            + self.top.footprint_bytes()
            + self.sizes.footprint_bytes()
    }
}

impl RxTap for VictimStreamTap {
    #[inline]
    fn on_rx(&mut self, src: Addr, class: TrafficClass, size_bytes: u32) {
        let key = src.raw() as u64;
        self.pkts.add(key, 1);
        if class == TrafficClass::Attack {
            self.attack_pkts.add(key, 1);
        }
        let est = self.pkts.estimate(key);
        self.top.offer(key, est);
        self.sizes.offer(size_bytes as f64);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The measurement plan of a scenario.
#[derive(Default)]
pub struct ProbeSet {
    pub(crate) setup: Vec<SetupProbe>,
    pub(crate) end: Vec<EndProbe>,
    pub(crate) sample_bin: Option<SimDuration>,
    pub(crate) sampled: Vec<SampledProbe>,
    pub(crate) summarizers: Vec<Summarizer>,
}

impl ProbeSet {
    /// An empty probe set (the scenario still reports simulator events).
    pub fn new() -> Self {
        ProbeSet::default()
    }

    /// Appends a setup hook, run by [`crate::Scenario::run`] after the
    /// world is built and the workload installed, before any simulated
    /// event — including churn scheduled at `t = 0`. Experiments driving
    /// [`crate::Scenario::build`] by hand must apply their own hooks.
    pub fn setup(mut self, f: impl FnOnce(&mut BuiltWorld) + 'static) -> Self {
        self.setup.push(Box::new(f));
        self
    }

    /// Appends a bespoke end probe.
    pub fn end(mut self, f: impl FnOnce(&BuiltWorld, &mut Params) + 'static) -> Self {
        self.end.push(Box::new(f));
        self
    }

    /// Standard streaming probe: installs a [`VictimStreamTap`] on the
    /// victim host at setup and emits its aggregates at end of run —
    /// O(1) work per delivered packet and O(`cfg`) memory however large
    /// the world or the attack. Metrics, in order:
    ///
    /// - `hh_srcs` / `hh_pkts` — heavy-hitter raw source addresses and
    ///   their estimated packet counts, heaviest first (u64 lists);
    /// - `hh_attack_pkts` — the attack-class estimate per heavy hitter,
    ///   the flash-crowd-vs-zombie discrimination signal (u64 list);
    /// - `hh_attack_frac` — attack share of heavy-hitter traffic
    ///   (−1 when the victim received nothing);
    /// - `rx_size_p50` / `rx_size_p95` — delivered-packet size quantiles
    ///   from the reservoir (−1 when empty);
    /// - `probe_bytes` — bytes held by the streaming structures, the
    ///   metric the CI memory gate pins flat across world sizes.
    ///
    /// # Panics
    ///
    /// The setup hook panics if the topology declares no victim host.
    pub fn streaming_victim(self, cfg: StreamProbeConfig) -> Self {
        self.setup(move |w| {
            let victim = w.victim();
            w.world
                .host_mut(victim)
                .set_rx_tap(Box::new(VictimStreamTap::new(cfg)));
        })
        .end(|w, m| {
            let tap = w
                .world
                .host(w.victim())
                .rx_tap()
                .and_then(|t| t.as_any().downcast_ref::<VictimStreamTap>())
                .expect("streaming_victim installed its tap at setup");
            let ranked = tap.heavy_hitters();
            m.set(
                "hh_srcs",
                ranked.iter().map(|&(k, _)| k).collect::<Vec<u64>>(),
            );
            m.set(
                "hh_pkts",
                ranked.iter().map(|&(_, c)| c).collect::<Vec<u64>>(),
            );
            let attack: Vec<u64> = ranked
                .iter()
                .map(|&(k, _)| tap.attack_estimate(k))
                .collect();
            let hh_total: u64 = ranked.iter().map(|&(_, c)| c).sum();
            let hh_attack: u64 = attack.iter().sum();
            m.set("hh_attack_pkts", attack);
            m.set(
                "hh_attack_frac",
                if hh_total == 0 {
                    -1.0
                } else {
                    hh_attack as f64 / hh_total as f64
                },
            );
            let quantile = |q| tap.sizes().quantile(q).unwrap_or(-1.0);
            m.set("rx_size_p50", quantile(0.5));
            m.set("rx_size_p95", quantile(0.95));
            m.set("probe_bytes", tap.footprint_bytes() as u64);
        })
    }

    /// Standard probe: the victim's attack leak ratio — attack bytes
    /// *received* over attack bytes *offered* by the [`Role::Attacker`]
    /// hosts; the measured counterpart of the paper's effective-bandwidth
    /// reduction factor `r`.
    pub fn leak_ratio(self, name: &'static str) -> Self {
        self.end(move |w, m| m.set(name, leak_ratio(w)))
    }

    /// Standard probe: fraction of the legitimate bytes offered by
    /// [`Role::Legit`] hosts that reached the victim.
    pub fn legit_delivery(self, name: &'static str) -> Self {
        self.end(move |w, m| {
            let offered: u64 = w
                .hosts_with(Role::Legit)
                .iter()
                .map(|&h| w.world.host(h).counters().tx_bytes)
                .sum();
            let received = w.world.host(w.victim()).counters().rx_legit_bytes;
            let frac = if offered == 0 {
                0.0
            } else {
                received as f64 / offered as f64
            };
            m.set(name, frac);
        })
    }

    /// Standard probe: peak wire-speed filter occupancy at a named
    /// network's border router.
    pub fn peak_filters(self, name: &'static str, net: &'static str) -> Self {
        self.end(move |w, m| {
            let peak = w.world.router(w.net(net)).filters().stats().peak_occupancy;
            m.set(name, peak);
        })
    }

    /// Standard probe: peak DRAM shadow occupancy at a named network's
    /// border router.
    pub fn peak_shadows(self, name: &'static str, net: &'static str) -> Self {
        self.end(move |w, m| {
            let peak = w.world.router(w.net(net)).shadow().stats().peak_occupancy;
            m.set(name, peak);
        })
    }

    /// Standard probe: long-term filters installed, summed over a side's
    /// border routers.
    pub fn filters_installed_on(self, name: &'static str, side: Side) -> Self {
        self.end(move |w, m| {
            let total: u64 = w
                .nets_on(side)
                .iter()
                .map(|&n| w.world.router(n).counters().filters_installed)
                .sum();
            m.set(name, total);
        })
    }

    /// Enables sampling: the scenario runs in `bin`-sized steps and every
    /// sampled probe records one value per bin.
    pub fn bin(mut self, bin: SimDuration) -> Self {
        self.sample_bin = Some(bin);
        self
    }

    /// Appends a sampled series probe; `emit` controls whether the series
    /// lands in the metrics (as an `_series_*`-style float list).
    pub fn sampled(
        mut self,
        name: &'static str,
        emit: bool,
        f: impl FnMut(&BuiltWorld) -> f64 + 'static,
    ) -> Self {
        self.sampled.push(SampledProbe {
            name,
            emit,
            sample: Box::new(f),
        });
        self
    }

    /// Standard sampled probe: live filter count at a named network's
    /// border router.
    pub fn sampled_filter_occupancy(
        self,
        name: &'static str,
        net: &'static str,
        emit: bool,
    ) -> Self {
        self.sampled(name, emit, move |w| {
            w.world.router(w.net(net)).filters().len() as f64
        })
    }

    /// Standard sampled probe: per-bin delivered bandwidth at the victim
    /// in Mbit/s, from a per-class byte counter (stateful delta). The
    /// rate divides by the simulated time since the previous sample, so
    /// it stays correct for whatever [`ProbeSet::bin`] is in force.
    pub fn sampled_victim_mbps(
        self,
        name: &'static str,
        emit: bool,
        counter: impl Fn(&BuiltWorld) -> u64 + 'static,
    ) -> Self {
        let mut last_bytes = 0u64;
        let mut last_t = 0.0f64;
        self.sampled(name, emit, move |w| {
            let now_bytes = counter(w);
            let now_t = w.world.sim.now().as_secs_f64();
            let bits = (now_bytes - last_bytes) as f64 * 8.0;
            let secs = now_t - last_t;
            last_bytes = now_bytes;
            last_t = now_t;
            if secs > 0.0 {
                bits / secs / 1e6
            } else {
                0.0
            }
        })
    }

    /// Appends a summarizer over the sampled series.
    pub fn summarize(mut self, f: impl FnOnce(&SeriesStore, &mut Params) + 'static) -> Self {
        self.summarizers.push(Box::new(f));
        self
    }

    /// Standard summarizer: time from `after` until the first sample at
    /// or past `after` where the named series is positive — the
    /// scenario's time-to-block when pointed at a filter-occupancy
    /// series. Samples before `after` are ignored entirely (a filter
    /// already live when the measured attack starts still counts from
    /// `after`). Emits `-1` when the series never crosses.
    pub fn time_to_block(self, name: &'static str, series: &'static str, after: f64) -> Self {
        self.summarize(move |s, m| {
            let t = s
                .time_s
                .iter()
                .zip(s.series(series))
                .find(|&(&t, &v)| t >= after && v > 0.0)
                .map_or(-1.0, |(&t, _)| t - after);
            m.set(name, t);
        })
    }
}

/// The victim's attack-leak ratio (see [`ProbeSet::leak_ratio`]).
pub fn leak_ratio(w: &BuiltWorld) -> f64 {
    let offered: u64 = w
        .hosts_with(Role::Attacker)
        .iter()
        .map(|&h| w.world.host(h).counters().tx_bytes)
        .sum();
    if offered == 0 {
        return 0.0;
    }
    w.world.host(w.victim()).counters().rx_attack_bytes as f64 / offered as f64
}

/// Offered bytes so far by one host — a building block for bespoke
/// ratio probes.
pub fn offered_bytes(w: &BuiltWorld, host: HostId) -> u64 {
    w.world.host(host).counters().tx_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_store_window_mean_and_first_time() {
        let store = SeriesStore {
            time_s: vec![0.5, 1.0, 1.5, 2.0],
            series: vec![("x", vec![0.0, 2.0, 4.0, 0.0])],
        };
        assert_eq!(store.window_mean("x", 1.0, 2.0), Some(3.0));
        assert_eq!(store.first_time("x", |v| v > 0.0), Some(1.0));
        assert_eq!(store.first_time("x", |v| v > 10.0), None);
    }

    #[test]
    fn empty_window_mean_is_none_not_zero() {
        // Regression: a window past the sampled horizon used to read as
        // 0.0 — indistinguishable from a genuinely-zero series. It must
        // be `None` so callers are forced to map it to the -1 sentinel.
        let store = SeriesStore {
            time_s: vec![0.5, 1.0],
            series: vec![("x", vec![2.0, 4.0])],
        };
        assert_eq!(store.window_mean("x", 5.0, 6.0), None);
        assert_eq!(store.window_mean("x", 1.0, 1.0), None, "[from, from)");
        assert_eq!(
            store.window_mean("x", 0.0, 2.0),
            Some(3.0),
            "full window intact"
        );
    }

    #[test]
    #[should_panic(expected = "no sampled series")]
    fn missing_series_panics() {
        let store = SeriesStore::default();
        let _ = store.series("nope");
    }

    #[test]
    fn time_to_block_counts_from_after_even_if_already_positive() {
        // A filter live since t=1.0 and an attack measured from t=1.5:
        // the block time is the first sample at/past `after`, not "never".
        let store = SeriesStore {
            time_s: vec![1.0, 2.0, 3.0],
            series: vec![("f", vec![1.0, 1.0, 1.0]), ("g", vec![0.0, 0.0, 0.0])],
        };
        let probes = ProbeSet::new()
            .time_to_block("blocked_at", "f", 1.5)
            .time_to_block("never", "g", 1.5);
        let mut m = Params::new();
        for summarize in probes.summarizers {
            summarize(&store, &mut m);
        }
        assert_eq!(m.f64("blocked_at"), 0.5);
        assert_eq!(m.f64("never"), -1.0);
    }
}
