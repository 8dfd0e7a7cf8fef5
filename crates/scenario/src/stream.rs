//! Streaming, constant-memory aggregation primitives for probes.
//!
//! At the 100k–1M-net scale the measurement layer must not materialize
//! per-flow or per-host state: a probe that keeps a `HashMap<Addr, u64>`
//! of per-source byte counts grows with the attack, which is exactly the
//! failure mode the paper says a border router avoids. The three
//! primitives here are all O(1) per event and O(parameters) in memory,
//! deterministic for a given seed, and allocation-free after
//! construction (the trace-build zero-alloc pin applies to them):
//!
//! - [`CountMinSketch`] — per-key counts with a one-sided error bound:
//!   `estimate(k) >= true(k)` always, and
//!   `estimate(k) <= true(k) + ε·total` with high probability, where
//!   `ε ≈ e / width`.
//! - [`TopK`] — the heavy-hitter ranking fed by sketch estimates; O(k)
//!   per update, exact on the ranking whenever the sketch error is below
//!   the gap between the k-th and (k+1)-th flow.
//! - [`Reservoir`] — a fixed-size uniform sample for distributional
//!   metrics (quantiles, means) over an unbounded value stream
//!   (Vitter's Algorithm R with a SplitMix64 sequence).
//!
//! Every primitive reports [`footprint_bytes`](CountMinSketch::footprint_bytes)
//! so scenarios can emit their probe memory as a metric and CI can gate
//! on it staying flat as the world grows.

use aitf_engine::splitmix;

/// A count-min sketch: `depth` rows of `width` counters, each row hashed
/// with an independent seeded mix.
///
/// # Examples
///
/// ```
/// use aitf_scenario::stream::CountMinSketch;
///
/// let mut cms = CountMinSketch::new(1024, 4, 7);
/// cms.add(42, 10);
/// cms.add(42, 5);
/// assert!(cms.estimate(42) >= 15);
/// assert_eq!(cms.total(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Power-of-two row width (the requested width rounded up).
    width: usize,
    /// Per-row hash seeds, derived from the constructor seed.
    row_seeds: Vec<u64>,
    /// `depth × width` counters, row-major.
    rows: Vec<u64>,
    /// Total count added (the `N` of the ε·N error bound).
    total: u64,
}

impl CountMinSketch {
    /// Builds a sketch of at least `width` counters per row and `depth`
    /// rows, hashing with a deterministic sequence derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "sketch needs width > 0, depth > 0");
        let width = width.next_power_of_two();
        let row_seeds: Vec<u64> = (0..depth)
            .map(|r| splitmix(seed ^ (0xC0DE_0000 + r as u64)))
            .collect();
        CountMinSketch {
            width,
            row_seeds,
            rows: vec![0; width * depth],
            total: 0,
        }
    }

    #[inline]
    fn slot(&self, row: usize, key: u64) -> usize {
        let h = splitmix(key ^ self.row_seeds[row]);
        row * self.width + (h as usize & (self.width - 1))
    }

    /// Adds `count` to `key`. O(depth), allocation-free.
    #[inline]
    pub fn add(&mut self, key: u64, count: u64) {
        for row in 0..self.row_seeds.len() {
            let s = self.slot(row, key);
            self.rows[s] += count;
        }
        self.total += count;
    }

    /// The count-min estimate for `key`: never below the true count.
    #[inline]
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.row_seeds.len())
            .map(|row| self.rows[self.slot(row, key)])
            .min()
            .expect("depth > 0")
    }

    /// Total count across all keys (exact).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The per-row width after power-of-two rounding.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Heap + inline bytes held by the sketch — constant for fixed
    /// parameters, independent of how many events were added.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.capacity() * std::mem::size_of::<u64>()
            + self.row_seeds.capacity() * std::mem::size_of::<u64>()
    }
}

/// A fixed-capacity heavy-hitter table driven by sketch estimates:
/// `offer(key, estimate)` keeps the k largest keys seen so far.
///
/// The table is exact on *membership and ranking* whenever the true k-th
/// count exceeds the sketch's error bound over the (k+1)-th — the regime
/// the proptests pin at small scale.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// `(key, estimated count)`, unsorted; `ranked()` sorts a copy.
    entries: Vec<(u64, u64)>,
}

impl TopK {
    /// A tracker for the `k` heaviest keys.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k needs k > 0");
        TopK {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Records that `key`'s running estimate is now `est`. O(k) scan,
    /// allocation-free after the table fills.
    #[inline]
    pub fn offer(&mut self, key: u64, est: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 = e.1.max(est);
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push((key, est));
            return;
        }
        let (mi, &min) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(key, est))| (est, std::cmp::Reverse(key)))
            .expect("k > 0");
        if (est, std::cmp::Reverse(key)) > (min.1, std::cmp::Reverse(min.0)) {
            self.entries[mi] = (key, est);
        }
    }

    /// The tracked heavy hitters, heaviest first (count descending, key
    /// ascending on ties — a total, deterministic order).
    pub fn ranked(&self) -> Vec<(u64, u64)> {
        let mut out = self.entries.clone();
        out.sort_by_key(|&(key, est)| (std::cmp::Reverse(est), key));
        out
    }

    /// Number of keys currently tracked (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap + inline bytes — constant for fixed `k`.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// A uniform fixed-size sample of an unbounded f64 stream (Vitter's
/// Algorithm R), deterministic for a given seed.
///
/// # Examples
///
/// ```
/// use aitf_scenario::stream::Reservoir;
///
/// let mut r = Reservoir::new(64, 3);
/// for v in 0..1000 {
///     r.offer(v as f64);
/// }
/// assert_eq!(r.len(), 64);
/// let p50 = r.quantile(0.5).expect("a non-empty sample");
/// assert!((200.0..800.0).contains(&p50), "median of 0..1000 ≈ 500, got {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    values: Vec<f64>,
}

impl Reservoir {
    /// A reservoir holding at most `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "reservoir needs cap > 0");
        Reservoir {
            cap,
            seen: 0,
            rng: splitmix(seed ^ 0x5EED_0000_0000_0001),
            values: Vec::with_capacity(cap),
        }
    }

    /// Offers one value. O(1), allocation-free after the reservoir fills
    /// (the backing vector is pre-allocated to `cap`).
    #[inline]
    pub fn offer(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
            return;
        }
        self.rng = splitmix(self.rng);
        let j = self.rng % self.seen;
        if (j as usize) < self.cap {
            self.values[j as usize] = v;
        }
    }

    /// Values offered so far (exact).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Samples currently held (≤ cap).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was offered yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the held sample; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the held sample by
    /// nearest-rank on a sorted copy; `None` when empty. Sorts a clone —
    /// an end-of-run operation, not for the per-event path.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[rank])
    }

    /// Heap + inline bytes — constant for fixed `cap`.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.values.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cms_never_underestimates_and_is_exact_when_sparse() {
        let mut cms = CountMinSketch::new(256, 4, 42);
        for key in 0..20u64 {
            cms.add(key, key + 1);
        }
        for key in 0..20u64 {
            let est = cms.estimate(key);
            assert!(est > key, "estimate below truth for {key}");
            // 20 keys in a 256-wide × 4-deep sketch: collisions in all 4
            // rows are (astronomically) unlikely under the fixed seed.
            assert_eq!(est, key + 1, "sparse sketch must be exact");
        }
        assert_eq!(cms.total(), (1..=20).sum::<u64>());
    }

    #[test]
    fn cms_is_deterministic_per_seed() {
        let mut a = CountMinSketch::new(64, 3, 9);
        let mut b = CountMinSketch::new(64, 3, 9);
        let mut c = CountMinSketch::new(64, 3, 10);
        for key in 0..500u64 {
            a.add(key * 31, 2);
            b.add(key * 31, 2);
            c.add(key * 31, 2);
        }
        for key in 0..500u64 {
            assert_eq!(a.estimate(key * 31), b.estimate(key * 31));
        }
        // A different seed shuffles the collision pattern: some estimate
        // must differ (all-equal would mean the seed is ignored).
        assert!(
            (0..500u64).any(|k| a.estimate(k * 31) != c.estimate(k * 31)),
            "seed must change the hash layout"
        );
    }

    #[test]
    fn cms_footprint_ignores_event_count() {
        let mut cms = CountMinSketch::new(1024, 4, 1);
        let before = cms.footprint_bytes();
        for i in 0..100_000u64 {
            cms.add(i, 1);
        }
        assert_eq!(cms.footprint_bytes(), before);
    }

    #[test]
    fn topk_tracks_the_heaviest_keys_in_order() {
        let mut top = TopK::new(3);
        // Keys 1..=6 with counts 10,20,..,60, offered in running-estimate
        // style (monotone per key).
        for round in 1..=10u64 {
            for key in 1..=6u64 {
                top.offer(key, key * 10 * round / 10);
            }
        }
        let ranked = top.ranked();
        assert_eq!(
            ranked.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![6, 5, 4]
        );
        assert_eq!(ranked[0].1, 60);
    }

    #[test]
    fn topk_ties_break_by_key_ascending() {
        let mut top = TopK::new(2);
        top.offer(9, 5);
        top.offer(3, 5);
        top.offer(7, 5);
        let ranked = top.ranked();
        assert_eq!(ranked, vec![(3, 5), (7, 5)], "lowest keys win ties");
    }

    #[test]
    fn reservoir_holds_everything_below_capacity() {
        let mut r = Reservoir::new(10, 1);
        for v in 0..5 {
            r.offer(v as f64);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.mean(), Some(2.0));
        assert_eq!(r.quantile(0.0), Some(0.0));
        assert_eq!(r.quantile(1.0), Some(4.0));
    }

    #[test]
    fn reservoir_is_deterministic_and_unbiased_enough() {
        let sample = |seed: u64| {
            let mut r = Reservoir::new(100, seed);
            for v in 0..10_000 {
                r.offer(v as f64);
            }
            r
        };
        let a = sample(7);
        let b = sample(7);
        assert_eq!(a.quantile(0.5), b.quantile(0.5), "same seed, same sample");
        // A uniform sample of 0..10000 has mean ≈ 5000; allow a wide band
        // (the point is "not stuck on a prefix", not statistics).
        let mean = a.mean().expect("a full reservoir");
        assert!((3000.0..7000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn empty_reservoir_reports_none() {
        let r = Reservoir::new(4, 1);
        assert_eq!(r.mean(), None);
        assert_eq!(r.quantile(0.5), None);
        assert!(r.is_empty());
    }

    #[test]
    fn reservoir_footprint_ignores_stream_length() {
        let mut r = Reservoir::new(256, 1);
        let before = {
            for v in 0..256 {
                r.offer(v as f64);
            }
            r.footprint_bytes()
        };
        for v in 0..100_000 {
            r.offer(v as f64);
        }
        assert_eq!(r.footprint_bytes(), before);
    }
}
