//! Filtering-contract rate policing.
//!
//! Section II-B: *"These contracts limit the rates by which the AD can
//! send/receive filtering requests to/from its end-hosts and peering ADs.
//! The limited rates allow the receiving router to police the requests to
//! the specified rates and indiscriminately drop requests when the rate is
//! in excess of the agreed rate."*
//!
//! [`TokenBucket`] is the policer for one contract; [`RateLimiterBank`]
//! holds one bucket per end-host / peering interface. Arithmetic is pure
//! integer (micro-tokens) so policing is bit-deterministic.

use std::collections::HashMap;

use aitf_netsim::SimTime;
use aitf_packet::FoldHash;

/// Micro-tokens per request.
const TOKEN: u64 = 1_000_000;

/// A deterministic token bucket.
///
/// The bucket holds up to `burst` whole tokens and refills continuously at
/// `rate` tokens per second. Each admitted request costs one token.
///
/// # Examples
///
/// ```
/// use aitf_filter::TokenBucket;
/// use aitf_netsim::{SimDuration, SimTime};
///
/// // R1 = 2 requests/second with a burst of 2.
/// let mut tb = TokenBucket::new(2.0, 2);
/// let t0 = SimTime::ZERO;
/// assert!(tb.try_acquire(t0));
/// assert!(tb.try_acquire(t0));
/// assert!(!tb.try_acquire(t0), "burst exhausted");
/// // Half a second refills one token at 2/s.
/// assert!(tb.try_acquire(t0 + SimDuration::from_millis(500)));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate in micro-tokens per second.
    rate_micro_per_s: u64,
    /// Capacity in micro-tokens.
    capacity_micro: u64,
    /// Current level in micro-tokens.
    tokens_micro: u64,
    /// Sub-micro-token refill carry, in units of `ns * rate_micro_per_s`.
    carry: u64,
    last_refill: SimTime,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests dropped by policing.
    pub dropped: u64,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate_per_sec` with capacity `burst`
    /// tokens. The bucket starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is negative or not finite, or `burst` is 0.
    pub fn new(rate_per_sec: f64, burst: u32) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec >= 0.0,
            "rate must be finite and non-negative: {rate_per_sec}"
        );
        assert!(burst > 0, "burst must be at least 1");
        let capacity_micro = burst as u64 * TOKEN;
        TokenBucket {
            rate_micro_per_s: (rate_per_sec * TOKEN as f64).round() as u64,
            capacity_micro,
            tokens_micro: capacity_micro,
            carry: 0,
            last_refill: SimTime::ZERO,
            admitted: 0,
            dropped: 0,
        }
    }

    /// The configured refill rate, tokens per second.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_micro_per_s as f64 / TOKEN as f64
    }

    /// The burst capacity in whole tokens.
    pub fn burst(&self) -> u32 {
        (self.capacity_micro / TOKEN) as u32
    }

    /// Whole tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: SimTime) -> u32 {
        self.refill(now);
        (self.tokens_micro / TOKEN) as u32
    }

    /// Tries to admit one request at `now`; returns `true` on admission.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens_micro >= TOKEN {
            self.tokens_micro -= TOKEN;
            self.admitted += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let elapsed_ns = now.since(self.last_refill).as_nanos();
        self.last_refill = now;
        // Exact arithmetic: accumulate `ns * rate` and carry the remainder
        // of the division by 1e9, so sub-token refills are never lost no
        // matter how often the bucket is polled. u128 avoids overflow.
        let product = elapsed_ns as u128 * self.rate_micro_per_s as u128 + self.carry as u128;
        let add = (product / 1_000_000_000) as u64;
        self.carry = (product % 1_000_000_000) as u64;
        self.tokens_micro = (self.tokens_micro + add).min(self.capacity_micro);
        if self.tokens_micro == self.capacity_micro {
            // A full bucket does not bank extra credit.
            self.carry = 0;
        }
    }
}

/// One token bucket per contract party (end-host or peering interface).
///
/// Keys are opaque `u64`s — the protocol layer uses link ids or host
/// addresses. A key's bucket is made (full) by its first request, at the
/// default contract installed at construction unless
/// [`RateLimiterBank::set_contract`] made it first.
#[derive(Debug)]
pub struct RateLimiterBank {
    default_rate: f64,
    default_burst: u32,
    buckets: HashMap<u64, TokenBucket, FoldHash>,
}

impl RateLimiterBank {
    /// Creates a bank whose unset keys get `(default_rate, default_burst)`.
    pub fn new(default_rate: f64, default_burst: u32) -> Self {
        RateLimiterBank {
            default_rate,
            default_burst,
            buckets: HashMap::default(),
        }
    }

    /// Installs an explicit contract for `key`: a fresh, full bucket,
    /// replacing any the key already had. A bucket is full whenever it is
    /// made, so a caller can leave this until `key`'s first request.
    pub fn set_contract(&mut self, key: u64, rate_per_sec: f64, burst: u32) {
        self.buckets
            .insert(key, TokenBucket::new(rate_per_sec, burst));
    }

    /// Polices one request from `key` at `now`.
    pub fn try_acquire(&mut self, key: u64, now: SimTime) -> bool {
        let (rate, burst) = (self.default_rate, self.default_burst);
        self.buckets
            .entry(key)
            .or_insert_with(|| TokenBucket::new(rate, burst))
            .try_acquire(now)
    }

    /// Read-only view of the bucket for `key`, if it ever policed traffic
    /// or was given an explicit contract.
    pub fn bucket(&self, key: u64) -> Option<&TokenBucket> {
        self.buckets.get(&key)
    }

    /// Number of distinct parties this bank currently tracks — per-party
    /// token state is defense footprint, the same way filter entries are.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the bank has policed anyone yet.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_netsim::SimDuration;

    fn t_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn burst_then_steady_rate() {
        let mut tb = TokenBucket::new(10.0, 5);
        // Burst of 5 at t=0.
        for _ in 0..5 {
            assert!(tb.try_acquire(SimTime::ZERO));
        }
        assert!(!tb.try_acquire(SimTime::ZERO));
        // At 10/s, one token every 100 ms.
        assert!(tb.try_acquire(t_ms(100)));
        assert!(!tb.try_acquire(t_ms(150)));
        assert!(tb.try_acquire(t_ms(200)));
    }

    #[test]
    fn long_term_rate_is_respected() {
        // Offer requests at 100/s against a 10/s contract for 10 s:
        // ~100 + burst admitted.
        let mut tb = TokenBucket::new(10.0, 1);
        let mut admitted = 0;
        for i in 0..1000u64 {
            if tb.try_acquire(t_ms(i * 10)) {
                admitted += 1;
            }
        }
        // 10 s * 10/s = 100, plus the initial burst token.
        assert!((100..=101).contains(&admitted), "admitted {admitted}");
        assert_eq!(tb.admitted, admitted);
        assert_eq!(tb.dropped, 1000 - admitted);
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 0.5 tokens/s: an attempt every second admits every other time.
        let mut tb = TokenBucket::new(0.5, 1);
        assert!(tb.try_acquire(t_ms(0))); // Initial burst.
        let mut admitted = 0;
        for s in 1..=20u64 {
            if tb.try_acquire(t_ms(s * 1000)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10, "0.5/s over 20 s admits 10");
    }

    #[test]
    fn sub_token_remainders_not_lost_under_fast_polling() {
        // Poll every 1 ms against a 1/s contract through t = 5 s: exactly 5
        // refill tokens (plus the initial burst) must be admitted, even
        // though each 1 ms interval refills only 0.001 tokens.
        let mut tb = TokenBucket::new(1.0, 1);
        let mut admitted = 0;
        for ms in 0..=5_000u64 {
            if tb.try_acquire(t_ms(ms)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 5 + 1);
    }

    #[test]
    fn zero_rate_admits_only_burst() {
        let mut tb = TokenBucket::new(0.0, 3);
        assert!(tb.try_acquire(t_ms(0)));
        assert!(tb.try_acquire(t_ms(1000)));
        assert!(tb.try_acquire(t_ms(100_000)));
        assert!(!tb.try_acquire(t_ms(1_000_000)));
    }

    #[test]
    fn available_reports_refilled_level() {
        let mut tb = TokenBucket::new(2.0, 4);
        assert_eq!(tb.available(SimTime::ZERO), 4);
        for _ in 0..4 {
            tb.try_acquire(SimTime::ZERO);
        }
        assert_eq!(tb.available(SimTime::ZERO), 0);
        assert_eq!(tb.available(t_ms(1000)), 2);
        assert_eq!(tb.available(t_ms(10_000)), 4, "capped at burst");
    }

    #[test]
    #[should_panic(expected = "burst must be at least 1")]
    fn zero_burst_rejected() {
        let _ = TokenBucket::new(1.0, 0);
    }

    #[test]
    fn bank_separates_keys() {
        let mut bank = RateLimiterBank::new(1.0, 1);
        assert!(bank.try_acquire(1, SimTime::ZERO));
        assert!(!bank.try_acquire(1, SimTime::ZERO));
        // A different key has its own bucket.
        assert!(bank.try_acquire(2, SimTime::ZERO));
    }

    #[test]
    fn bank_explicit_contract_overrides_default() {
        let mut bank = RateLimiterBank::new(1.0, 1);
        bank.set_contract(7, 100.0, 10);
        for _ in 0..10 {
            assert!(bank.try_acquire(7, SimTime::ZERO));
        }
        assert!(!bank.try_acquire(7, SimTime::ZERO));
        assert_eq!(bank.bucket(7).unwrap().burst(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aitf_netsim::SimDuration;
    use proptest::prelude::*;

    proptest! {
        /// Conformance: over any offered pattern, admissions never exceed
        /// `burst + rate * elapsed` (the token-bucket envelope).
        #[test]
        fn admissions_respect_envelope(
            gaps_ms in proptest::collection::vec(0u64..500, 1..300),
            rate in 1u32..50,
            burst in 1u32..10,
        ) {
            let mut tb = TokenBucket::new(rate as f64, burst);
            let mut now = SimTime::ZERO;
            let mut admitted = 0u64;
            for gap in gaps_ms {
                now += SimDuration::from_millis(gap);
                if tb.try_acquire(now) {
                    admitted += 1;
                }
                let envelope = burst as f64 + rate as f64 * now.as_secs_f64();
                prop_assert!(
                    (admitted as f64) <= envelope + 1e-6,
                    "admitted {} > envelope {}", admitted, envelope
                );
            }
        }

        /// Work conservation: a fully spaced-out offered load at or below
        /// the contract rate is never dropped. The period is rounded *up*
        /// so the offered rate never exceeds the contract.
        #[test]
        fn compliant_load_never_dropped(
            n in 1u64..100,
            rate in 1u32..20,
        ) {
            let mut tb = TokenBucket::new(rate as f64, 1);
            let period_ns = 1_000_000_000u64.div_ceil(rate as u64);
            for i in 0..n {
                let now = SimTime(i * period_ns);
                prop_assert!(tb.try_acquire(now), "request {} dropped", i);
            }
        }
    }
}
