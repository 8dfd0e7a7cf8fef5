//! Streaming aggregates vs exact materialized aggregates.
//!
//! The streaming probes trade a `HashMap<key, count>` (memory ∝ distinct
//! flows) for a [`CountMinSketch`] + [`TopK`] (memory ∝ parameters) and a
//! full value vector for a [`Reservoir`]. That trade is only sound inside
//! the sketch's published contract, which these proptests pin at small
//! scale where the exact answer is cheap to materialize:
//!
//! - count-min estimates are one-sided: `exact ≤ estimate` always, and
//!   `estimate ≤ exact + ε·total` with `ε = e/width` (the classic bound;
//!   our seeds are fixed, so a violation is a code bug, not bad luck);
//! - the heavy-hitter *ranking* matches the exact ranking whenever the
//!   count gap between the k-th and (k+1)-th key exceeds the error bound
//!   — the regime every E20-style experiment is parameterized into;
//! - a reservoir below capacity **is** the exact value stream, so its
//!   mean/quantiles equal the materialized ones bit-for-bit.

use std::collections::HashMap;

use aitf_scenario::stream::{CountMinSketch, Reservoir, TopK};
use proptest::prelude::*;

/// Zipf-ish synthetic flow stream: `n_keys` keys where key `i` gets
/// `base >> min(i, 20)` packets — a heavy tail with well-separated head
/// counts (each head key has 2× its successor, far above sketch error).
fn skewed_stream(n_keys: u64, base: u64, salt: u64) -> Vec<(u64, u64)> {
    (0..n_keys)
        .map(|i| (splitmix_key(i, salt), base >> i.min(20)))
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Spreads key ids over the u64 space so slot indices are not simply
/// sequential (sequential keys would under-stress the row hashing).
fn splitmix_key(i: u64, salt: u64) -> u64 {
    aitf_engine::splitmix(i ^ (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

proptest! {
    #[test]
    fn count_min_brackets_the_exact_counts(seed in 0u64..1_000_000, n_keys in 1u64..200) {
        let stream = skewed_stream(n_keys, 1 << 16, seed);
        let mut cms = CountMinSketch::new(1024, 4, seed);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &(key, count) in &stream {
            cms.add(key, count);
            *exact.entry(key).or_default() += count;
        }
        let total: u64 = exact.values().sum();
        prop_assert_eq!(cms.total(), total);
        // ε·N with ε = e/width; width is rounded to a power of two, so
        // recompute from the sketch itself.
        let bound = (std::f64::consts::E / cms.width() as f64 * total as f64).ceil() as u64;
        for (&key, &true_count) in &exact {
            let est = cms.estimate(key);
            prop_assert!(est >= true_count, "underestimate for {}: {} < {}", key, est, true_count);
            prop_assert!(
                est <= true_count + bound,
                "estimate {} exceeds {} + bound {}",
                est, true_count, bound
            );
        }
    }

    #[test]
    fn heavy_hitter_ranking_matches_exact_ranking(seed in 0u64..1_000_000) {
        // 64 keys, counts 2^16, 2^15, …: the top-8 gaps are thousands of
        // packets while the sketch error on a 1024-wide sketch over
        // ~131k total is far smaller, so the rankings must be identical.
        let stream = skewed_stream(64, 1 << 16, seed);
        let mut cms = CountMinSketch::new(1024, 4, seed);
        let mut top = TopK::new(8);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &(key, count) in &stream {
            cms.add(key, count);
            top.offer(key, cms.estimate(key));
            *exact.entry(key).or_default() += count;
        }
        let mut truth: Vec<(u64, u64)> = exact.into_iter().collect();
        truth.sort_by_key(|&(key, count)| (std::cmp::Reverse(count), key));
        truth.truncate(8);
        let ranked = top.ranked();
        let ranked_keys: Vec<u64> = ranked.iter().map(|&(k, _)| k).collect();
        let truth_keys: Vec<u64> = truth.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(ranked_keys, truth_keys, "heavy-hitter ranking diverged");
        for (&(_, est), &(_, true_count)) in ranked.iter().zip(&truth) {
            prop_assert!(est >= true_count, "ranked estimate below truth");
        }
    }

    #[test]
    fn reservoir_below_capacity_is_exact(seed in 0u64..1_000_000, n in 1usize..256) {
        let mut r = Reservoir::new(256, seed);
        let values: Vec<f64> = (0..n).map(|i| (splitmix_key(i as u64, seed) % 1000) as f64).collect();
        for &v in &values {
            r.offer(v);
        }
        prop_assert_eq!(r.len(), n);
        let exact_mean = values.iter().sum::<f64>() / n as f64;
        prop_assert_eq!(r.mean(), Some(exact_mean), "sub-capacity reservoir must be the exact stream");
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(r.quantile(0.0), Some(sorted[0]));
        prop_assert_eq!(r.quantile(1.0), Some(sorted[n - 1]));
    }

    #[test]
    fn reservoir_over_capacity_stays_in_range_and_roughly_centered(seed in 0u64..1_000_000) {
        let mut r = Reservoir::new(128, seed);
        for i in 0..50_000u64 {
            r.offer((i % 1000) as f64);
        }
        prop_assert_eq!(r.len(), 128);
        prop_assert_eq!(r.seen(), 50_000);
        // Every sample must be a genuinely offered value, and a uniform
        // sample of a uniform stream cannot be stuck on a prefix.
        let med = r.quantile(0.5).expect("a full reservoir");
        prop_assert!((0.0..=999.0).contains(&med));
        prop_assert!((150.0..850.0).contains(&med), "median {} wildly off-center", med);
    }
}
