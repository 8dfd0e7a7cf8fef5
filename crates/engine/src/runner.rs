//! The deterministic parallel sweep runner.
//!
//! All points of all requested specs go into one flat job list; a pool of
//! `std::thread` workers pulls jobs off an atomic cursor. Each job's RNG
//! seed is derived purely from `(base_seed, experiment id, point index)`,
//! and results land in pre-indexed slots, so the output is **bit-identical
//! at any thread count** — only wall time changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::record::RunRecord;
use crate::spec::{RunCtx, ScenarioSpec};

/// Sweep executor with a fixed worker count.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
    base_seed: u64,
    shards: usize,
}

/// The default base seed for sweeps (`--seed` overrides it in the driver).
pub const DEFAULT_BASE_SEED: u64 = 42;

impl Default for Runner {
    fn default() -> Self {
        Runner::new(available_threads())
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Runner {
    /// A runner with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            base_seed: DEFAULT_BASE_SEED,
            shards: 1,
        }
    }

    /// Sets the base seed all point seeds derive from.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Asks every point's scenarios to run as `shards` event-loop shards
    /// (clamped to at least 1). Like the thread count, this is pure
    /// execution strategy — records are bit-identical at any value.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one spec's sweep; records come back in point order.
    pub fn run(&self, spec: &ScenarioSpec) -> Vec<RunRecord> {
        self.run_all(std::slice::from_ref(spec))
            .pop()
            .expect("one spec in, one record set out")
    }

    /// Runs many specs as one flat job pool (maximum parallelism across
    /// experiment boundaries); records come back grouped by spec, each
    /// group in point order.
    pub fn run_all(&self, specs: &[ScenarioSpec]) -> Vec<Vec<RunRecord>> {
        // Flatten (spec, point) into one job list.
        let jobs: Vec<(usize, usize)> = specs
            .iter()
            .enumerate()
            .flat_map(|(s, spec)| (0..spec.points.len()).map(move |p| (s, p)))
            .collect();
        let slots: Vec<Mutex<Option<RunRecord>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        let workers = self.threads.min(jobs.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, p)) = jobs.get(i) else { break };
                    let spec = &specs[s];
                    let ctx = RunCtx {
                        seed: spec.seed_for(self.base_seed, p),
                        shards: self.shards,
                    };
                    // detlint::allow(wall-clock): wall_secs telemetry on the record — excluded from deterministic_eq
                    let start = Instant::now();
                    let outcome = (spec.run)(&spec.points[p], &ctx);
                    let record = RunRecord {
                        experiment: spec.id,
                        index: p,
                        seed: ctx.seed,
                        params: spec.points[p].clone(),
                        metrics: outcome.metrics,
                        events: outcome.events,
                        wall_secs: start.elapsed().as_secs_f64(),
                        shards: self.shards,
                        trace: outcome.trace,
                        defense: outcome.defense,
                    };
                    *slots[i].lock().expect("result slot poisoned") = Some(record);
                });
            }
        });

        // Regroup by spec, preserving point order.
        let mut out: Vec<Vec<RunRecord>> = specs.iter().map(|_| Vec::new()).collect();
        for (&(s, _), slot) in jobs.iter().zip(slots) {
            let record = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every job ran to completion");
            out[s].push(record);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::spec::Outcome;

    /// A cheap, seed-sensitive spec: metrics depend on params and seed in a
    /// way any scheduling bug would scramble.
    fn toy_spec(points: usize) -> ScenarioSpec {
        ScenarioSpec::new("toy_sweep", "toy", "§test")
            .points((0..points).map(|i| Params::new().with("i", i)))
            .runner(|params, ctx| {
                let i = params.u64("i");
                Outcome::new(
                    Params::new()
                        .with("mix", ctx.seed.wrapping_mul(i + 1))
                        .with("ratio", (i as f64 + 1.0) / 7.0),
                )
                .with_events(i * 10)
            })
    }

    #[test]
    fn records_come_back_in_point_order() {
        let recs = Runner::new(4).run(&toy_spec(32));
        assert_eq!(recs.len(), 32);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.params.u64("i"), i as u64);
            assert_eq!(r.events, i as u64 * 10);
        }
    }

    #[test]
    fn thread_count_does_not_change_records() {
        let spec = toy_spec(40);
        let one = Runner::new(1).run(&spec);
        let eight = Runner::new(8).run(&spec);
        assert_eq!(one.len(), eight.len());
        for (a, b) in one.iter().zip(&eight) {
            assert!(a.deterministic_eq(b), "{a:?} != {b:?}");
        }
    }

    #[test]
    fn base_seed_changes_seeds_but_not_shape() {
        let spec = toy_spec(4);
        let a = Runner::new(2).base_seed(1).run(&spec);
        let b = Runner::new(2).base_seed(2).run(&spec);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn run_all_pools_jobs_across_specs() {
        let specs = vec![toy_spec(3), toy_spec(5)];
        let grouped = Runner::new(8).run_all(&specs);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].len(), 3);
        assert_eq!(grouped[1].len(), 5);
    }

    #[test]
    fn zero_threads_is_clamped() {
        assert_eq!(Runner::new(0).threads(), 1);
        let recs = Runner::new(0).run(&toy_spec(2));
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn empty_spec_produces_no_records() {
        let spec = ScenarioSpec::new("empty", "t", "p").runner(|_, _| unreachable!());
        assert!(Runner::new(2).run(&spec).is_empty());
    }
}
