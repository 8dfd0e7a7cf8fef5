//! The host-speed reference.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves by
//! 10–40 % for minutes at a time — on every workload at once, tiny and
//! single-threaded ones included, so it is the machine, not the code. A run
//! of 30 s sits inside one such period, and no statistic over its passes can
//! see past it. What can: a fixed piece of work timed right before and
//! after every pass. A pass's host times are reported *at reference speed*:
//! multiplied by [`REFERENCE_S`] over the mean of the two calibration times
//! around it.
//!
//! The kernel is this file's own code (a binary heap of 4096 timers cycled
//! 200,000 times — branchy, cache-resident, the instruction mix of an event
//! loop), so no change under `crates/` can move it, and a PR that claims a
//! gain may not touch `benchmark/`.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::splitmix;

/// What the kernel takes on the 2-core box in a quiet period. Only a scale:
/// it keeps the reported times in real seconds of that machine.
pub const REFERENCE_S: f64 = 0.016;

const TIMERS: u64 = 4096;
const CYCLES: u64 = 200_000;

pub struct Calib {
    heap: BinaryHeap<(u64, u64)>,
    z: u64,
}

impl Calib {
    /// Builds the heap and runs the kernel once, discarded, so the first
    /// timed run finds code and heap in cache like every later one.
    pub fn new() -> Self {
        let mut z = 0x00C0_FFEE;
        let mut heap = BinaryHeap::with_capacity(TIMERS as usize + 1);
        for i in 0..TIMERS {
            z = splitmix(z);
            heap.push((z >> 20, i));
        }
        let mut c = Calib { heap, z };
        c.measure();
        c
    }

    /// Times one run of the kernel, in seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut z = self.z;
        for i in 0..CYCLES {
            let (key, _) = self.heap.pop().expect("the heap keeps its size");
            z = splitmix(z);
            self.heap.push((key.wrapping_add(z >> 44), i));
        }
        self.z = black_box(z);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that takes a host time to reference speed, given what the
/// kernel took around it.
pub fn to_reference(calib_s: f64) -> f64 {
    REFERENCE_S / calib_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down_and_a_reference_host_not_at_all() {
        assert_eq!(to_reference(REFERENCE_S), 1.0);
        assert!((to_reference(REFERENCE_S * 1.25) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (mut a, mut b) = (Calib::new(), Calib::new());
        a.measure();
        b.measure();
        assert_eq!(a.z, b.z);
        assert_eq!(a.heap.len(), TIMERS as usize);
        assert_eq!(a.heap.into_sorted_vec(), b.heap.into_sorted_vec());
    }
}
