//! Host-speed calibration.
//!
//! The reference machine is a shared 2-vCPU VM: its speed drifts by 20%
//! and more over minutes as other tenants come and go, so two runs of the
//! same code a minute apart can differ by more than any bound worth
//! gating on. Every timed round therefore also times a fixed kernel that
//! is part of this program, not of the simulator: ordered-map churn, which
//! like the simulator is bound by branches, pointer chasing and small
//! allocations, and which of the kernels tried tracks the simulator's
//! slowdowns most closely. Round times are scaled by
//! [`REFERENCE_S`] over the kernel's median time in that round, i.e.
//! reported as they would read on a host where the kernel takes
//! [`REFERENCE_S`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference machine (2 vCPUs, uncontended), seconds.
pub const REFERENCE_S: f64 = 0.020;

/// Map operations per kernel run.
const OPS: u64 = 100_000;

/// Inserts and removes pseudo-random keys in a fresh ordered map.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..OPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = state % 200_000;
        if let Some(old) = map.insert(key, state) {
            acc ^= old;
        }
        if state & 3 == 0 {
            map.remove(&(key ^ 1));
        }
    }
    acc ^ map.len() as u64
}

/// Runs the kernel once on each of `threads` threads at the same time
/// (one per CPU the workload keeps busy) and returns the mean seconds.
#[must_use]
pub fn sample(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let t = Instant::now();
                    black_box(kernel());
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().expect("the kernel does not panic")).sum()
    });
    total / threads as f64
}
