//! Proves the steady-state simulate-sense-react loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Each public
//! engine — the scalar `Simulator`, a 2-core `MultiCoreSimulator`, an
//! unforked 2-sibling `BatchSimulator` reading a cursor ring (whose chunks
//! are recycled, not reallocated), and a `BatchSimulator` forked into
//! six classes and stepped with a worker pool's idle probe read at every
//! window boundary — first runs a 20-window warmup, long
//! enough for every growable structure (in-flight list, fetch queue,
//! writeback scratch, cache/predictor arrays, thermal scratch, the cached LU
//! factorization, the engine's per-window scratch) to reach its steady
//! capacity. A further run of 10 sampling windows must then allocate
//! exactly as often as a 0-cycle run, which only assembles the result: the
//! windows themselves allocate nothing.
//!
//! This file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test running on another thread would
//! pollute the measured window.

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{
    BatchSimulator, FloorplanKind, MultiCoreSimulator, RunControl, SimConfig, Simulator, TaskSet,
    TraceCursor,
};
use powerbalance_workloads::spec2000;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations performed while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

const WARMUP_WINDOWS: u64 = 20;
const MEASURED_WINDOWS: u64 = 10;

/// Warms `run` up, then checks that `MEASURED_WINDOWS` windows allocate
/// exactly as often as a 0-cycle run.
fn check(engine: &str, window: u64, mut run: impl FnMut(u64)) {
    run(WARMUP_WINDOWS * window);
    let result_only = allocations_during(|| run(0));
    let measured = allocations_during(|| run(MEASURED_WINDOWS * window));
    assert_eq!(
        measured,
        result_only,
        "{engine}: {MEASURED_WINDOWS} steady-state windows allocated {} times beyond assembling \
         the result",
        measured as i64 - result_only as i64
    );
}

#[test]
fn steady_state_loop_allocates_nothing() {
    let gzip = spec2000::by_name("gzip").expect("known benchmark");
    let config = SimConfig::default();
    let window = config.sample_interval;

    let mut sim = Simulator::new(config.clone()).expect("valid config");
    let mut trace = gzip.trace(7);
    check("Simulator", window, |n| {
        sim.run(&mut trace, n);
    });
    assert!(!sim.core().is_done(), "trace must outlast the measurement");

    let two = SimConfig { cores: 2, ..config.clone() };
    let mut multi = MultiCoreSimulator::new(two).expect("valid config");
    let mut tasks = TaskSet::one_per_job([gzip.trace(7), gzip.trace(8)]);
    check("MultiCoreSimulator", window, |n| {
        multi.run(&mut tasks, n);
    });
    assert_eq!(tasks.done(), 0, "segments must outlast the measurement");

    let siblings = vec![config.clone(), config];
    let mut batch =
        BatchSimulator::new(siblings, TraceCursor::new(gzip.trace(7))).expect("eligible");
    check("BatchSimulator", window, |n| {
        batch.run(n);
    });
    assert_eq!(batch.class_count(), 1, "identical siblings never fork");

    // eon forks all six policies in the first window after its warmup.
    // Each class keeps its own generator clone: a shared cursor ring takes
    // a new chunk whenever the classes' spread grows by one, a cost of
    // the spread rather than of the window. In lockstep (above) the ring
    // reuses its one spare chunk and allocates nothing.
    let family: Vec<SimConfig> = PolicyKind::ALL
        .iter()
        .map(|&kind| experiments::policy(kind, FloorplanKind::IssueConstrained))
        .collect();
    let eon = spec2000::by_name("eon").expect("known benchmark");
    let mut forked = BatchSimulator::new(family, eon.trace(42)).expect("eligible");
    forked.run_warmup(200_000);
    let idle = AtomicBool::new(false);
    let probed = RunControl::unlimited().with_idle_probe(&idle);
    check("BatchSimulator (forked, idle probe)", window, |n| {
        forked.run_controlled(n, &probed);
    });
    assert_eq!(forked.class_count(), 6, "every policy runs its own class");
}
