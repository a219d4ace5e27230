//! Select-path microbenchmarks: the priority-ordered ready scan that models
//! the serialized select trees, under static and round-robin unit ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powerbalance_uarch::{
    units_in_order, EntryState, FuPool, IqActivity, IqEntry, IssueQueue, MappingPolicy,
    RegFileWiring, UnitKind,
};

fn ready_entry(rob_id: u32, is_mem: bool) -> IqEntry {
    IqEntry {
        rob_id,
        state: EntryState::Waiting,
        src1_ready: true,
        src2_ready: true,
        src1_tag: None,
        src2_tag: None,
        is_mem,
        needs_fp_mul: false,
    }
}

fn select_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_scan");
    for ready_count in [2usize, 8, 31] {
        group.bench_with_input(BenchmarkId::from_parameter(ready_count), &ready_count, |b, &n| {
            let mut iq = IssueQueue::new(32);
            let mut act = IqActivity::default();
            for i in 0..n {
                assert!(iq.insert(ready_entry(i as u32, i % 3 == 0), &mut act));
            }
            let pool = FuPool::new(6, 4);
            let wiring = RegFileWiring::new(MappingPolicy::Balanced, 6, 2);
            let usable = pool.enabled_mask(UnitKind::IntAlu) & wiring.usable_mask();
            b.iter(|| {
                // The serialized tree walk: units in priority order pick
                // ready entries in age order, respecting cache ports.
                let (_, n_units) = units_in_order(usable, 6, 0);
                let mut picked = 0usize;
                let mut mem = 0usize;
                for pos in iq.ready_positions() {
                    if picked == n_units {
                        break;
                    }
                    let e = iq.entry(pos).expect("ready position occupied");
                    if e.is_mem && mem == 2 {
                        continue;
                    }
                    if e.is_mem {
                        mem += 1;
                    }
                    picked += 1;
                }
                picked
            });
        });
    }
    group.finish();
}

fn unit_ordering(c: &mut Criterion) {
    let usable = FuPool::new(6, 4).enabled_mask(UnitKind::IntAlu);
    c.bench_function("unit_order_static", |b| b.iter(|| units_in_order(usable, 6, 0)));
    c.bench_function("unit_order_rotated", |b| {
        let mut rot = 0usize;
        b.iter(|| {
            rot = rot.wrapping_add(1);
            units_in_order(usable, 6, rot % 6)
        })
    });
}

criterion_group!(benches, select_scan, unit_ordering);
criterion_main!(benches);
