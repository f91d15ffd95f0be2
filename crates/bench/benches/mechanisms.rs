//! Criterion micro-benchmarks of the MISP architecture's core mechanisms:
//! the analytic overhead model, ShredLib's FIFO work queue and
//! synchronization objects, and the instruction-stream cursor.  These quantify the *simulator's* costs (they
//! are what make the table/figure sweeps fast), complementing the `sweep`
//! grids that regenerate the paper's results.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use misp_core::OverheadModel;
use misp_isa::{OwnedCursor, ProgramBuilder};
use misp_types::{CostModel, Cycles, LockId, ShredId, VirtAddr};
use shredlib::{SyncTable, WorkQueue};
use std::sync::Arc;

fn bench_overhead_model(c: &mut Criterion) {
    c.bench_function("overhead_model_equations", |b| {
        let model = OverheadModel::new(CostModel::default());
        b.iter(|| {
            let s = model.serialize(black_box(Cycles::new(8_000)));
            let e = model.proxy_egress();
            let i = model.proxy_ingress(black_box(Cycles::new(8_000)));
            black_box((s, e, i))
        });
    });
    c.bench_function("overhead_model_fraction", |b| {
        let model = OverheadModel::new(CostModel::default());
        b.iter(|| {
            black_box(model.overhead_fraction(
                black_box(150_000),
                black_box(350_000),
                Cycles::new(5_000_000_000),
            ))
        });
    });
}

fn bench_work_queue(c: &mut Criterion) {
    c.bench_function("work_queue_push_pop_fifo", |b| {
        let mut q = WorkQueue::new();
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            q.push(ShredId::new(i));
            black_box(q.pop())
        });
    });
}

fn bench_sync_table(c: &mut Criterion) {
    c.bench_function("sync_mutex_uncontended", |b| {
        let mut t = SyncTable::new();
        let m = LockId::new(0);
        let s = ShredId::new(0);
        b.iter(|| {
            t.mutex_lock(m, s).unwrap();
            black_box(t.mutex_unlock(m, s).unwrap())
        });
    });
    c.bench_function("sync_barrier_cycle_8", |b| {
        let mut t = SyncTable::new();
        let bar = LockId::new(1);
        t.create_barrier(bar, 8);
        b.iter(|| {
            for i in 0..8u32 {
                black_box(t.barrier_wait(bar, ShredId::new(i)).unwrap());
            }
        });
    });
}

fn bench_program_cursor(c: &mut Criterion) {
    c.bench_function("program_cursor_1k_ops", |b| {
        let program = Arc::new(
            ProgramBuilder::new("bench")
                .repeat(250, |body| {
                    body.compute(Cycles::new(100))
                        .load(VirtAddr::new(0x1000))
                        .compute(Cycles::new(50))
                        .store(VirtAddr::new(0x2000))
                })
                .build(),
        );
        b.iter(|| {
            let mut cursor = OwnedCursor::new(Arc::clone(&program));
            let mut count = 0u32;
            loop {
                let op = cursor.next_op();
                count += 1;
                if matches!(op, misp_isa::Op::Halt) {
                    break;
                }
            }
            black_box(count)
        });
    });
}

criterion_group!(
    benches,
    bench_overhead_model,
    bench_work_queue,
    bench_sync_table,
    bench_program_cursor
);
criterion_main!(benches);
