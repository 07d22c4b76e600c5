//! Heap allocations on the TMU step pipeline.
//!
//! A counting global allocator measures standalone engine drives of SpMV,
//! SpMSpM and SpKAdd on a small M3 input, and functional runs of the same
//! programs through `tmu::for_each_entry`. Once the engine has warmed up
//! (committed two step windows), it must average under one allocation per
//! committed step; so must the functional runs, warm-up included. What
//! remains is per chunk (its host-op list and statistics record), not per
//! step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tmu::{CallbackHandler, MemImage, OutQEntry, Program, TmuAccelerator, TmuConfig};
use tmu_kernels::spkadd::Spkadd;
use tmu_kernels::spmspm::Spmspm;
use tmu_kernels::spmv::Spmv;
use tmu_sim::{Accelerator, MemSys, MemSysConfig, OpId, OpKind, VecMachine};
use tmu_tensor::gen::{InputId, ScaledInput};

/// Counts allocations (and growing reallocations) while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// Steps committed before counting starts: two full step windows.
const WARM_UP_STEPS: u64 = 1024;
/// Cycles between a chunk becoming visible and its acknowledgment.
const ACK_DELAY: u64 = 400;

struct NoCallbacks;

impl CallbackHandler for NoCallbacks {
    fn handle(&mut self, _entry: &OutQEntry, _load: OpId, _m: &mut VecMachine) {}
}

/// Drives an engine to completion; returns the steps committed after
/// warm-up and the allocations made while committing them.
fn drive(program: Arc<Program>, image: Arc<MemImage>, outq_base: u64) -> (u64, u64) {
    let mut accel = TmuAccelerator::new(TmuConfig::paper(), program, image, NoCallbacks, outq_base);
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut sink = Vec::with_capacity(1 << 16);
    let mut acks = std::collections::VecDeque::with_capacity(16);
    let mut now = 0u64;
    let mut tick = |accel: &mut TmuAccelerator<NoCallbacks>, now: u64| {
        accel.tick(now, 0, &mut mem);
        accel.drain_ops(&mut sink);
        for op in sink.drain(..) {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                acks.push_back((op.visible_at.max(now) + ACK_DELAY, chunk));
            }
        }
        while let Some(&(at, chunk)) = acks.front() {
            if at > now {
                break;
            }
            accel.ack_chunk(chunk, now);
            acks.pop_front();
        }
    };
    while !accel.done() && accel.steps_committed() < WARM_UP_STEPS {
        tick(&mut accel, now);
        now += 1;
    }
    let warm = accel.steps_committed();
    let ((), allocs) = allocs_in(|| {
        while !accel.done() {
            tick(&mut accel, now);
            now += 1;
            assert!(now < 50_000_000, "drive must terminate");
        }
    });
    (accel.steps_committed() - warm, allocs)
}

#[test]
fn step_pipeline_allocates_less_than_once_per_step() {
    let m = ScaledInput {
        id: InputId::M3,
        scale: 0.02,
        seed: 1,
    }
    .matrix();
    let lanes = TmuConfig::paper().lanes;
    let spmv = Spmv::new(&m);
    let spmspm = Spmspm::new(&m);
    let spkadd = Spkadd::new(&m);
    let kadd_rows = spkadd.reference().rows();
    let cases = [
        (
            "SpMV",
            spmv.build_program((0, m.rows()), lanes),
            spmv.image_handle(),
            spmv.outq_base(0),
        ),
        (
            "SpMSpM",
            spmspm.build_program((0, m.rows()), lanes),
            spmspm.image_handle(),
            spmspm.outq_base(0),
        ),
        (
            "SpKAdd",
            spkadd.build_program((0, kadd_rows), lanes),
            spkadd.image_handle(),
            spkadd.outq_base(0),
        ),
    ];
    for (name, program, image, base) in cases {
        let program = Arc::new(program);
        let (steps, allocs) = drive(Arc::clone(&program), Arc::clone(&image), base);
        assert!(steps > WARM_UP_STEPS, "{name}: {steps} steps after warm-up");
        let per_step = allocs as f64 / steps as f64;
        assert!(
            per_step < 1.0,
            "{name}: engine drive made {allocs} allocations over {steps} steps"
        );

        let mut interp = tmu::Interp::new(Arc::clone(&program), Arc::clone(&image));
        let mut total_steps = 0u64;
        while interp.next_step().is_some() {
            total_steps += 1;
        }
        let mut entries = 0u64;
        let ((), allocs) = allocs_in(|| tmu::for_each_entry(&program, &image, |_| entries += 1));
        assert!(entries > 0);
        let per_step = allocs as f64 / total_steps as f64;
        assert!(
            per_step < 1.0,
            "{name}: for_each_entry made {allocs} allocations over {total_steps} steps"
        );
    }
}
