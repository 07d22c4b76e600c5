//! Standalone drive of the TMU engine: the workload's M3 input as an SpMV
//! program, ticked against a bare memory system by a core that
//! acknowledges every chunk at once. Only the engine does work here, so
//! its host time per simulated cycle and its arbiter stall counts are
//! measured apart from the OoO core.

use std::sync::Arc;
use std::time::Instant;

use tmu::{TmuAccelerator, TmuConfig};
use tmu_kernels::spmv::{Spmv, SpmvHandler};
use tmu_sim::{Accelerator, MemSys, MemSysConfig, OpKind};
use tmu_tensor::CsrMatrix;

use crate::report::{median, Outcome};
use crate::span::Recorder;

/// Lanes of the driven program (the paper configuration).
const LANES: usize = 8;
/// A drive still running after this many cycles has wedged.
const CYCLE_LIMIT: u64 = 100_000_000;
/// Drives per timing mode; host times are their medians.
const REPS: usize = 3;

/// What one drive observed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Drive {
    cycles: u64,
    /// `TmuAccelerator::debug_counters`: no issue while work was pending,
    /// queue-capacity blocks, dependency blocks, gate-blocked step waits.
    counters: [u64; 4],
    tick_s: f64,
    drain_s: f64,
    total_s: f64,
}

/// Drives the engine to completion. With `per_call`, each `tick` and
/// each drain-and-acknowledge is timed on its own (which costs host time
/// of its own); without, only the whole loop is.
fn drive(w: &Spmv, rows: usize, per_call: bool) -> Option<Drive> {
    let prog = Arc::new(w.build_program((0, rows), LANES));
    let handler = SpmvHandler::new(w.x_region(), 0);
    let mut accel = TmuAccelerator::new(
        TmuConfig::paper(),
        prog,
        w.image_handle(),
        handler,
        w.outq_base(0),
    );
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut sink = Vec::new();
    let (mut tick_s, mut drain_s) = (0.0, 0.0);
    let mut now = 0u64;
    let start = Instant::now();
    while !accel.done() {
        let t = per_call.then(Instant::now);
        accel.tick(now, 0, &mut mem);
        let t = t.map(|t| {
            tick_s += t.elapsed().as_secs_f64();
            Instant::now()
        });
        accel.drain_ops(&mut sink);
        for op in &sink {
            if let OpKind::ChunkEnd { chunk } = op.kind {
                accel.ack_chunk(chunk, now);
            }
        }
        sink.clear();
        if let Some(t) = t {
            drain_s += t.elapsed().as_secs_f64();
        }
        now += 1;
        if now > CYCLE_LIMIT {
            return None;
        }
    }
    Some(Drive {
        cycles: now,
        counters: accel.debug_counters,
        tick_s,
        drain_s,
        total_s: start.elapsed().as_secs_f64(),
    })
}

/// Drives the engine over `m` [`REPS`] times per timing mode, checks that
/// every drive simulated the same cycles and stalls, and reports the
/// `tmu.engine.*` and `tmu.arbiter.*` metrics.
pub fn report(m: &CsrMatrix, rec: &mut Recorder, out: &mut Outcome) {
    let w = Spmv::new(m);
    let mut first: Option<Drive> = None;
    let (mut loop_s, mut tick_s, mut drain_s) = (Vec::new(), Vec::new(), Vec::new());
    for per_call in [false, true] {
        for _ in 0..REPS {
            let open = rec.open(
                "tmu.engine.drive",
                if per_call { "per-call" } else { "loop" },
            );
            let d = drive(&w, m.rows(), per_call);
            rec.close(open);
            let Some(d) = d else {
                eprintln!("engine drive passed {CYCLE_LIMIT} cycles without finishing");
                out.check(false);
                return;
            };
            let f = *first.get_or_insert(d);
            out.check(d.cycles == f.cycles && d.counters == f.counters);
            if per_call {
                tick_s.push(d.tick_s);
                drain_s.push(d.drain_s);
            } else {
                loop_s.push(d.total_s);
            }
        }
    }
    let first = first.expect("REPS > 0");
    out.put("tmu.engine.tick_s", median(&tick_s), "s");
    out.put("tmu.engine.drain_s", median(&drain_s), "s");
    out.put("tmu.engine.cycles", first.cycles as f64, "count");
    let ns_per_cycle = median(&loop_s) / first.cycles as f64 * 1e9;
    out.put("tmu.engine.ns_per_cycle", ns_per_cycle, "ns");
    let names = ["no_issue", "queue_full", "deps_wait", "slot_spent"];
    for (name, count) in names.iter().zip(first.counters) {
        out.put(format!("tmu.arbiter.{name}"), count as f64, "count");
    }
}
