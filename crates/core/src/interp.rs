//! Functional interpreter of TMU programs.
//!
//! Produces, lazily and in nested-loop order, the stream of traversal-group
//! [`Step`]s a configured TMU performs: which elements each TU loads (with
//! their dependency edges), how the traversal groups merge/co-iterate lanes
//! (§5.2), and which outQ entries the registered callbacks push (§5.3).
//! The timing engine ([`crate::TmuAccelerator`]) replays this stream
//! against the simulated memory hierarchy; the functional content (operand
//! values) is computed here from the bound [`MemImage`].
//!
//! [`Interp::fill_step`] writes each step into a caller-owned, recycled
//! [`Step`], so a run allocates only while its buffers grow.

use std::sync::Arc;

use crate::image::MemImage;
use crate::program::{
    Event, IndexSrc, LayerMode, OperandDef, Program, StreamDef, StreamRef, StreamTy, TraversalDef,
};
use crate::steps::{ElemId, MemLoad, Operand, OutQEntry, Step, StepKind};

/// One element of a TU: its per-stream values and loads.
#[derive(Debug, Clone, Default)]
struct ElemRt {
    /// Per-stream values (raw bits).
    vals: Vec<u64>,
    /// Per-stream mem-load ids (None for non-mem streams).
    mem_by_stream: Vec<Option<ElemId>>,
    /// All gating ids of this element (own loads + fiber bound deps).
    gates: Vec<ElemId>,
}

impl ElemRt {
    fn clear(&mut self) {
        self.vals.clear();
        self.mem_by_stream.clear();
        self.gates.clear();
    }
}

/// Runtime state of one TU (lane of a layer). Its buffers live as long as
/// the interpreter: fibers and elements overwrite them in place.
#[derive(Debug, Clone, Default)]
struct LaneRt {
    active: bool,
    i: i64,
    beg: i64,
    end: i64,
    stride: i64,
    bound_deps: Vec<ElemId>,
    parent_vals: Vec<u64>,
    /// Whether `cur` holds a peeked element.
    peeked: bool,
    /// The peeked element; swapped with `last` when consumed.
    cur: ElemRt,
    /// The last consumed element (read by callback operands and children).
    last: ElemRt,
}

impl LaneRt {
    fn in_range(&self) -> bool {
        if self.stride >= 0 {
            self.i < self.end
        } else {
            self.i > self.end
        }
    }

    /// Deactivates the TU for its parent's current element.
    fn deactivate(&mut self) {
        self.active = false;
        self.i = 0;
        self.beg = 0;
        self.end = 0;
        self.stride = 0;
        self.bound_deps.clear();
        self.parent_vals.clear();
        self.peeked = false;
        self.last.clear();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start(usize),
    Step(usize),
    Done,
}

/// Recycled outQ entries, one free list per callback id: entries of one
/// callback have the same operand shapes, so refilling one reuses every
/// operand buffer.
#[derive(Debug, Default)]
struct EntryPool(Vec<(u32, Vec<OutQEntry>)>);

impl EntryPool {
    fn take(&mut self, callback: u32) -> OutQEntry {
        self.0
            .iter_mut()
            .find(|(id, _)| *id == callback)
            .and_then(|(_, free)| free.pop())
            .unwrap_or(OutQEntry {
                callback,
                mask: 0,
                operands: Vec::new(),
            })
    }

    fn give(&mut self, entries: &mut Vec<OutQEntry>) {
        for e in entries.drain(..) {
            match self.0.iter_mut().find(|(id, _)| *id == e.callback) {
                Some((_, free)) => free.push(e),
                None => self.0.push((e.callback, vec![e])),
            }
        }
    }
}

/// Sets operand `k` of an entry being refilled (its first `k` are set).
fn put_operand(ops: &mut Vec<Operand>, k: usize, op: Operand) {
    match ops.get_mut(k) {
        Some(slot) => *slot = op,
        None => ops.push(op),
    }
}

/// Lazily interprets a [`Program`] over a [`MemImage`].
#[derive(Debug)]
pub struct Interp {
    prog: Arc<Program>,
    image: Arc<MemImage>,
    layers: Vec<Vec<LaneRt>>,
    elem_counts: Vec<Vec<u64>>,
    next_elem: ElemId,
    phase: Phase,
    entry_pool: EntryPool,
    /// Total outQ entries produced so far.
    pub entries_produced: u64,
}

impl Interp {
    /// Creates an interpreter positioned before the first step.
    pub fn new(prog: Arc<Program>, image: Arc<MemImage>) -> Self {
        let layers: Vec<Vec<LaneRt>> = prog
            .layers
            .iter()
            .map(|l| vec![LaneRt::default(); l.tus.len()])
            .collect();
        let elem_counts = prog
            .layers
            .iter()
            .map(|l| vec![0u64; l.tus.len()])
            .collect();
        let mut interp = Self {
            prog,
            image,
            layers,
            elem_counts,
            next_elem: 0,
            phase: Phase::Start(0),
            entry_pool: EntryPool::default(),
            entries_produced: 0,
        };
        interp.init_root();
        interp
    }

    /// Elements (stream loads) issued so far — the next [`ElemId`] this
    /// interpreter will hand out. The timing model uses it after a context
    /// restore to rebase its ready-tracking ring.
    pub fn elems_issued(&self) -> ElemId {
        self.next_elem
    }

    fn init_root(&mut self) {
        for (tu, rt) in self.prog.layers[0].tus.iter().zip(&mut self.layers[0]) {
            match tu.traversal {
                TraversalDef::Dns { beg, end, stride } => {
                    rt.active = true;
                    rt.i = beg;
                    rt.beg = beg;
                    rt.end = end;
                    rt.stride = stride;
                }
                _ => unreachable!("validated: root uses constant bounds"),
            }
        }
    }

    fn stream_ty(&self, r: StreamRef) -> StreamTy {
        match &self.prog.layers[r.layer].tus[r.lane].streams[r.stream] {
            StreamDef::Mem { ty, .. } => *ty,
            StreamDef::Fwd { from } => self.stream_ty(*from),
            _ => StreamTy::Index,
        }
    }

    /// Peeks the current element of `(l, lane)`, appending its loads to
    /// `loads` (taken from `free_loads` while it has any).
    fn peek(
        &mut self,
        l: usize,
        lane: usize,
        loads: &mut Vec<MemLoad>,
        free_loads: &mut Vec<MemLoad>,
    ) {
        let rt = &mut self.layers[l][lane];
        if !rt.active || rt.peeked || !rt.in_range() {
            return;
        }
        let (i, beg0) = (rt.i, rt.beg);
        let tu = &self.prog.layers[l].tus[lane];
        let n = tu.streams.len();
        let ordinal = self.elem_counts[l][lane];
        let LaneRt {
            bound_deps,
            parent_vals,
            cur,
            ..
        } = rt;
        let ElemRt {
            vals,
            mem_by_stream,
            gates,
        } = cur;
        vals.clear();
        vals.resize(n, 0);
        mem_by_stream.clear();
        mem_by_stream.resize(n, None);
        gates.clear();
        gates.extend_from_slice(bound_deps);
        for (si, s) in tu.streams.iter().enumerate() {
            match s {
                StreamDef::Ite => vals[si] = i as u64,
                StreamDef::Mem {
                    base,
                    elem,
                    index,
                    ty,
                } => {
                    let idx = match index {
                        IndexSrc::Ite => i,
                        IndexSrc::Stream(j) => vals[*j] as i64,
                        IndexSrc::RelItePlus(j) => (i - beg0) + vals[*j] as i64,
                    };
                    let addr = (*base as i64 + idx * *elem as i64) as u64;
                    vals[si] = match ty {
                        StreamTy::Index => self.image.read_index(addr) as u64,
                        StreamTy::Value => self.image.read_bits(addr),
                    };
                    let id = self.next_elem;
                    self.next_elem += 1;
                    let mut ld = free_loads.pop().unwrap_or_default();
                    ld.id = id;
                    ld.layer = l as u8;
                    ld.lane = lane as u8;
                    ld.stream = si as u8;
                    ld.elem_ordinal = ordinal;
                    ld.addr = addr;
                    ld.deps.clear();
                    ld.deps.extend_from_slice(bound_deps);
                    if let IndexSrc::Stream(j) | IndexSrc::RelItePlus(j) = index {
                        if let Some(dep) = mem_by_stream[*j] {
                            ld.deps.push(dep);
                        }
                    }
                    loads.push(ld);
                    mem_by_stream[si] = Some(id);
                    gates.push(id);
                }
                StreamDef::Lin { a, b, of } => {
                    vals[si] = (a * (vals[*of] as i64) + b) as u64;
                }
                StreamDef::Map { table, of } => {
                    vals[si] =
                        table[(vals[*of] as i64).rem_euclid(table.len() as i64) as usize] as u64;
                }
                StreamDef::Ldr { base, elem, of } => {
                    vals[si] = (*base as i64 + (vals[*of] as i64) * *elem as i64) as u64;
                }
                StreamDef::Fwd { from } => {
                    vals[si] = parent_vals.get(from.stream).copied().unwrap_or(0);
                }
            }
        }
        rt.peeked = true;
        self.elem_counts[l][lane] += 1;
    }

    fn consume(&mut self, l: usize, lane: usize) {
        let rt = &mut self.layers[l][lane];
        assert!(rt.peeked, "consume requires a peeked element");
        std::mem::swap(&mut rt.cur, &mut rt.last);
        rt.peeked = false;
        rt.i += rt.stride;
    }

    fn key_of(&self, l: usize, lane: usize) -> i64 {
        let tu = &self.prog.layers[l].tus[lane];
        let k = tu.key.unwrap_or(0);
        let rt = &self.layers[l][lane];
        assert!(rt.peeked, "key requires a peeked element");
        rt.cur.vals[k] as i64
    }

    fn active_mask(&self, l: usize) -> u64 {
        let mut m = 0u64;
        for (lane, rt) in self.layers[l].iter().enumerate() {
            if rt.active {
                m |= 1 << lane;
            }
        }
        m
    }

    fn alive_mask(&self, l: usize) -> u64 {
        let mut m = 0u64;
        for (lane, rt) in self.layers[l].iter().enumerate() {
            if rt.active && rt.peeked {
                m |= 1 << lane;
            }
        }
        m
    }

    /// Appends the fiber-bound gates of layer `l`'s active lanes.
    fn bound_gates(&self, l: usize, gates: &mut Vec<ElemId>) {
        for rt in self.layers[l].iter().filter(|rt| rt.active) {
            gates.extend_from_slice(&rt.bound_deps);
        }
    }

    /// Appends the entries of the callbacks registered for `event` on
    /// layer `l`, refilling recycled entries in place.
    fn push_entries(&mut self, l: usize, event: Event, mask: u64, out: &mut Vec<OutQEntry>) {
        let layer = &self.prog.layers[l];
        for cb in layer.callbacks.iter().filter(|cb| cb.event == event) {
            let mut e = self.entry_pool.take(cb.id);
            e.mask = mask;
            e.operands.truncate(cb.operands.len());
            for (k, op) in cb.operands.iter().enumerate() {
                match &layer.operands[op.0] {
                    OperandDef::Vec { streams } => {
                        let ty = streams
                            .first()
                            .map(|&s| self.stream_ty(s))
                            .unwrap_or(StreamTy::Index);
                        let lanes = streams.iter().map(|s| {
                            if mask & (1 << s.lane) != 0 {
                                self.layers[l][s.lane].last.vals[s.stream]
                            } else {
                                0
                            }
                        });
                        match e.operands.get_mut(k) {
                            Some(Operand::Vec { vals, ty: t }) => {
                                vals.clear();
                                vals.extend(lanes);
                                *t = ty;
                            }
                            _ => put_operand(
                                &mut e.operands,
                                k,
                                Operand::Vec {
                                    vals: lanes.collect(),
                                    ty,
                                },
                            ),
                        }
                    }
                    OperandDef::Mask => put_operand(&mut e.operands, k, Operand::Mask(mask)),
                    OperandDef::Scalar { stream } => put_operand(
                        &mut e.operands,
                        k,
                        Operand::Scalar {
                            val: self.layers[stream.layer][stream.lane]
                                .last
                                .vals
                                .get(stream.stream)
                                .copied()
                                .unwrap_or(0),
                            ty: self.stream_ty(*stream),
                        },
                    ),
                }
            }
            out.push(e);
            self.entries_produced += 1;
        }
    }

    /// Initializes layer `l + 1`'s fibers after an `Ite` of layer `l`.
    fn descend(&mut self, l: usize, mask: u64) {
        let child = l + 1;
        let parent_mode = self.prog.layers[l].mode;
        let (upper, lower) = self.layers.split_at_mut(child);
        let parents = &upper[l];
        for (tu, rt) in self.prog.layers[child].tus.iter().zip(&mut lower[0]) {
            let p = tu.parent_lane;
            let parent_ok = match parent_mode {
                LayerMode::Single | LayerMode::Keep => true,
                _ => mask & (1 << p) != 0,
            };
            let parent = &parents[p];
            if !parent_ok || !parent.active {
                rt.deactivate();
                continue;
            }
            let pv = &parent.last.vals;
            let pmem = &parent.last.mem_by_stream;
            let bound_deps = &mut rt.bound_deps;
            bound_deps.clear();
            let mut dep_of = |stream: usize| {
                if let Some(Some(d)) = pmem.get(stream) {
                    bound_deps.push(*d);
                }
            };
            // `origin` is the fiber start before any lane phase offset —
            // the reference point of `IndexSrc::RelItePlus`.
            let (i, origin, end, stride) = match tu.traversal {
                TraversalDef::Dns { beg, end, stride } => (beg, beg, end, stride),
                TraversalDef::Rng {
                    beg,
                    end,
                    offset,
                    stride,
                } => {
                    let b0 = pv[beg.stream] as i64;
                    let e = pv[end.stream] as i64;
                    dep_of(beg.stream);
                    dep_of(end.stream);
                    (b0 + offset, b0, e, stride)
                }
                TraversalDef::Idx {
                    beg,
                    size,
                    offset,
                    stride,
                } => {
                    let b0 = pv[beg.stream] as i64;
                    dep_of(beg.stream);
                    (b0 + offset, b0, b0 + size, stride)
                }
            };
            // The child also cannot outrun its parent's own fiber bounds.
            rt.bound_deps.extend_from_slice(&parent.bound_deps);
            rt.bound_deps.dedup();
            rt.active = true;
            rt.i = i;
            rt.beg = origin;
            rt.end = end;
            rt.stride = stride;
            rt.parent_vals.clear();
            rt.parent_vals.extend_from_slice(pv);
            rt.peeked = false;
            rt.last.clear();
        }
        self.phase = Phase::Start(child);
    }

    /// Produces the next step into `step`, overwriting it in place: its
    /// loads move to `free_loads`, its entries to the interpreter's entry
    /// pool, and new loads are taken from `free_loads` while it has any.
    /// Returns false (leaving `step` empty) when traversal is complete.
    pub fn fill_step(&mut self, step: &mut Step, free_loads: &mut Vec<MemLoad>) -> bool {
        free_loads.append(&mut step.loads);
        self.entry_pool.give(&mut step.entries);
        step.gates.clear();
        step.consumed.clear();
        match self.phase {
            Phase::Done => false,
            Phase::Start(l) => {
                let mask = self.active_mask(l);
                self.bound_gates(l, &mut step.gates);
                self.phase = Phase::Step(l);
                self.push_entries(l, Event::Beg, mask, &mut step.entries);
                step.layer = l as u8;
                step.kind = StepKind::Beg;
                step.mask = mask;
                true
            }
            Phase::Step(l) => {
                self.group_step(l, step, free_loads);
                true
            }
        }
    }

    /// Produces the next step, or `None` when traversal is complete.
    pub fn next_step(&mut self) -> Option<Step> {
        let mut step = Step::default();
        self.fill_step(&mut step, &mut Vec::new()).then_some(step)
    }

    fn end_step(&mut self, l: usize, step: &mut Step) {
        let mask = self.active_mask(l);
        self.bound_gates(l, &mut step.gates);
        // A conjunctive merge ends as soon as one fiber is exhausted;
        // elements already peeked on the other lanes are discarded by the
        // hardware — mark them consumed so their queue slots free up.
        for (lane, rt) in self.layers[l].iter_mut().enumerate() {
            if std::mem::take(&mut rt.peeked) {
                step.consumed.push((l as u8, lane as u8));
            }
        }
        self.phase = if l == 0 {
            Phase::Done
        } else {
            Phase::Step(l - 1)
        };
        self.push_entries(l, Event::End, mask, &mut step.entries);
        step.layer = l as u8;
        step.kind = StepKind::End;
        step.mask = mask;
    }

    fn group_step(&mut self, l: usize, step: &mut Step, free_loads: &mut Vec<MemLoad>) {
        let mode = self.prog.layers[l].mode;
        let lanes = self.prog.layers[l].tus.len();
        for lane in 0..lanes {
            self.peek(l, lane, &mut step.loads, free_loads);
        }
        let active = self.active_mask(l);
        let alive = self.alive_mask(l);

        let merge_min = |this: &Self| {
            let min = (0..lanes)
                .filter(|&j| alive & (1 << j) != 0)
                .map(|j| this.key_of(l, j))
                .min()
                .expect("alive non-empty");
            let mut m = 0u64;
            for j in 0..lanes {
                if alive & (1 << j) != 0 && this.key_of(l, j) == min {
                    m |= 1 << j;
                }
            }
            m
        };
        let ended = match mode {
            LayerMode::Single | LayerMode::Keep | LayerMode::LockStep | LayerMode::DisjMrg => {
                alive == 0
            }
            LayerMode::ConjMrg => active == 0 || alive != active,
        };
        if ended {
            self.end_step(l, step);
            return;
        }
        let mask = match mode {
            LayerMode::Single | LayerMode::Keep | LayerMode::LockStep => alive,
            LayerMode::DisjMrg | LayerMode::ConjMrg => merge_min(self),
        };

        // Consume the participating lanes, gathering gates.
        for j in 0..lanes {
            if mask & (1 << j) != 0 {
                let rt = &self.layers[l][j];
                if rt.peeked {
                    step.gates.extend_from_slice(&rt.cur.gates);
                }
                self.consume(l, j);
                step.consumed.push((l as u8, j as u8));
            }
        }
        step.layer = l as u8;
        step.mask = mask;

        // Conjunctive merge only emits when all active lanes participate.
        if mode == LayerMode::ConjMrg && mask != active {
            step.kind = StepKind::Skip;
            return;
        }

        step.kind = StepKind::Ite;
        self.push_entries(l, Event::Ite, mask, &mut step.entries);
        if l + 1 < self.prog.layers.len() {
            self.descend(l, mask);
        }
    }
}

/// Runs a program to completion functionally, returning every outQ entry
/// in order (convenience for tests and small examples).
pub fn run_functional(prog: &Arc<Program>, image: &Arc<MemImage>) -> Vec<OutQEntry> {
    let mut out = Vec::new();
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let (mut step, mut free_loads) = (Step::default(), Vec::new());
    while interp.fill_step(&mut step, &mut free_loads) {
        out.append(&mut step.entries);
    }
    out
}

/// Runs a program to completion, handing each outQ entry to `f`. One step
/// buffer is refilled throughout, so the run allocates only while its
/// buffers grow.
pub fn for_each_entry(prog: &Arc<Program>, image: &Arc<MemImage>, mut f: impl FnMut(&OutQEntry)) {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let (mut step, mut free_loads) = (Step::default(), Vec::new());
    while interp.fill_step(&mut step, &mut free_loads) {
        step.entries.iter().for_each(&mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LayerMode, ProgramBuilder, StreamTy};
    use tmu_sim::AddressMap;

    /// Binds the Figure 1 CSR matrix and the Figure 8 SpMV program.
    fn spmv_fixture() -> (Arc<Program>, Arc<MemImage>) {
        // Figure 1 CSR: ptrs [0,2,2,3,5], idxs [0,2,1,0,3],
        // vals [a,b,c,d,e] = [1,2,3,4,5], dense vector b = [10,20,30,40].
        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", 5, 4);
        let idxs_r = map.alloc_elems("idxs", 5, 4);
        let vals_r = map.alloc_elems("vals", 5, 8);
        let b_r = map.alloc_elems("b", 4, 8);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(vec![0, 2, 2, 3, 5]));
        image.bind_u32(idxs_r, Arc::new(vec![0, 2, 1, 0, 3]));
        image.bind_f64(vals_r, Arc::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]));
        image.bind_f64(b_r, Arc::new(vec![10.0, 20.0, 30.0, 40.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, 4, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::LockStep);
        let mut nnz = Vec::new();
        let mut vecv = Vec::new();
        for lane in 0..2i64 {
            let col = bld.rng_fbrt(l1, ptbs, ptes, lane, 2);
            let ci = bld.mem_stream(col, idxs_r.base, 4, StreamTy::Index);
            nnz.push(bld.mem_stream(col, vals_r.base, 8, StreamTy::Value));
            vecv.push(bld.mem_stream_indexed(col, b_r.base, 8, StreamTy::Value, ci));
        }
        let nnz_op = bld.vec_operand(l1, &nnz);
        let vec_op = bld.vec_operand(l1, &vecv);
        bld.callback(l1, Event::Ite, 0, &[nnz_op, vec_op]);
        bld.callback(l1, Event::End, 1, &[]);
        (Arc::new(bld.build().expect("well-formed")), Arc::new(image))
    }

    #[test]
    fn figure9_walkthrough() {
        // The Figure 9 example: SpMV inner-loop vectorized over the
        // Figure 1 matrix. Row 0 has nnzs (a@0, b@2): lanes load (a, b)
        // and (b[0], b[2]) in lockstep, then the row ends.
        let (prog, image) = spmv_fixture();
        let entries = run_functional(&prog, &image);
        // Per row: ceil(nnz/2) ri entries + 1 re entry.
        // Rows have 2, 0, 1, 2 nnz → 1 + 0 + 1 + 1 = 3 ri entries, 4 re.
        let ri: Vec<_> = entries.iter().filter(|e| e.callback == 0).collect();
        let re_count = entries.iter().filter(|e| e.callback == 1).count();
        assert_eq!(ri.len(), 3);
        assert_eq!(re_count, 4);
        // Row 0 step: nnz values (1, 2), vector values (10, 30), mask 11.
        assert_eq!(ri[0].mask, 0b11);
        assert_eq!(ri[0].operands[0].as_f64s(), vec![1.0, 2.0]);
        assert_eq!(ri[0].operands[1].as_f64s(), vec![10.0, 30.0]);
        // Row 2 has one nnz: only lane 0 participates.
        assert_eq!(ri[1].mask, 0b01);
        assert_eq!(ri[1].operands[0].as_f64s(), vec![3.0, 0.0]);
        assert_eq!(ri[1].operands[1].as_f64s(), vec![20.0, 0.0]);
        // Row 3: nnzs (d@0, e@3) → values (4,5), vector (10,40).
        assert_eq!(ri[2].operands[0].as_f64s(), vec![4.0, 5.0]);
        assert_eq!(ri[2].operands[1].as_f64s(), vec![10.0, 40.0]);
    }

    #[test]
    fn spmv_result_matches_reference() {
        let (prog, image) = spmv_fixture();
        // Host-side compute: sum += reduce(nnz*vec) per ri; store per re.
        let mut x = Vec::new();
        let mut sum = 0.0;
        for_each_entry(&prog, &image, |e| match e.callback {
            0 => {
                let nnz = e.operands[0].as_f64s();
                let vecv = e.operands[1].as_f64s();
                sum += nnz.iter().zip(&vecv).map(|(a, b)| a * b).sum::<f64>();
            }
            1 => {
                x.push(sum);
                sum = 0.0;
            }
            _ => unreachable!(),
        });
        // Reference: row0 = 1*10 + 2*30 = 70; row1 = 0; row2 = 3*20 = 60;
        // row3 = 4*10 + 5*40 = 240.
        assert_eq!(x, vec![70.0, 0.0, 60.0, 240.0]);
    }

    #[test]
    fn loads_have_dependencies_and_ordinals() {
        let (prog, image) = spmv_fixture();
        let mut interp = Interp::new(prog, image);
        let mut loads = Vec::new();
        while let Some(s) = interp.next_step() {
            loads.extend(s.loads);
        }
        // Vector-value loads (chained) must depend on their column-index
        // load; bound deps point at the row-pointer loads.
        let chained: Vec<_> = loads
            .iter()
            .filter(|ld| ld.layer == 1 && !ld.deps.is_empty())
            .collect();
        assert!(!chained.is_empty());
        let with_three_deps = loads.iter().filter(|ld| ld.deps.len() >= 3).count();
        assert!(
            with_three_deps > 0,
            "b[idx] loads carry bounds + index deps"
        );
        // Ordinals increase per TU.
        let mut last = std::collections::HashMap::new();
        for ld in &loads {
            let k = (ld.layer, ld.lane);
            let prev = last.insert(k, ld.elem_ordinal);
            if let Some(p) = prev {
                assert!(ld.elem_ordinal >= p, "ordinals must be monotonic");
            }
        }
    }

    #[test]
    fn disjunctive_merge_matches_oracle() {
        // Two singleton fibers merged disjunctively; compare against the
        // tmu-tensor reference merge of Figure 2.
        let mut map = AddressMap::new();
        let ai = map.alloc_elems("ai", 3, 4);
        let av = map.alloc_elems("av", 3, 8);
        let bi = map.alloc_elems("bi", 3, 4);
        let bv = map.alloc_elems("bv", 3, 8);
        let mut image = MemImage::new();
        image.bind_u32(ai, Arc::new(vec![0, 2, 5]));
        image.bind_f64(av, Arc::new(vec![1.0, 2.0, 5.0]));
        image.bind_u32(bi, Arc::new(vec![2, 3, 5]));
        image.bind_f64(bv, Arc::new(vec![3.0, 4.0, 6.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::DisjMrg);
        let ta = bld.dns_fbrt(l0, 0, 3, 1);
        let ka = bld.mem_stream(ta, ai.base, 4, StreamTy::Index);
        let va = bld.mem_stream(ta, av.base, 8, StreamTy::Value);
        let tb = bld.dns_fbrt(l0, 0, 3, 1);
        let kb = bld.mem_stream(tb, bi.base, 4, StreamTy::Index);
        let vb = bld.mem_stream(tb, bv.base, 8, StreamTy::Value);
        bld.set_key(ta, ka);
        bld.set_key(tb, kb);
        let vals = bld.vec_operand(l0, &[va, vb]);
        let keys = bld.vec_operand(l0, &[ka, kb]);
        let mask = bld.mask_operand(l0);
        bld.callback(l0, Event::Ite, 7, &[keys, vals, mask]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let image = Arc::new(image);

        let entries = run_functional(&prog, &image);
        let masks: Vec<u64> = entries.iter().map(|e| e.mask).collect();
        // Figure 2 disjunctive: masks 01, 11, 10, 11 (bit0 = fiber A).
        assert_eq!(masks, vec![0b01, 0b11, 0b10, 0b11]);
        let sums: Vec<f64> = entries
            .iter()
            .map(|e| e.operands[1].as_f64s().iter().sum())
            .collect();
        assert_eq!(sums, vec![1.0, 5.0, 4.0, 11.0]);
    }

    #[test]
    fn conjunctive_merge_intersects() {
        let mut map = AddressMap::new();
        let ai = map.alloc_elems("ai", 3, 4);
        let av = map.alloc_elems("av", 3, 8);
        let bi = map.alloc_elems("bi", 3, 4);
        let bv = map.alloc_elems("bv", 3, 8);
        let mut image = MemImage::new();
        image.bind_u32(ai, Arc::new(vec![0, 2, 5]));
        image.bind_f64(av, Arc::new(vec![1.0, 2.0, 5.0]));
        image.bind_u32(bi, Arc::new(vec![2, 3, 5]));
        image.bind_f64(bv, Arc::new(vec![3.0, 4.0, 6.0]));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::ConjMrg);
        let ta = bld.dns_fbrt(l0, 0, 3, 1);
        let ka = bld.mem_stream(ta, ai.base, 4, StreamTy::Index);
        let va = bld.mem_stream(ta, av.base, 8, StreamTy::Value);
        let tb = bld.dns_fbrt(l0, 0, 3, 1);
        let kb = bld.mem_stream(tb, bi.base, 4, StreamTy::Index);
        let vb = bld.mem_stream(tb, bv.base, 8, StreamTy::Value);
        bld.set_key(ta, ka);
        bld.set_key(tb, kb);
        let vals = bld.vec_operand(l0, &[va, vb]);
        bld.callback(l0, Event::Ite, 3, &[vals]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let image = Arc::new(image);

        let entries = run_functional(&prog, &image);
        let prods: Vec<f64> = entries
            .iter()
            .map(|e| e.operands[0].as_f64s().iter().product())
            .collect();
        // Intersection at coordinates 2 and 5: 2·3 and 5·6.
        assert_eq!(prods, vec![6.0, 30.0]);
    }

    #[test]
    fn lockstep_emits_begin_and_end_events() {
        let (prog, image) = spmv_fixture();
        let mut interp = Interp::new(prog, image);
        let mut kinds = Vec::new();
        while let Some(s) = interp.next_step() {
            kinds.push((s.layer, s.kind));
        }
        // Outer traversal: Beg(0) ... End(0); each row wraps an inner
        // Beg(1)/End(1) pair.
        assert_eq!(kinds.first(), Some(&(0, StepKind::Beg)));
        assert_eq!(kinds.last(), Some(&(0, StepKind::End)));
        let inner_begs = kinds.iter().filter(|k| **k == (1, StepKind::Beg)).count();
        let inner_ends = kinds.iter().filter(|k| **k == (1, StepKind::End)).count();
        assert_eq!(inner_begs, 4, "one inner traversal per row");
        assert_eq!(inner_begs, inner_ends);
    }

    #[test]
    fn keep_mode_selects_one_lane_of_a_parallel_group() {
        // Two lockstep lanes load different pointer pairs; a Keep child
        // bound to lane 1 must traverse only lane 1's fiber.
        let mut map = AddressMap::new();
        let p0 = map.alloc_elems("p0", 2, 4);
        let p1 = map.alloc_elems("p1", 2, 4);
        let vals = map.alloc_elems("vals", 8, 8);
        let mut image = MemImage::new();
        image.bind_u32(p0, Arc::new(vec![0, 2])); // lane 0's fiber: [0, 2)
        image.bind_u32(p1, Arc::new(vec![4, 7])); // lane 1's fiber: [4, 7)
        image.bind_f64(vals, Arc::new((0..8).map(f64::from).collect()));

        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::LockStep);
        let t0 = bld.dns_fbrt(l0, 0, 1, 1);
        let b0 = bld.mem_stream(t0, p0.base, 4, StreamTy::Index);
        let e0 = bld.mem_stream(t0, p0.base + 4, 4, StreamTy::Index);
        let t1 = bld.dns_fbrt(l0, 0, 1, 1);
        let b1 = bld.mem_stream(t1, p1.base, 4, StreamTy::Index);
        let e1 = bld.mem_stream(t1, p1.base + 4, 4, StreamTy::Index);
        let _ = (b0, e0);
        let l1 = bld.layer(LayerMode::Keep);
        let kept = bld.rng_fbrt(l1, b1, e1, 0, 1);
        bld.bind_parent(kept, 1);
        let v = bld.mem_stream(kept, vals.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l1, &[v]);
        bld.callback(l1, Event::Ite, 0, &[op]);
        let prog = Arc::new(bld.build().expect("well-formed"));

        let entries = run_functional(&prog, &Arc::new(image));
        let got: Vec<f64> = entries.iter().map(|e| e.operands[0].as_f64s()[0]).collect();
        assert_eq!(got, vec![4.0, 5.0, 6.0], "Keep must follow lane 1 only");
    }

    #[test]
    fn empty_matrix_produces_no_ite() {
        let mut map = AddressMap::new();
        let ptrs_r = map.alloc_elems("ptrs", 3, 4);
        let idxs_r = map.alloc_elems("idxs", 1, 4);
        let vals_r = map.alloc_elems("vals", 1, 8);
        let mut image = MemImage::new();
        image.bind_u32(ptrs_r, Arc::new(vec![0, 0, 0]));
        image.bind_u32(idxs_r, Arc::new(vec![0]));
        image.bind_f64(vals_r, Arc::new(vec![0.0]));
        let mut bld = ProgramBuilder::new();
        let l0 = bld.layer(LayerMode::Single);
        let row = bld.dns_fbrt(l0, 0, 2, 1);
        let ptbs = bld.mem_stream(row, ptrs_r.base, 4, StreamTy::Index);
        let ptes = bld.mem_stream(row, ptrs_r.base + 4, 4, StreamTy::Index);
        let l1 = bld.layer(LayerMode::Single);
        let col = bld.rng_fbrt(l1, ptbs, ptes, 0, 1);
        let v = bld.mem_stream(col, vals_r.base, 8, StreamTy::Value);
        let op = bld.vec_operand(l1, &[v]);
        bld.callback(l1, Event::Ite, 0, &[op]);
        let prog = Arc::new(bld.build().expect("well-formed"));
        let entries = run_functional(&prog, &Arc::new(image));
        assert!(entries.is_empty(), "empty rows trigger no iteration");
    }
}
