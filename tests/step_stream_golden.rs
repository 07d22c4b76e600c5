//! Golden pins of the functional interpreter's step stream.
//!
//! Every program the workspace builds — each kernel mapping of
//! `tmu-kernels`, the `tmu-front` einsum corpus and the `tmu-formats`
//! conversions — plus one hand-built program for the configuration
//! variants none of them uses, is run through [`tmu::Interp`]. An FNV-1a
//! digest covers every field of every [`Step`]: layer, kind and mask; each
//! load's id, layer, lane, stream, ordinal, address and dependencies; the
//! gates and consumed TUs; every outQ entry with its operands.
//!
//! Each program is digested twice: straight through, and through a
//! quiesce at the middle step followed by a context restore, whose replay
//! must continue the identical stream. Both must equal the pinned digest.

use std::sync::Arc;

use tmu::context::ContextSnapshot;
use tmu::{
    Event, IndexSrc, Interp, LayerMode, MemImage, Operand, OperandDef, Program, ProgramBuilder,
    Step, StepKind, StreamDef, StreamTy, TmuConfig,
};
use tmu_formats::{CsrToBandedTmu, HashedMatrix, HashedToCsrTmu};
use tmu_front::ExprWorkload;
use tmu_kernels::{
    mttkrp, pagerank, sddmm, spkadd, spmm, spmspm, spmspv, spmv, sptc, spttm, spttv, trianglecount,
};
use tmu_sim::AddressMap;
use tmu_tensor::gen;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: &[u64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v);
        }
    }

    fn ty(&mut self, ty: StreamTy) {
        self.word(match ty {
            StreamTy::Index => 0,
            StreamTy::Value => 1,
        });
    }

    fn step(&mut self, s: &Step) {
        self.word(u64::from(s.layer));
        self.word(match s.kind {
            StepKind::Beg => 0,
            StepKind::Ite => 1,
            StepKind::End => 2,
            StepKind::Skip => 3,
        });
        self.word(s.mask);
        self.word(s.loads.len() as u64);
        for ld in &s.loads {
            for v in [
                ld.id,
                u64::from(ld.layer),
                u64::from(ld.lane),
                u64::from(ld.stream),
                ld.elem_ordinal,
                ld.addr,
            ] {
                self.word(v);
            }
            self.words(&ld.deps);
        }
        self.words(&s.gates);
        self.word(s.consumed.len() as u64);
        for &(layer, lane) in &s.consumed {
            self.word(u64::from(layer) << 8 | u64::from(lane));
        }
        self.word(s.entries.len() as u64);
        for e in &s.entries {
            self.word(u64::from(e.callback));
            self.word(e.mask);
            self.word(e.operands.len() as u64);
            for op in &e.operands {
                match op {
                    Operand::Vec { vals, ty } => {
                        self.word(0);
                        self.words(vals);
                        self.ty(*ty);
                    }
                    Operand::Mask(m) => {
                        self.word(1);
                        self.word(*m);
                    }
                    Operand::Scalar { val, ty } => {
                        self.word(2);
                        self.word(*val);
                        self.ty(*ty);
                    }
                }
            }
        }
    }
}

/// Step count and digest of a program's whole step stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin(u64, u64);

/// Digests the stream straight through.
fn straight(prog: &Arc<Program>, image: &Arc<MemImage>) -> Pin {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let mut h = Fnv::new();
    let mut n = 0;
    while let Some(s) = interp.next_step() {
        h.step(&s);
        n += 1;
    }
    Pin(n, h.0)
}

/// Digests the stream through a quiesce after `k` steps: the first `k`
/// come from one interpreter, the rest from one restored by replay.
fn through_restore(prog: &Arc<Program>, image: &Arc<MemImage>, k: u64) -> Pin {
    let mut interp = Interp::new(Arc::clone(prog), Arc::clone(image));
    let mut h = Fnv::new();
    for _ in 0..k {
        h.step(&interp.next_step().expect("k is within the stream"));
    }
    let snap = ContextSnapshot::save(TmuConfig::paper(), prog, k, interp.entries_produced);
    let mut restored = snap.restore(Arc::clone(image));
    let mut n = k;
    while let Some(s) = restored.next_step() {
        h.step(&s);
        n += 1;
    }
    Pin(n, h.0)
}

/// A program using the variants no built program uses: a `Keep` layer
/// bound to one lane of a lockstep group, `map` and `ldr` streams,
/// `RelItePlus` indexing, callbacks on `Beg`, and scalar operands.
fn hand_built() -> (Program, Arc<MemImage>) {
    let mut map = AddressMap::new();
    let p0 = map.alloc_elems("p0", 4, 4);
    let p1 = map.alloc_elems("p1", 4, 4);
    let off = map.alloc_elems("off", 16, 4);
    let vals = map.alloc_elems("vals", 16, 8);
    let mut image = MemImage::new();
    image.bind_u32(p0, Arc::new(vec![0, 2, 3, 5]));
    image.bind_u32(p1, Arc::new(vec![1, 4, 4, 9]));
    image.bind_u32(off, Arc::new((0..16).map(|v| v * 5 % 9).collect()));
    image.bind_f64(
        vals,
        Arc::new((0..16).map(|v| f64::from(v) * 0.5).collect()),
    );

    let mut b = ProgramBuilder::new();
    let l0 = b.layer(LayerMode::LockStep);
    let t0 = b.dns_fbrt(l0, 0, 3, 1);
    let beg0 = b.mem_stream(t0, p0.base, 4, StreamTy::Index);
    let end0 = b.mem_stream(t0, p0.base + 4, 4, StreamTy::Index);
    let t1 = b.dns_fbrt(l0, 0, 3, 1);
    let beg1 = b.mem_stream(t1, p1.base, 4, StreamTy::Index);
    let end1 = b.mem_stream(t1, p1.base + 4, 4, StreamTy::Index);
    let ite1 = b.ite(t1);
    let mapped = b.map_stream(t1, vec![5, 7, 11], ite1);
    let addr = b.ldr_stream(t1, vals.base, 8, mapped);
    let _ = (beg0, end0);
    let mask = b.mask_operand(l0);
    let at = b.scalar_operand(l0, addr);
    let firsts = b.vec_operand(l0, &[beg0, beg1]);
    b.callback(l0, Event::Beg, 10, &[mask]);
    b.callback(l0, Event::Ite, 11, &[firsts, at]);

    let l1 = b.layer(LayerMode::Keep);
    let kept = b.rng_fbrt(l1, beg1, end1, 0, 1);
    b.bind_parent(kept, 1);
    let o = b.mem_stream(kept, off.base, 4, StreamTy::Index);
    let rel = b.mem_stream_rel(kept, vals.base, 8, StreamTy::Value, o);
    let fwd = b.fwd_stream(kept, mapped);
    let v = b.vec_operand(l1, &[rel]);
    let key = b.scalar_operand(l1, fwd);
    let m1 = b.mask_operand(l1);
    b.callback(l1, Event::Beg, 20, &[key]);
    b.callback(l1, Event::Ite, 21, &[v, key]);
    b.callback(l1, Event::End, 22, &[m1]);
    (b.build().expect("well-formed"), Arc::new(image))
}

/// Every program under test, with the image it runs over.
fn programs() -> Vec<(&'static str, Program, Arc<MemImage>)> {
    let a = gen::uniform(48, 48, 4, 1);
    let t3 = gen::random_tensor(&[12, 8, 8], 120, 2);
    let b3 = gen::random_tensor(&[8, 8, 10], 120, 3);
    let mut out: Vec<(&'static str, Program, Arc<MemImage>)> = Vec::new();

    let w = spmv::Spmv::new(&a);
    out.push(("SpMV P1", w.build_program((0, 48), 8), w.image_handle()));
    out.push(("SpMV P0", w.build_program_p0((0, 48), 8), w.image_handle()));
    let w = spmspv::Spmspv::new(&a, 0.2);
    out.push(("SpMSpV", w.build_program((0, 48)), w.image_handle()));
    let w = spmm::Spmm::new(&a);
    out.push(("SpMM", w.build_program((0, 24), 8), w.image_handle()));
    let w = spmspm::Spmspm::new(&a);
    out.push(("SpMSpM", w.build_program((0, 24), 8), w.image_handle()));
    let w = spkadd::Spkadd::new(&gen::uniform(64, 32, 3, 4));
    out.push(("SpKAdd", w.build_program((0, 8), 8), w.image_handle()));
    let w = pagerank::PageRank::new(&a);
    out.push(("PageRank", w.build_program((0, 48), 8), w.image_handle()));
    let w = sddmm::Sddmm::new(&a);
    out.push(("SDDMM", w.build_program((0, 24), 8), w.image_handle()));
    let w = trianglecount::TriangleCount::new(&a);
    out.push(("TC", w.build_program((0, 48)), w.image_handle()));
    for (name, variant) in [
        ("MTTKRP MP", mttkrp::MttkrpVariant::Mp),
        ("MTTKRP CP", mttkrp::MttkrpVariant::Cp),
    ] {
        let w = mttkrp::Mttkrp::new(&t3, variant);
        out.push((name, w.build_program((0, 120), 8), w.image_handle()));
    }
    let w = sptc::Sptc::new(&t3, &b3);
    out.push(("SpTC", w.build_program((0, 4)), w.image_handle()));
    let w = spttv::Spttv::new(&t3);
    out.push(("SpTTV", w.build_program((0, 4), 8), w.image_handle()));
    let w = spttm::Spttm::new(&t3);
    out.push(("SpTTM", w.build_program((0, 4), 8), w.image_handle()));

    let w = CsrToBandedTmu::new(&gen::banded(48, 8, 4, 17));
    out.push(("csr→banded", w.build_program((0, 48), 8), w.image_handle()));
    let w = HashedToCsrTmu::new(&HashedMatrix::from_csr(&gen::uniform(40, 48, 4, 29)));
    out.push(("hashed→csr", w.build_program((0, 40), 8), w.image_handle()));

    let base = gen::uniform(32, 32, 3, 5);
    for (name, src) in [
        ("expr SpMV", "y(i) = A(i,j:csr) * x(j)"),
        ("expr SpMSpV", "y(i) = A(i,j:csr) * x(j:sparse)"),
        ("expr SpMSpM", "Z(i,j) = A(i,k:csr) * B(k,j:csr)"),
        ("expr add2", "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr)"),
        (
            "expr add3",
            "Z(i,j) = A(i,j:dcsr) + B(i,j:dcsr) + C(i,j:dcsr)",
        ),
        (
            "expr mixed",
            "y(i) = A(i,j:csr) * T(j,k,l:csf) * x(l:dense)",
        ),
    ] {
        let w = ExprWorkload::new(src, &base).expect("compiles");
        let program = w.lowered(8).expect("lowers").program;
        out.push((name, program, w.image_handle()));
    }

    let (program, image) = hand_built();
    out.push(("hand-built", program, image));
    out
}

/// The configuration variants `programs` uses, as names.
fn coverage(progs: &[(&'static str, Program, Arc<MemImage>)]) -> Vec<String> {
    let mut seen = Vec::new();
    let mut note = |s: String| {
        if !seen.contains(&s) {
            seen.push(s);
        }
    };
    for (_, p, _) in progs {
        for layer in p.layers() {
            note(format!("{:?}", layer.mode));
            for tu in &layer.tus {
                for s in &tu.streams {
                    let name = match s {
                        StreamDef::Ite => "Ite".to_string(),
                        StreamDef::Mem { index, .. } => match index {
                            IndexSrc::Ite => "Mem/Ite".into(),
                            IndexSrc::Stream(_) => "Mem/Stream".into(),
                            IndexSrc::RelItePlus(_) => "Mem/RelItePlus".into(),
                        },
                        StreamDef::Lin { .. } => "Lin".into(),
                        StreamDef::Map { .. } => "Map".into(),
                        StreamDef::Ldr { .. } => "Ldr".into(),
                        StreamDef::Fwd { .. } => "Fwd".into(),
                    };
                    note(name);
                }
            }
            for cb in &layer.callbacks {
                note(format!("on {:?}", cb.event));
            }
            for op in &layer.operands {
                note(
                    match op {
                        OperandDef::Vec { .. } => "op Vec",
                        OperandDef::Mask => "op Mask",
                        OperandDef::Scalar { .. } => "op Scalar",
                    }
                    .into(),
                );
            }
        }
    }
    seen
}

/// Captured from the interpreter that allocated every step afresh.
const GOLDEN: &[(&str, Pin)] = &[
    ("SpMV P1", Pin(194, 0x8b78b3925da7c762)),
    ("SpMV P0", Pin(44, 0x17cab617b7ba92a1)),
    ("SpMSpV", Pin(688, 0x099c95e86f563487)),
    ("SpMM", Pin(554, 0x14440440e0bf81b8)),
    ("SpMSpM", Pin(458, 0xcfea03a3aae5760a)),
    ("SpKAdd", Pin(162, 0xcd4a32e3126c6be7)),
    ("PageRank", Pin(194, 0x4112c01520946560)),
    ("SDDMM", Pin(554, 0x14440440e0bf81b8)),
    ("TC", Pin(1368, 0x66fb7f2d4d50661c)),
    ("MTTKRP MP", Pin(602, 0xfff9f70e0d0a8c22)),
    ("MTTKRP CP", Pin(17, 0xbd1789dbc703a451)),
    ("SpTC", Pin(808, 0xdf8c65804d255c19)),
    ("SpTTV", Pin(130, 0xe1d6eee57ecaa5ef)),
    ("SpTTM", Pin(451, 0xf3bf999306b80d53)),
    ("csr→banded", Pin(194, 0xa69e01f85d28908f)),
    ("hashed→csr", Pin(162, 0x4aaf252a66f331dc)),
    ("expr SpMV", Pin(130, 0xff2104cf428b4f01)),
    ("expr SpMSpV", Pin(342, 0x2f6e53aaf7a1ee06)),
    ("expr SpMSpM", Pin(482, 0x51b3bee802b4634f)),
    ("expr add2", Pin(142, 0x03d2711bb9e7f7de)),
    ("expr add3", Pin(116, 0xa4eb3c64d2985693)),
    ("expr mixed", Pin(12880, 0xb9ffe53ce134d5d9)),
    ("hand-built", Pin(19, 0x3a0e7bce08b38ea8)),
];

#[test]
fn step_streams_match_the_golden_pins() {
    let progs = programs();
    let seen = coverage(&progs);
    for variant in [
        "Single",
        "Keep",
        "LockStep",
        "DisjMrg",
        "ConjMrg",
        "Ite",
        "Mem/Ite",
        "Mem/Stream",
        "Mem/RelItePlus",
        "Lin",
        "Map",
        "Ldr",
        "Fwd",
        "on Beg",
        "on Ite",
        "on End",
        "op Vec",
        "op Mask",
        "op Scalar",
    ] {
        assert!(
            seen.iter().any(|s| s == variant),
            "{variant} is not covered"
        );
    }
    let mut got = Vec::new();
    for (name, program, image) in progs {
        let prog = Arc::new(program);
        let pin = straight(&prog, &image);
        assert!(pin.0 > 2, "{name}: too short a stream to quiesce in");
        let resumed = through_restore(&prog, &image, pin.0 / 2);
        assert_eq!(resumed, pin, "{name}: replay diverged after a quiesce");
        got.push((name, pin));
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, pin), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(pin, want, "{name}: step stream changed");
    }
}
