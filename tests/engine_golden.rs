//! Golden pins of the TMU engine's simulated behaviour.
//!
//! SpMV, SpMSpM and SpKAdd on a small M3 input, two seeds. Every number
//! below was captured from the tick-by-tick engine; a host-speed change to
//! the engine must leave all of them equal:
//!
//! * full-system runs (`Workload::run_tmu` on the Table 5 system): run
//!   cycles, the core cycle classes, and each engine's outQ statistics
//!   (entries, back-pressure cycles, and a digest of every chunk's
//!   open/ready/ack cycles);
//! * standalone engine drives of the same programs against a bare memory
//!   system and a core that acknowledges each chunk a fixed delay after it
//!   becomes visible: cycles, the four arbiter `debug_counters`, and the
//!   same outQ statistics.

use std::collections::VecDeque;
use std::sync::Arc;

use tmu::{CallbackHandler, MemImage, OutQEntry, OutQStats, Program, TmuAccelerator, TmuConfig};
use tmu_kernels::spkadd::Spkadd;
use tmu_kernels::spmspm::Spmspm;
use tmu_kernels::spmv::Spmv;
use tmu_kernels::Workload;
use tmu_sim::{configs, Accelerator, MemSys, MemSysConfig, OpId, OpKind, VecMachine};
use tmu_tensor::gen::{InputId, ScaledInput};
use tmu_tensor::CsrMatrix;

const SCALE: f64 = 0.01;
const SEEDS: [u64; 2] = [1, 2];
/// Cycles between a chunk becoming visible and the standalone core's ack.
const ACK_DELAY: u64 = 400;

fn m3(seed: u64) -> CsrMatrix {
    ScaledInput {
        id: InputId::M3,
        scale: SCALE,
        seed,
    }
    .matrix()
}

/// One engine's outQ statistics: entries, back-pressure cycles, chunks,
/// and an FNV-1a digest over each chunk's (open, ready, ack, entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutQPin(u64, u64, usize, u64);

impl OutQPin {
    fn of(st: &OutQStats) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in &st.chunks {
            for v in [c.open, c.ready, c.ack, u64::from(c.entries)] {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        Self(st.entries, st.backpressure_cycles, st.chunks.len(), h)
    }
}

/// A standalone engine drive: cycles, `debug_counters`, outQ statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DrivePin {
    cycles: u64,
    counters: [u64; 4],
    outq: OutQPin,
}

/// One kernel on one seed. The full-system half: run cycles, summed
/// (committing, frontend, backend) core cycles, one [`OutQPin`] per
/// engine. The standalone half: [`DrivePin`].
#[derive(Debug, PartialEq, Eq)]
struct Golden<E> {
    kernel: &'static str,
    seed: u64,
    cycles: u64,
    classes: [u64; 3],
    engines: E,
    drive: DrivePin,
}

/// Captured from the tick-by-tick engine (one entry per kernel and seed).
const GOLDEN: &[Golden<&[OutQPin]>] = &[
    Golden {
        kernel: "SpMV",
        seed: 1,
        cycles: 1911,
        classes: [1665, 12201, 1422],
        engines: &[
            OutQPin(274, 0, 5, 0x559219a761d06273),
            OutQPin(268, 0, 5, 0xcfae9bc6d3362419),
            OutQPin(262, 0, 5, 0xad3cee79da12e4c2),
            OutQPin(264, 0, 5, 0x6ff60ec8cb71c478),
            OutQPin(264, 0, 5, 0x3ae43e97db7a99cc),
            OutQPin(260, 0, 5, 0x4bc0e1225f294012),
            OutQPin(264, 0, 5, 0x304bbb1484e54621),
            OutQPin(264, 0, 5, 0x3af20afd49f4bd3c),
        ],
        drive: DrivePin {
            cycles: 10845,
            counters: [8749, 18246, 167024, 4894],
            outq: OutQPin(2120, 3422, 34, 0x00a9d30d744d7ce6),
        },
    },
    Golden {
        kernel: "SpMSpM",
        seed: 1,
        cycles: 33306,
        classes: [43950, 110510, 111988],
        engines: &[
            OutQPin(861, 1400, 14, 0x44511bc2215492c6),
            OutQPin(909, 928, 15, 0x765b7602f0a494df),
            OutQPin(878, 201, 14, 0x927c4076a8a6a8cd),
            OutQPin(954, 3438, 15, 0xbf2c37e32114db37),
            OutQPin(996, 2152, 16, 0x9a607776aeaaaf72),
            OutQPin(970, 4450, 16, 0xa6881e902551c713),
            OutQPin(899, 557, 15, 0xf65cbb62b6994c4f),
            OutQPin(919, 2800, 15, 0x803d203934fb8d6b),
        ],
        drive: DrivePin {
            cycles: 57390,
            counters: [45492, 263806, 863865, 46088],
            outq: OutQPin(7386, 2551, 116, 0xaa098c32e0b55616),
        },
    },
    Golden {
        kernel: "SpKAdd",
        seed: 1,
        cycles: 2375,
        classes: [7238, 9408, 2354],
        engines: &[
            OutQPin(451, 57, 8, 0x3e58262481a86b7a),
            OutQPin(481, 26, 8, 0x6662aa7683a8922d),
            OutQPin(479, 145, 8, 0x74fe3ffd26812e3a),
            OutQPin(480, 15, 8, 0x464f1695dbc706c6),
            OutQPin(482, 86, 8, 0xe8558dee9d63b1fb),
            OutQPin(484, 277, 8, 0xe1d797b1cb294c4c),
            OutQPin(487, 64, 8, 0xd54a0ee64b10c791),
            OutQPin(363, 134, 6, 0x0939018815bb1ab8),
        ],
        drive: DrivePin {
            cycles: 14608,
            counters: [13032, 332929, 213886, 1307],
            outq: OutQPin(3707, 9185, 58, 0x021a9bb319168918),
        },
    },
    Golden {
        kernel: "SpMV",
        seed: 2,
        cycles: 1878,
        classes: [1667, 11931, 1426],
        engines: &[
            OutQPin(270, 0, 5, 0xd4ecf23ba6cf12a8),
            OutQPin(268, 0, 5, 0xb6614cbbb7302921),
            OutQPin(266, 0, 5, 0x2118d2ce3ee6d78b),
            OutQPin(262, 0, 5, 0x35644c6c0b1fa7a7),
            OutQPin(260, 0, 5, 0x4757e7cb8a271f51),
            OutQPin(266, 0, 5, 0xf610385aada5cf6d),
            OutQPin(262, 0, 5, 0x3d51b1c4adbab6ce),
            OutQPin(266, 0, 5, 0xc6c17515393356e5),
        ],
        drive: DrivePin {
            cycles: 11082,
            counters: [9010, 18760, 167344, 5306],
            outq: OutQPin(2120, 3247, 34, 0x54a24e76214d622b),
        },
    },
    Golden {
        kernel: "SpMSpM",
        seed: 2,
        cycles: 32368,
        classes: [43371, 101679, 113894],
        engines: &[
            OutQPin(911, 1314, 15, 0x4845745b41b97ef8),
            OutQPin(854, 768, 14, 0x992d30547e1add14),
            OutQPin(914, 70, 15, 0xc3cba8a89a972366),
            OutQPin(919, 271, 15, 0x5d957fa0ad8429e3),
            OutQPin(959, 455, 15, 0xb69921195a8c3fbf),
            OutQPin(877, 2498, 14, 0x66bffcbad30088ba),
            OutQPin(967, 2732, 16, 0xff1b01fa3aad15ab),
            OutQPin(912, 0, 15, 0xc90aa410e8e59fb7),
        ],
        drive: DrivePin {
            cycles: 56393,
            counters: [44539, 257863, 844963, 45509],
            outq: OutQPin(7313, 2184, 115, 0x841a3e413ad811d1),
        },
    },
    Golden {
        kernel: "SpKAdd",
        seed: 2,
        cycles: 2406,
        classes: [7249, 9576, 2423],
        engines: &[
            OutQPin(464, 180, 8, 0x6f4095a71f304ee4),
            OutQPin(471, 85, 8, 0x807d2feec77782dd),
            OutQPin(491, 54, 8, 0x97109a0d57d23b03),
            OutQPin(474, 65, 8, 0x415c957a70bdebed),
            OutQPin(491, 76, 8, 0xc7b1f3368840138f),
            OutQPin(492, 63, 8, 0xe57a066c4d608650),
            OutQPin(479, 21, 8, 0x75de81c2323e0046),
            OutQPin(349, 0, 6, 0xbc7489a5741b55b4),
        ],
        drive: DrivePin {
            cycles: 14658,
            counters: [13023, 332617, 213699, 1316],
            outq: OutQPin(3711, 9222, 58, 0xa1b5ff419afe8474),
        },
    },
];

/// The three kernels over `m`: the whole-input TMU program the standalone
/// drive runs, its memory image and outQ base, and the workload itself.
type Case = (Program, Arc<MemImage>, u64, Box<dyn Workload>);

fn cases(m: &CsrMatrix) -> [Case; 3] {
    let lanes = TmuConfig::paper().lanes;
    let spmv = Spmv::new(m);
    let spmspm = Spmspm::new(m);
    let spkadd = Spkadd::new(m);
    let kadd_rows = spkadd.reference().rows();
    [
        (
            spmv.build_program((0, m.rows()), lanes),
            spmv.image_handle(),
            spmv.outq_base(0),
            Box::new(spmv) as Box<dyn Workload>,
        ),
        (
            spmspm.build_program((0, m.rows()), lanes),
            spmspm.image_handle(),
            spmspm.outq_base(0),
            Box::new(spmspm),
        ),
        (
            spkadd.build_program((0, kadd_rows), lanes),
            spkadd.image_handle(),
            spkadd.outq_base(0),
            Box::new(spkadd),
        ),
    ]
}

/// Host callbacks are irrelevant to a standalone drive: only the engine
/// and its acknowledgments are simulated.
struct NoCallbacks;

impl CallbackHandler for NoCallbacks {
    fn handle(&mut self, _entry: &OutQEntry, _load: OpId, _m: &mut VecMachine) {}
}

fn drive(program: Program, image: Arc<MemImage>, outq_base: u64) -> DrivePin {
    let mut accel = TmuAccelerator::new(
        TmuConfig::paper(),
        Arc::new(program),
        image,
        NoCallbacks,
        outq_base,
    );
    let stats = accel.stats_handle();
    let mut mem = MemSys::new(MemSysConfig::table5(1));
    let mut sink = Vec::new();
    let mut acks: VecDeque<(u64, u32)> = VecDeque::new();
    let mut now = 0u64;
    while !accel.done() || !acks.is_empty() {
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
        now += 1;
        assert!(now < 50_000_000, "standalone drive must terminate");
    }
    let outq = OutQPin::of(&stats.lock().expect("stats"));
    DrivePin {
        cycles: now,
        counters: accel.debug_counters,
        outq,
    }
}

/// Runs every kernel on every seed.
fn observe() -> Vec<Golden<Vec<OutQPin>>> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let m = m3(seed);
        for (program, image, base, w) in cases(&m) {
            let run = w.run_tmu(configs::neoverse_n1_system(), TmuConfig::paper());
            w.verify().expect("TMU run matches the reference");
            let total = run.stats.total();
            out.push(Golden {
                kernel: w.name(),
                seed,
                cycles: run.stats.cycles,
                classes: [total.committing, total.frontend, total.backend],
                engines: run.outq.iter().map(OutQPin::of).collect(),
                drive: drive(program, image, base),
            });
        }
    }
    out
}

#[test]
fn engine_numbers_match_the_golden_pins() {
    let got = observe();
    assert_eq!(got.len(), GOLDEN.len());
    for (got, want) in got.iter().zip(GOLDEN) {
        let want = Golden {
            kernel: want.kernel,
            seed: want.seed,
            cycles: want.cycles,
            classes: want.classes,
            engines: want.engines.to_vec(),
            drive: want.drive,
        };
        assert_eq!(*got, want, "{} seed {}", want.kernel, want.seed);
    }
}
