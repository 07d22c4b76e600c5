//! `kernels-tmu` and `kernels-baseline`: SpMV, SpMSpM and SpKAdd on the M3
//! (circuit) stand-in, each pass simulating all three on fresh Table 5
//! systems through `Workload::run_tmu` or `Workload::run_baseline`.

use std::time::Instant;

use tmu::{OutQSnapshot, TmuConfig};
use tmu_kernels::workload::Workload;
use tmu_sim::{configs, CacheLevelStats, CoreStats, RunStats};
use tmu_tensor::gen::{InputId, ScaledInput};
use tmu_tensor::CsrMatrix;

use crate::report::{measure, median, Outcome};
use crate::span::Recorder;
use crate::{engine, serve, Args, SETUP_REPS};

/// The kernels of one pass, in run order.
const KERNELS: [&str; 3] = ["SpMV", "SpMSpM", "SpKAdd"];
/// Input scale of the M3 stand-in.
const SCALE: f64 = 0.1;

/// Which engine runs the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `EngineVariant::Tmu`: the TMU marshals, the core computes.
    Tmu,
    /// `EngineVariant::BaselineSve`: vectorized software only.
    Baseline,
}

impl Engine {
    /// The span name of a kernel run, and the prefix of its metrics.
    fn layer(self) -> &'static str {
        match self {
            Engine::Tmu => "sim.tmu",
            Engine::Baseline => "sim.baseline",
        }
    }

    /// The other engine.
    fn other(self) -> Engine {
        match self {
            Engine::Tmu => Engine::Baseline,
            Engine::Baseline => Engine::Tmu,
        }
    }
}

/// The M3 stand-in for `seed`: the input every kernel of the workload
/// runs on, and the engine drive's input on every workload.
pub fn m3(seed: u64) -> CsrMatrix {
    ScaledInput {
        id: InputId::M3,
        scale: SCALE,
        seed,
    }
    .matrix()
}

/// The workload's kernels over `m`, through `tmu_bench::matrix_kernel`.
fn build(m: &CsrMatrix) -> Vec<Box<dyn Workload>> {
    KERNELS
        .iter()
        .map(|k| tmu_bench::matrix_kernel(k, m))
        .collect()
}

/// One kernel's simulation in one pass.
struct KernelRun {
    host_s: f64,
    stats: RunStats,
    outq: Vec<OutQSnapshot>,
}

/// Simulates every kernel once; each run is a span of its own.
fn pass(ws: &[Box<dyn Workload>], engine: Engine, rec: &mut Recorder) -> Vec<KernelRun> {
    let sys = configs::neoverse_n1_system();
    ws.iter()
        .map(|w| {
            let open = rec.open(engine.layer(), w.name());
            let (stats, outq) = match engine {
                Engine::Tmu => {
                    let run = w.run_tmu(sys, TmuConfig::paper());
                    (run.stats, run.outq.iter().map(|o| o.snapshot()).collect())
                }
                Engine::Baseline => (w.run_baseline(sys), Vec::new()),
            };
            let host_s = rec.close(open);
            KernelRun {
                host_s,
                stats,
                outq,
            }
        })
        .collect()
}

/// Checks one pass outside its timed part: `Workload::verify` for every
/// kernel, no engine retired, and the same simulated cycles as `reference`.
/// Returns the host seconds spent in `verify`.
fn check(
    ws: &[Box<dyn Workload>],
    runs: &[KernelRun],
    reference: &[u64],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> f64 {
    let mut verify_s = 0.0;
    for ((w, run), &cycles) in ws.iter().zip(runs).zip(reference) {
        let open = rec.open("kernels.verify", w.name());
        let verdict = w.verify();
        verify_s += rec.close(open);
        if let Err(e) = &verdict {
            eprintln!("{}: verify failed: {e}", w.name());
        }
        if run.stats.cycles != cycles {
            eprintln!(
                "{}: {} simulated cycles, the warm-up pass had {cycles}",
                w.name(),
                run.stats.cycles
            );
        }
        let retired = run.outq.iter().any(|o| o.retired);
        out.check(verdict.is_ok() && run.stats.cycles == cycles && !retired);
    }
    verify_s
}

/// Runs the workload: set-up, one discarded warm-up pass, then checked
/// passes for `args.seconds`.
pub fn run(engine: Engine, args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut gen_s, mut build_s) = (Vec::new(), Vec::new());
    let mut built: Option<(CsrMatrix, Vec<Box<dyn Workload>>)> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (m, g) = rec.time("tensor.gen", || m3(args.seed));
        let (ws, b) = rec.time("kernels.build", || build(&m));
        gen_s.push(g);
        build_s.push(b);
        built = Some((m, ws));
    }
    let (m, ws) = built.expect("SETUP_REPS > 0");

    let warm = Instant::now();
    let warm_runs = pass(&ws, engine, rec);
    let warm_s = warm.elapsed().as_secs_f64();
    let reference: Vec<u64> = warm_runs.iter().map(|r| r.stats.cycles).collect();
    let mut verify_s = vec![check(&ws, &warm_runs, &reference, rec, out)];

    // A traced run reports every layer. Those its passes do not run are
    // measured once each, within the run's time window.
    let window = Instant::now();
    if args.trace {
        let (other, _) = probe(&build(&m), engine.other(), rec, out);
        if engine == Engine::Baseline {
            outq_counters(&other, out);
        }
        engine::report(&m, rec, out);
        serve::layers(args.seed, rec, out);
    }
    let seconds = (args.seconds - window.elapsed().as_secs_f64()).max(0.0);

    let mut sim_s = Vec::new();
    let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    let times = measure(seconds, args.trace, rec, |rec, traced| {
        let open = rec.open("pass", "");
        let runs = pass(&ws, engine, rec);
        let wall = rec.close(open);
        verify_s.push(check(&ws, &runs, &reference, rec, out));
        if traced {
            sim_s.push(runs.iter().map(|r| r.host_s).sum());
            for (acc, r) in per_kernel.iter_mut().zip(&runs) {
                acc.push(r.host_s);
            }
        }
        wall
    });

    let cycles: u64 = reference.iter().sum();
    let mcycles = cycles as f64 / 1e6;
    if !args.trace {
        let setup_s: Vec<f64> = gen_s.iter().zip(&build_s).map(|(g, b)| g + b).collect();
        let wall = times.wall_s();
        out.put("wall_s", wall, "s");
        out.put("sim_mcycles_per_s", mcycles / wall, "Mcycles/s");
        out.put("jobs_per_s", KERNELS.len() as f64 / wall, "1/s");
        out.put("setup_s", median(&setup_s) + warm_s, "s");
        out.put("sim_mcycles", mcycles, "Mcycles");
        out.put("peak_rss_mb", times.peak_rss_mb(), "MB");
        return;
    }

    out.put("tensor.gen_s", median(&gen_s), "s");
    out.put("kernels.build_s", median(&build_s), "s");
    out.put("kernels.verify_s", median(&verify_s), "s");
    let per_kernel: Vec<f64> = per_kernel.iter().map(|xs| median(xs)).collect();
    put_sim(engine, median(&sim_s), &per_kernel, cycles, out);
    counters(&warm_runs, out);
    if engine == Engine::Tmu {
        outq_counters(&warm_runs, out);
    }
    out.put("trace.overhead_s", times.overhead_s(), "s");
}

/// Reports the host time of `engine`'s kernel runs: `sim_s` for a pass of
/// `cycles` simulated cycles, and `per_kernel` in [`KERNELS`] order.
fn put_sim(engine: Engine, sim_s: f64, per_kernel: &[f64], cycles: u64, out: &mut Outcome) {
    let layer = engine.layer();
    out.put(format!("{layer}_s"), sim_s, "s");
    out.put(
        format!("{layer}_ns_per_cycle"),
        sim_s / cycles as f64 * 1e9,
        "ns",
    );
    for (k, s) in KERNELS.iter().zip(per_kernel) {
        out.put(format!("{layer}.{}_s", k.to_lowercase()), *s, "s");
    }
}

/// One checked pass of `engine` over `ws`, in a traced run whose own
/// passes do not run that engine. Reports its `sim.<engine>` metrics and
/// returns the runs and the host seconds spent in `verify`.
fn probe(
    ws: &[Box<dyn Workload>],
    engine: Engine,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (Vec<KernelRun>, f64) {
    let runs = pass(ws, engine, rec);
    let cycles: Vec<u64> = runs.iter().map(|r| r.stats.cycles).collect();
    let verify_s = check(ws, &runs, &cycles, rec, out);
    let per_kernel: Vec<f64> = runs.iter().map(|r| r.host_s).collect();
    let sim_s = per_kernel.iter().sum();
    put_sim(engine, sim_s, &per_kernel, cycles.iter().sum(), out);
    (runs, verify_s)
}

/// Measures the kernel layers once, for the traced run of a workload
/// whose passes run no kernels: generation and construction, one checked
/// pass of each engine with the TMU pass's counters, and the engine drive.
pub fn layers(seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    let (m, gen_s) = rec.time("tensor.gen", || m3(seed));
    let (ws, build_s) = rec.time("kernels.build", || build(&m));
    out.put("tensor.gen_s", gen_s, "s");
    out.put("kernels.build_s", build_s, "s");
    let (tmu_runs, tmu_verify_s) = probe(&ws, Engine::Tmu, rec, out);
    counters(&tmu_runs, out);
    outq_counters(&tmu_runs, out);
    let (_, baseline_verify_s) = probe(&ws, Engine::Baseline, rec, out);
    let verify_s = median(&[tmu_verify_s, baseline_verify_s]);
    out.put("kernels.verify_s", verify_s, "s");
    engine::report(&m, rec, out);
}

/// The simulated core and memory counters of one pass, summed over kernels.
fn counters(runs: &[KernelRun], out: &mut Outcome) {
    let mut core = CoreStats::default();
    let (mut l1, mut llc) = (CacheLevelStats::default(), CacheLevelStats::default());
    let mut dram_lines = 0;
    for r in runs {
        core.merge(&r.stats.total());
        let m = &r.stats.mem;
        l1.absorb(m.l1.hits, m.l1.misses, m.l1.merged, m.l1.writebacks);
        llc.absorb(m.llc.hits, m.llc.misses, m.llc.merged, m.llc.writebacks);
        dram_lines += m.dram_lines_read + m.dram_lines_written;
    }
    let (committing, frontend, backend) = core.breakdown();
    out.put("core.committing_frac", committing, "fraction");
    out.put("core.frontend_frac", frontend, "fraction");
    out.put("core.backend_frac", backend, "fraction");
    out.put("mem.l1_miss_rate", l1.miss_rate(), "fraction");
    out.put("mem.llc_miss_rate", llc.miss_rate(), "fraction");
    out.put("mem.dram_lines", dram_lines as f64, "count");
}

/// The outQ counters of one TMU pass, summed over kernels and lanes.
fn outq_counters(runs: &[KernelRun], out: &mut Outcome) {
    let outq = || runs.iter().flat_map(|r| &r.outq);
    let entries: u64 = outq().map(|o| o.entries).sum();
    let backpressure: u64 = outq().map(|o| o.backpressure_cycles).sum();
    out.put("tmu.outq.entries", entries as f64, "count");
    out.put("tmu.outq.backpressure_cycles", backpressure as f64, "count");
}
