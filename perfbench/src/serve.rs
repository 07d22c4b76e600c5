//! `serve-mix`: one seeded open-loop trace of kernels, einsum expressions
//! and GNN/CG/PageRank apps from two tenants, served round-robin on two
//! slots with preemption; each pass is one `serve()` call.

use std::collections::HashMap;
use std::time::Instant;

use tmu_serve::{
    serve, solo_app, solo_digest, synthesize, ArrivalKind, BuildCache, EntryDigest, JobKind,
    JobSpec, Policy, ServeConfig, ServeError, ServeOutcome, TraceConfig,
};

use crate::report::{measure, median, Outcome};
use crate::span::Recorder;
use crate::{kernels, Args, SETUP_REPS};

/// The trace of seed `seed`: 1000 Poisson arrivals, 2000 cycles apart on
/// average, drawn from every job shape the serving layer has.
fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        tenants: 2,
        jobs: 1000,
        mean_gap: 2000,
        seed,
        with_exprs: true,
        with_apps: true,
        arrivals: ArrivalKind::Poisson,
        deadline_slack: 0,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        slots: 2,
        quantum: 1000,
        policy: Policy::RoundRobin,
        ..ServeConfig::default()
    }
}

/// The distinct job shapes of `trace`, in first-arrival order.
fn distinct_kinds(trace: &[JobSpec]) -> Vec<JobKind> {
    let mut kinds: Vec<JobKind> = Vec::new();
    for job in trace {
        if !kinds.contains(&job.kind) {
            kinds.push(job.kind.clone());
        }
    }
    kinds
}

/// A cold `BuildCache` holding every single-stage shape of `kinds` (app
/// jobs build through the stage cache inside `serve()` instead).
fn build_cache(kinds: &[JobKind]) -> Result<BuildCache, String> {
    let mut cache = BuildCache::with_cap(0);
    for kind in kinds {
        if kind.app_spec().is_none() {
            cache.get(kind)?;
        }
    }
    Ok(cache)
}

/// The span detail of a job shape.
fn shape_name(kind: &JobKind) -> &'static str {
    match kind {
        JobKind::Kernel { kind, .. } => kind.name(),
        JobKind::Expr { .. } => "expr",
        JobKind::App { app, .. } => app.name(),
    }
}

/// The digest a job of `kind` (with id `id`) produces when run alone.
fn solo(cache: &mut BuildCache, kind: &JobKind, id: u32) -> Result<EntryDigest, ServeError> {
    match kind.app_spec() {
        Some(spec) => Ok(solo_app(spec)?.digest),
        None => {
            let built = cache
                .get(kind)
                .map_err(|detail| ServeError::Build { job: id, detail })?;
            solo_digest(&built, id)
        }
    }
}

/// The simulated results every pass must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimResult {
    makespan: u64,
    p99: u64,
    preemptions: u64,
}

fn sim_result(out: &ServeOutcome) -> SimResult {
    let mut sojourns: Vec<u64> = out.outcomes.iter().map(|o| o.sojourn_cycles()).collect();
    sojourns.sort_unstable();
    SimResult {
        makespan: out.makespan,
        p99: tmu_serve::percentile(&sojourns, 99),
        preemptions: out.preemptions,
    }
}

/// Checks one served pass outside its timed part: every arrival is
/// accounted for, every job completed with the digest of its solo run,
/// and the simulated results equal the warm-up pass's.
struct Checker {
    trace: Vec<JobSpec>,
    /// Job id → index into `trace`.
    by_id: HashMap<u32, usize>,
    cache: BuildCache,
    /// Solo digests, one per shape: a job's digest does not depend on
    /// its id, so later passes compare against these.
    refs: HashMap<JobKind, EntryDigest>,
    reference: Option<SimResult>,
}

impl Checker {
    fn new(trace: Vec<JobSpec>, cache: BuildCache) -> Self {
        let by_id = trace.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
        Self {
            trace,
            by_id,
            cache,
            refs: HashMap::new(),
            reference: None,
        }
    }

    /// Checks `served`. With `per_job`, every completion is re-run alone
    /// under its own id (a span each) instead of looked up per shape;
    /// returns the host seconds of those solo runs.
    fn check(
        &mut self,
        served: &Result<ServeOutcome, ServeError>,
        per_job: bool,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> f64 {
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve failed: {e}");
                out.tally(self.trace.len() as u64, 0);
                return 0.0;
            }
        };
        let sim = sim_result(served);
        let same = *self.reference.get_or_insert(sim) == sim;
        if !same || !served.conserves(self.trace.len()) {
            eprintln!(
                "serve: {sim:?} against {:?}, or arrivals lost",
                self.reference
            );
        }
        let mut solo_s = 0.0;
        let mut matched = 0usize;
        for o in &served.outcomes {
            let Some(&i) = self.by_id.get(&o.id) else {
                continue;
            };
            let kind = &self.trace[i].kind;
            let want = if per_job {
                let open = rec.open("serve.solo", shape_name(kind));
                let d = solo(&mut self.cache, kind, o.id);
                solo_s += rec.close(open);
                d
            } else if let Some(&d) = self.refs.get(kind) {
                Ok(d)
            } else {
                solo(&mut self.cache, kind, o.id)
            };
            match want {
                Ok(d) if d == o.digest => {
                    self.refs.insert(kind.clone(), d);
                    matched += 1;
                }
                Ok(d) => eprintln!("job {}: digest {:?}, solo {d:?}", o.id, o.digest),
                Err(e) => eprintln!("job {}: solo run failed: {e}", o.id),
            }
        }
        // Completions with the solo digest pass; everything else (a
        // mismatch, a shed or failed arrival, a pass that diverged from
        // the warm-up) counts as failed.
        let ok = same && served.conserves(self.trace.len());
        out.tally(self.trace.len() as u64, if ok { matched as u64 } else { 0 });
        solo_s
    }
}

/// Runs the workload: set-up, one discarded warm-up pass, then checked
/// passes for `args.seconds`.
pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut synth_s, mut build_s) = (Vec::new(), Vec::new());
    let mut built: Option<(Vec<JobSpec>, BuildCache)> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (trace, s) = rec.time("serve.synthesize", || synthesize(&trace_config(args.seed)));
        let kinds = distinct_kinds(&trace);
        let (cache, b) = rec.time("serve.build", || build_cache(&kinds));
        let cache = match cache {
            Ok(c) => c,
            Err(e) => {
                eprintln!("serve-mix: build failed: {e}");
                out.check(false);
                return;
            }
        };
        synth_s.push(s);
        build_s.push(b);
        built = Some((trace, cache));
    }
    let (trace, cache) = built.expect("SETUP_REPS > 0");
    let mut checker = Checker::new(trace.clone(), cache);

    let warm = Instant::now();
    let served = serve(serve_config(), trace.clone());
    let warm_s = warm.elapsed().as_secs_f64();
    checker.check(&served, false, rec, out);
    let Ok(first) = served else {
        return;
    };
    let sim = sim_result(&first);
    let completed = first.outcomes.len() as f64;

    // A traced run reports every layer. The kernel layers, which its
    // passes do not run, are measured once within the run's time window.
    let window = Instant::now();
    if args.trace {
        kernels::layers(args.seed, rec, out);
    }
    let seconds = (args.seconds - window.elapsed().as_secs_f64()).max(0.0);

    let mut run_s = Vec::new();
    let mut solo_s = None;
    let times = measure(seconds, args.trace, rec, |rec, traced| {
        let open = rec.open("serve.run", "");
        let served = serve(serve_config(), trace.clone());
        let wall = rec.close(open);
        let per_job = traced && solo_s.is_none();
        let s = checker.check(&served, per_job, rec, out);
        if traced {
            run_s.push(wall);
            if per_job {
                solo_s = Some(s);
            }
        }
        wall
    });

    if !args.trace {
        let setup_s: Vec<f64> = synth_s.iter().zip(&build_s).map(|(a, b)| a + b).collect();
        let wall = times.wall_s();
        out.put("wall_s", wall, "s");
        out.put(
            "sim_mcycles_per_s",
            sim.makespan as f64 / 1e6 / wall,
            "Mcycles/s",
        );
        out.put("jobs_per_s", completed / wall, "1/s");
        out.put("setup_s", median(&setup_s) + warm_s, "s");
        out.put("sim_mcycles", sim.makespan as f64 / 1e6, "Mcycles");
        out.put("peak_rss_mb", times.peak_rss_mb(), "MB");
        return;
    }

    let t = LayerTimes {
        synth_s: median(&synth_s),
        build_s: median(&build_s),
        run_s: median(&run_s),
        solo_s: solo_s.expect("the first traced pass runs every job alone"),
    };
    report(&first, &t, out);
    out.put("trace.overhead_s", times.overhead_s(), "s");
}

/// Host seconds of the serving layers.
struct LayerTimes {
    synth_s: f64,
    build_s: f64,
    run_s: f64,
    solo_s: f64,
}

/// Reports the `serve.*` metrics of served pass `first`.
fn report(first: &ServeOutcome, t: &LayerTimes, out: &mut Outcome) {
    let sim = sim_result(first);
    out.put("serve.synth_s", t.synth_s, "s");
    out.put("serve.build_s", t.build_s, "s");
    out.put("serve.build_hits", first.build_hits as f64, "count");
    out.put("serve.build_misses", first.build_misses as f64, "count");
    out.put("serve.run_s", t.run_s, "s");
    out.put("serve.solo_engine_s", t.solo_s, "s");
    out.put("serve.sched_s", t.run_s - t.solo_s, "s");
    out.put("serve.preemptions", sim.preemptions as f64, "count");
    out.put(
        "serve.makespan_kcycles",
        sim.makespan as f64 / 1e3,
        "kcycles",
    );
    out.put("serve.p99_kcycles", sim.p99 as f64 / 1e3, "kcycles");
    let (mut hits, mut total) = (0u64, 0u64);
    for c in first.tenant_cache.values() {
        hits += c.tensor_hits + c.program_hits;
        total += c.tensor_hits + c.program_hits + c.tensor_misses + c.program_misses;
    }
    let hit_rate = hits as f64 / total.max(1) as f64;
    out.put("serve.stage_cache_hit_rate", hit_rate, "fraction");
}

/// Measures the serving layers once, for the traced run of a workload
/// whose passes serve nothing: set-up, then one served pass whose every
/// completion is checked against its own solo run.
pub fn layers(seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    let (trace, synth_s) = rec.time("serve.synthesize", || synthesize(&trace_config(seed)));
    let kinds = distinct_kinds(&trace);
    let (cache, build_s) = rec.time("serve.build", || build_cache(&kinds));
    let cache = match cache {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: build failed: {e}");
            out.check(false);
            return;
        }
    };
    let mut checker = Checker::new(trace.clone(), cache);
    let open = rec.open("serve.run", "");
    let served = serve(serve_config(), trace);
    let run_s = rec.close(open);
    let solo_s = checker.check(&served, true, rec, out);
    if let Ok(first) = &served {
        let t = LayerTimes {
            synth_s,
            build_s,
            run_s,
            solo_s,
        };
        report(first, &t, out);
    }
}
