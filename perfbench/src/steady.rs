//! The steady-state workloads: one app on the compiled engine.
//!
//! Each trial runs initialization plus `k` steady iterations from the
//! same seeded input.  Trials alternate between a short and a long `k`;
//! the difference of their medians is the steady slope, so init and
//! priming never count as steady-state time.  Trials are timed in the
//! CPU time of the thread running them (see [`util::thread_cpu_s`]).
//!
//! The traced run adds the engine's per-layer breakdown, the
//! handwritten yardstick, the same app on the 2-thread parallel runtime
//! (its stage balance and waiting) and, for the FIR radio, its
//! frequency-replaced form on native FFT kernels.

use std::time::Instant;

use streamit::exec::plan::Op;
use streamit::exec::CompiledGraph;
use streamit::linear::LinearMode;
use streamit::rt::ParallelGraph;
use streamit::{CompiledProgram, Compiler, Options};

use crate::compile::{phase_metrics, set_counts};
use crate::pipeline::{self, Ctor, Entry};
use crate::stats::{fit_two_lengths, median, percentile, tail_percentile};
use crate::trace;
use crate::util::{self, Rng, Tolerance};
use crate::yardstick;
use crate::{Ctx, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// fmradio(10,64), linear optimization off: FIR peek loops.
    Fir,
    /// bitonic_sort(32): tiny comparators, per-op overhead.
    Sort,
    /// fmradio(10,64) under frequency replacement: FFT kernels.
    FirFreq,
}

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Fir => "fir",
            App::Sort => "sort",
            App::FirFreq => "fir_freq",
        }
    }

    fn ctor(self) -> Ctor {
        match self {
            App::Fir | App::FirFreq => || streamit::apps::fmradio::fmradio(10, 64),
            App::Sort => || streamit::apps::bitonic::bitonic_sort(32),
        }
    }

    fn options(self) -> Options {
        Options {
            linear: match self {
                App::FirFreq => Some(LinearMode::Frequency),
                _ => None,
            },
            ..Options::default()
        }
    }

    /// Steady iterations in a short and a long trial: the long trial
    /// takes on the order of 50 ms on one core, the short one a
    /// sixteenth of its iterations (a wide gap keeps the slope's
    /// relative error close to the trials').
    fn lengths(self) -> (u64, u64) {
        let long = match self {
            App::Fir => 2048,
            App::Sort => 1024,
            App::FirFreq => 4096,
        };
        (long / 16, long)
    }

    fn input(self, seed: u64, len: usize) -> Vec<f64> {
        let mut rng = Rng::lane(seed, self as u64);
        match self {
            App::Sort => util::int_input(&mut rng, len),
            App::Fir | App::FirFreq => util::float_input(&mut rng, len),
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Outputs of every trial compared with the reference interpreter.
const CHECK_OUTPUTS: usize = 512;

/// One app, compiled and primed.
struct Prepared {
    app: App,
    program: CompiledProgram,
    graph: CompiledGraph,
    input: Vec<f64>,
}

/// Compile `app`, generate its input, and run initialization once:
/// everything before the first timed trial.
fn prepare(ctx: &Ctx, app: App, out: &mut Outcome) -> Option<Prepared> {
    let compiled = Compiler::new(app.options())
        .compile_stream(app.ctor()())
        .map_err(|e| e.to_string())
        .and_then(|program| {
            let graph = program.compile_exec().map_err(|e| e.to_string())?;
            Ok((program, graph))
        });
    let (program, graph) = match compiled {
        Ok(p) => p,
        Err(msg) => {
            out.check(Err(format!("{}: {msg}", app.name())));
            return None;
        }
    };
    let input = app.input(ctx.seed, graph.required_input(app.lengths().1) as usize);
    out.check(
        graph
            .run_steady(&input, 0)
            .map(drop)
            .map_err(|e| e.to_string()),
    );
    Some(Prepared {
        app,
        program,
        graph,
        input,
    })
}

/// Set up `SETUP_REPS` times (median into `setup_s`); in a traced run
/// each repetition also compiles layer by layer under spans.
fn setup(ctx: &Ctx, app: App, out: &mut Outcome) -> Option<Prepared> {
    let entry = Entry::stream(app.name(), app.ctor(), app.options().linear);
    let targets = pipeline::Targets {
        exec: true,
        parallel: false,
    };
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        if ctx.trace {
            trace::set_enabled(true);
            match pipeline::compile_layers(&entry, targets, 0) {
                Ok(c) => set_counts(&c, out),
                Err(msg) => out.check(Err(msg)),
            }
            trace::set_enabled(false);
        }
        let t0 = util::thread_cpu_s();
        prepared = Some(prepare(ctx, app, out)?);
        times.push(util::thread_cpu_s() - t0);
    }
    out.set("setup_s", median(&times));
    if ctx.trace {
        phase_metrics(&trace::snapshot(), out);
    }
    prepared
}

/// Trial timings: `(k, seconds)`.
type Trials = Vec<(u64, f64)>;

/// Run one timed trial of `k` iterations and check its output prefix
/// against `first`, the longest prefix an earlier trial produced (which
/// a longer output extends).
fn trial(p: &Prepared, k: u64, first: &mut Vec<f64>, out: &mut Outcome) -> f64 {
    let _s = trace::span("exec.run_steady", k);
    let t0 = util::thread_cpu_s();
    let r = p.graph.run_steady(&p.input, k);
    let dt = util::thread_cpu_s() - t0;
    let want = p.graph.init_outputs() + k * p.graph.outputs_per_iteration();
    out.check(r.map_err(|e| e.to_string()).and_then(|o| {
        if o.len() as u64 != want {
            return Err(format!(
                "{}: {} outputs for k={k}, expected {want}",
                p.app.name(),
                o.len()
            ));
        }
        let n = o.len().min(first.len());
        util::compare(p.app.name(), Tolerance::Bit, &o[..n], first)?;
        if o.len() > first.len() && first.len() < CHECK_OUTPUTS {
            *first = o[..o.len().min(CHECK_OUTPUTS)].to_vec();
        }
        Ok(())
    }));
    dt
}

/// Alternate short and long trials for `budget` wall seconds.
fn measure(p: &Prepared, budget: f64, first: &mut Vec<f64>, out: &mut Outcome) -> Trials {
    let (short, long) = p.app.lengths();
    let mut trials = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0;
    while t0.elapsed().as_secs_f64() < budget || rounds < 3 {
        // Alternate which length goes first so drift hits both.
        let order = if rounds % 2 == 0 {
            [short, long]
        } else {
            [long, short]
        };
        for k in order {
            trials.push((k, trial(p, k, first, out)));
        }
        rounds += 1;
    }
    trials
}

/// Steady-slope output items/s, plus the long trials' median and tail
/// (ms).
fn summarize(p: &Prepared, trials: &Trials, out: &mut Outcome) -> (f64, f64, f64) {
    let (short, long) = p.app.lengths();
    let fit = fit_two_lengths(trials, short, long);
    let rate = p.graph.outputs_per_iteration() as f64 / fit.slope;
    let long_ms: Vec<f64> = trials
        .iter()
        .filter(|t| t.0 == long)
        .map(|t| t.1 * 1e3)
        .collect();
    let tp = tail_percentile(long_ms.len());
    let (p50, tail) = (median(&long_ms), percentile(&long_ms, tp));
    out.detail(format!(
        "{}: {} trials, {rate:.1} items/s, init {:.3} ms, long trial median {p50:.3} ms p{tp} {tail:.3} ms",
        p.app.name(),
        trials.len(),
        fit.intercept * 1e3,
    ));
    (rate, p50, tail)
}

pub fn run(ctx: &Ctx, app: App) -> Outcome {
    let mut out = Outcome::default();
    let Some(p) = setup(ctx, app, &mut out) else {
        return out;
    };
    let mut first = Vec::new();
    // A traced run spends a third of its time untraced (the baseline for
    // the tracing overhead), a third traced, and the rest on profiling.
    let budget = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let trials = measure(&p, budget, &mut first, &mut out);
    let (rate, p50, tail) = summarize(&p, &trials, &mut out);
    out.set("throughput", rate);
    out.set("p50_ms", p50);
    out.set("tail_ms", tail);
    if ctx.trace {
        trace::set_enabled(true);
        let traced = measure(&p, budget, &mut first, &mut out);
        trace::set_enabled(false);
        let (traced_rate, _, _) = summarize(&p, &traced, &mut out);
        out.set("trace.overhead", rate / traced_rate - 1.0);
    }
    check_reference(&p, &first, &mut out);
    if ctx.trace {
        engine_layers(ctx, &p, rate, &mut out);
        parallel_layers(ctx, app, &mut out);
        if app == App::Fir {
            freq_layers(ctx, &mut out);
        }
    }
    out
}

/// Compare a trial's output prefix with the reference interpreter.  A
/// frequency-replaced program reassociates, so it is compared with the
/// unoptimized program under the ULP policy.
fn check_reference(p: &Prepared, got: &[f64], out: &mut Outcome) {
    let tol = Tolerance::for_report(p.program.linear_report.as_ref());
    out.check(reference(p.app, &p.input, got.len()).and_then(|want| {
        util::compare(&format!("{} vs reference", p.app.name()), tol, got, &want)
    }));
}

/// The same radio under frequency replacement: native FFT kernels in
/// place of its FIR loops.  Per layer only: the kernels' speed swung
/// 3.2M to 6.2M items/s between runs on the shared host.
fn freq_layers(ctx: &Ctx, out: &mut Outcome) {
    let Some(p) = prepare(ctx, App::FirFreq, out) else {
        return;
    };
    for f in p.program.linear_report.iter().flat_map(|r| &r.freq_plans) {
        out.detail(format!(
            "frequency plan: {} block {} ({:.1} vs {:.1} modelled flops/output)",
            f.node, f.block, f.freq_cost, f.direct_cost
        ));
    }
    let mut first = Vec::new();
    let trials = measure(&p, ctx.seconds / 6.0, &mut first, out);
    let (rate, _, _) = summarize(&p, &trials, out);
    out.set("exec.freq.items_per_s", rate);
    out.set("exec.freq.kernel_filters", p.graph.kernel_filters() as f64);
    check_reference(&p, &first, out);
}

/// Compiled-engine per-layer metrics and the yardstick.
fn engine_layers(ctx: &Ctx, p: &Prepared, rate: f64, out: &mut Outcome) {
    let cg = &p.graph;
    let (short, long) = p.app.lengths();
    let fpi = cg.firings_per_iteration() as f64;
    let per_iter = cg.outputs_per_iteration() as f64;
    out.set("exec.firings_per_output", fpi / per_iter);
    out.set("exec.ns_per_firing", per_iter / rate / fpi * 1e9);

    trace::set_enabled(true);
    let mut init = Vec::new();
    for i in 0..5 {
        let (r, dt) = trace::timed("exec.init", i, || cg.run_steady(&p.input, 0));
        out.check(r.map(drop).map_err(|e| e.to_string()));
        init.push(dt);
    }
    let init_s = median(&init);
    out.set("exec.init_ms", init_s * 1e3);

    // Work-op share of a profiled run's steady time (both wall-clock:
    // the profiler reads a monotonic clock).
    let mut shares = Vec::new();
    for i in 0..3 {
        let (r, dt) = trace::timed("exec.run_steady_profiled", i, || {
            cg.run_steady_profiled(&p.input, long, 1)
        });
        match r {
            Ok((_, prof)) => {
                let op_ns: u64 = prof.filters.values().map(|f| f.sampled_ns).sum();
                shares.push(op_ns as f64 / 1e9 / (dt - init_s).max(1e-9));
                out.check(Ok(()));
            }
            Err(e) => out.check(Err(e.to_string())),
        }
    }
    if !shares.is_empty() {
        out.set("exec.op_share", median(&shares));
    }

    // The handwritten yardstick: timed like the engine (two lengths),
    // checked against the reference interpreter.
    let radio = yardstick::FmRadio::new(10, 64);
    let run_yard = |input: &[f64]| match p.app {
        App::Sort => yardstick::bitonic(input, 32),
        App::Fir | App::FirFreq => radio.run(input),
    };
    let lens = [
        (short, cg.required_input(short) as usize),
        (long, p.input.len()),
    ];
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds / 6.0 || samples.len() < 6 {
        for (k, len) in lens {
            let _s = trace::span("yardstick.run", k);
            let t = util::thread_cpu_s();
            std::hint::black_box(run_yard(std::hint::black_box(&p.input[..len])));
            samples.push((k, util::thread_cpu_s() - t));
        }
    }
    trace::set_enabled(false);
    let yard_rate = per_iter / fit_two_lengths(&samples, short, long).slope;
    out.set("yardstick.items_per_s", yard_rate);
    out.set("yardstick.gap", yard_rate / rate);
    out.detail(format!(
        "yardstick {}: {yard_rate:.1} items/s, {:.2}x the engine",
        p.app.name(),
        yard_rate / rate
    ));
    // The frequency app's yardstick is the plain FIR chain, so it is
    // held to bit identity with the unoptimized reference too.
    let got = run_yard(&p.input);
    let n = got.len().min(CHECK_OUTPUTS);
    out.check(reference(p.app, &p.input, n).and_then(|want| {
        util::compare(
            &format!("yardstick {}", p.app.name()),
            Tolerance::Bit,
            &got[..n],
            &want,
        )
    }));
}

/// The app on the 2-thread parallel runtime: stage count, fission, and
/// per-stage busy time from `run_steady_measured`.  Wall-clock, and not
/// gated: a 2-thread pipeline on a shared 2-core host halves whenever
/// the hypervisor takes either core.
fn parallel_layers(ctx: &Ctx, app: App, out: &mut Outcome) {
    let [stages, fissed, imbalance, wait] = match app {
        App::Sort => [
            "rt.sort.stages",
            "rt.sort.fissed_regions",
            "rt.sort.stage_imbalance",
            "rt.sort.wait_share",
        ],
        _ => [
            "rt.fir.stages",
            "rt.fir.fissed_regions",
            "rt.fir.stage_imbalance",
            "rt.fir.wait_share",
        ],
    };
    let pg: ParallelGraph = match Compiler::new(app.options())
        .compile_stream(app.ctor()())
        .map_err(|e| e.to_string())
        .and_then(|prog| {
            prog.compile_parallel(pipeline::PLAN_THREADS)
                .map_err(|e| e.to_string())
        }) {
        Ok(pg) => pg,
        Err(e) => {
            out.check(Err(format!("{} on rt: {e}", app.name())));
            return;
        }
    };
    out.set(stages, pg.stages() as f64);
    out.set(fissed, pg.fission_report().len() as f64);
    let (_, long) = app.lengths();
    let input = app.input(ctx.seed, pg.required_input(long) as usize);
    let want = reference(app, &input, CHECK_OUTPUTS);
    let plan = pg.plan();
    let (mut imb, mut waits) = (Vec::new(), Vec::new());
    trace::set_enabled(true);
    for i in 0..3 {
        let (init, init_s) = trace::timed("rt.init", i, || pg.run_steady(&input, 0));
        out.check(init.map(drop).map_err(|e| e.to_string()));
        let (r, dt) = trace::timed("rt.run_steady_measured", i, || {
            pg.run_steady_measured(&input, long)
        });
        let (got, prof) = match r {
            Ok(r) => r,
            Err(e) => {
                out.check(Err(e.to_string()));
                continue;
            }
        };
        out.check(want.clone().and_then(|want| {
            let n = got.len().min(CHECK_OUTPUTS);
            util::compare(
                &format!("{} on rt", app.name()),
                Tolerance::Bit,
                &got[..n],
                &want,
            )
        }));
        let busy: Vec<f64> = plan
            .stage_ops
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter_map(|op| match op {
                        Op::Work { code, .. } => prof
                            .filters
                            .get(&plan.codes[*code as usize].name)
                            .map(|f| f.sampled_ns as f64),
                        _ => None,
                    })
                    .sum::<f64>()
            })
            .collect();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        imb.push(max / mean.max(1.0));
        waits.push(1.0 - max / 1e9 / (dt - init_s).max(1e-9));
    }
    trace::set_enabled(false);
    if !imb.is_empty() {
        out.set(imbalance, median(&imb));
        out.set(wait, median(&waits));
    }
}

/// The reference interpreter's first `n` outputs on `input`, from the
/// unoptimized program.
fn reference(app: App, input: &[f64], n: usize) -> Result<Vec<f64>, String> {
    Compiler::default()
        .compile_stream(app.ctor()())
        .map_err(|e| e.to_string())?
        .run(input, n)
        .map_err(|e| e.to_string())
}
