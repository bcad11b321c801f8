//! The `compile` workload: every corpus program, source → runnable
//! plans, over and over.  No engine runs while timing; afterwards each
//! plan runs once against the reference interpreter.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::pipeline::{self, Decline, Entry, Plans};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Span};
use crate::util::{self, Rng, Tolerance};
use crate::{Ctx, Outcome};

/// Plans the fast engines are known to decline with `E0701` (program,
/// engine).  Any other decline counts as a failure.
const EXPECTED_DECLINES: &[(&str, &str)] = &[("fibonacci.str", "parallel")];

/// Outputs compared per program and engine.
const CHECK_OUTPUTS: usize = 16;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Time one pass over the corpus through the public API, appending
/// each program's source → plan seconds on `clock`: thread CPU time
/// (compiling is single-threaded), or wall time where the pass is the
/// baseline for wall-clock spans.
fn public_pass(corpus: &[Entry], samples: &mut [Vec<f64>], clock: fn() -> f64, out: &mut Outcome) {
    for (e, s) in corpus.iter().zip(samples.iter_mut()) {
        let t0 = clock();
        // The plans are dropped inside the timed region: freeing them
        // is part of what a compile costs.
        let r = pipeline::compile_public(e).map(drop);
        s.push(clock() - t0);
        out.check(r);
    }
}

/// Per-program median of a named span's self time, summed over
/// programs, in ms (0 when no such span was recorded).
fn sum_of_medians(spans: &[Span], name: &str) -> f64 {
    let self_ns = trace::self_times(spans);
    let mut by_req: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by_req
            .entry(s.req)
            .or_default()
            .push(self_ns[&s.id] as f64 / 1e6);
    }
    by_req.values().map(|v| median(v)).fold(0.0, |a, b| a + b)
}

/// Compile-phase per-layer metrics from the spans of
/// [`pipeline::compile_layers`].  Returns the summed phase self time
/// (ms), which excludes the duplicate lex inside `frontend.parse`.
pub fn phase_metrics(spans: &[Span], out: &mut Outcome) -> f64 {
    let lex = sum_of_medians(spans, "frontend.lex");
    let mut explained = 0.0;
    for (phase, metric) in [
        ("frontend.lex", "frontend.lex_ms"),
        ("frontend.parse", "frontend.parse_ms"),
        ("frontend.elaborate", "frontend.elaborate_ms"),
        ("graph.build", "graph.build_ms"),
        ("graph.validate", "graph.validate_ms"),
        ("analysis.analyze", "analysis.analyze_ms"),
        ("linear.optimize", "linear.optimize_ms"),
        ("graph.flatten", "graph.flatten_ms"),
        ("sdep.verify", "sdep.verify_ms"),
        ("exec.lower", "exec.lower_ms"),
        ("rt.plan", "rt.plan_ms"),
        ("compile.drop", "compile.drop_ms"),
    ] {
        let mut ms = sum_of_medians(spans, phase);
        if phase == "frontend.parse" {
            ms = (ms - lex).max(0.0);
        }
        out.set(metric, ms);
        explained += ms;
    }
    explained
}

pub fn set_counts(c: &pipeline::Counts, out: &mut Outcome) {
    out.set("frontend.tokens", c.tokens as f64);
    out.set("graph.nodes", c.nodes as f64);
    out.set("linear.replaced_filters", c.replaced_filters as f64);
    out.set("exec.ops_per_iteration", c.ops_per_iteration as f64);
    out.set("exec.code_len", c.code_len as f64);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: load the corpus and compile it once (cold caches, lazy
    // initialization), repeated; the last repetition's corpus is used.
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = util::thread_cpu_s();
        corpus = match pipeline::corpus(&ctx.root) {
            Ok(c) => c,
            Err(msg) => {
                out.check(Err(msg));
                return out;
            }
        };
        let mut warm = vec![Vec::new(); corpus.len()];
        let mut scratch = Outcome::default();
        public_pass(&corpus, &mut warm, util::thread_cpu_s, &mut scratch);
        setups.push(util::thread_cpu_s() - t0);
    }
    out.set("setup_s", median(&setups));
    out.detail(format!("corpus: {} programs", corpus.len()));

    // Untraced passes: the end-to-end numbers, or in a traced run the
    // wall-clock baseline the spans are compared with.
    let (budget, clock): (f64, fn() -> f64) = if ctx.trace {
        (ctx.seconds / 2.0, util::wall_s)
    } else {
        (ctx.seconds, util::thread_cpu_s)
    };
    let mut samples = vec![Vec::new(); corpus.len()];
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget || samples[0].len() < 3 {
        public_pass(&corpus, &mut samples, clock, &mut out);
    }
    let passes = samples[0].len();
    let tail_p = tail_percentile(passes);
    let p50_ms: f64 = samples.iter().map(|s| median(s) * 1e3).sum();
    let tail_ms: f64 = samples.iter().map(|s| percentile(s, tail_p) * 1e3).sum();
    out.set("p50_ms", p50_ms);
    out.set("tail_ms", tail_ms);
    out.set("throughput", corpus.len() as f64 / (p50_ms / 1e3));
    out.detail(format!(
        "{passes} passes; compile_ms (sum of per-program medians) {p50_ms:.3}; \
         compile_tail_ms (sum of per-program p{tail_p}) {tail_ms:.3}"
    ));
    for (e, s) in corpus.iter().zip(&samples) {
        out.detail(format!(
            "  {:<18} median {:>9.3} ms  p{tail_p} {:>9.3} ms",
            e.name,
            median(s) * 1e3,
            percentile(s, tail_p) * 1e3
        ));
    }

    if ctx.trace {
        let mut counts = pipeline::Counts::default();
        trace::set_enabled(true);
        let t1 = Instant::now();
        let mut traced_passes = 0;
        while t1.elapsed().as_secs_f64() < budget || traced_passes < 3 {
            let mut pass = pipeline::Counts::default();
            for (i, e) in corpus.iter().enumerate() {
                match pipeline::compile_layers(e, pipeline::BOTH, i as u64) {
                    Ok(c) => pass.add(c),
                    Err(msg) => out.check(Err(msg)),
                }
            }
            counts = pass;
            traced_passes += 1;
        }
        trace::set_enabled(false);
        let spans = trace::snapshot();
        let explained = phase_metrics(&spans, &mut out);
        set_counts(&counts, &mut out);
        out.set("compile.explained_share", explained / p50_ms);
        // Phases plus the root span's own time: the traced pass's cost
        // without its duplicate lex.
        let traced_ms = explained + sum_of_medians(&spans, "compile.program");
        out.set("trace.overhead", traced_ms / p50_ms - 1.0);
        out.detail(format!(
            "traced: {traced_passes} passes, phases explain {:.1}% of untraced compile_ms, \
             traced/untraced {:.4}",
            100.0 * explained / p50_ms,
            traced_ms / p50_ms
        ));
    }

    check_corpus(ctx, &corpus, &mut out);
    out
}

/// Run every plan once against the reference interpreter on seeded
/// input.  Frequency-replaced programs are compared with the
/// unoptimized program under the reassociation tolerance.
fn check_corpus(ctx: &Ctx, corpus: &[Entry], out: &mut Outcome) {
    for (i, e) in corpus.iter().enumerate() {
        let plans = match pipeline::compile_public(e) {
            Ok(p) => p,
            Err(msg) => {
                out.check(Err(msg));
                continue;
            }
        };
        let plain = match e.linear {
            None => None,
            Some(_) => {
                let plain = Entry {
                    linear: None,
                    ..e.clone()
                };
                match pipeline::compile_public(&plain) {
                    Ok(p) => Some(p.program),
                    Err(msg) => {
                        out.check(Err(msg));
                        continue;
                    }
                }
            }
        };
        let reference = plain.as_ref().unwrap_or(&plans.program);
        let tol = Tolerance::for_report(plans.program.linear_report.as_ref());
        check_plans(ctx, i as u64, e, &plans, reference, tol, out);
    }
}

fn check_plans(
    ctx: &Ctx,
    lane: u64,
    e: &Entry,
    plans: &Plans,
    reference: &streamit::CompiledProgram,
    tol: Tolerance,
    out: &mut Outcome,
) {
    let mut rng = Rng::lane(ctx.seed, lane);
    let int_input = matches!(
        plans.program.stream.input_type(),
        Some(streamit::graph::DataType::Int)
    );
    let len = 4096;
    let input = if int_input {
        util::int_input(&mut rng, len)
    } else {
        util::float_input(&mut rng, len)
    };
    let want = match reference.run(&input, CHECK_OUTPUTS) {
        Ok(w) => w,
        Err(err) => {
            out.check(Err(format!("{}: reference run: {err}", e.name)));
            return;
        }
    };
    let runs: [(&str, Result<Vec<f64>, Decline>); 2] = [
        (
            "exec",
            plans.exec.clone().and_then(|cg| {
                cg.run_collect(&input, CHECK_OUTPUTS)
                    .map_err(|err| Decline::Failed(err.to_string()))
            }),
        ),
        (
            "parallel",
            plans.parallel.clone().and_then(|pg| {
                pg.run_collect(&input, CHECK_OUTPUTS)
                    .map_err(|err| Decline::Failed(err.to_string()))
            }),
        ),
    ];
    for (engine, got) in runs {
        match got {
            Ok(got) => out.check(util::compare(
                &format!("{} on {engine}", e.name),
                tol,
                &got,
                &want,
            )),
            Err(Decline::Unsupported(reason))
                if EXPECTED_DECLINES.contains(&(e.name.as_str(), engine)) =>
            {
                out.expected_refusals += 1;
                out.detail(format!(
                    "{} on {engine}: expected E0701 decline ({reason})",
                    e.name
                ));
            }
            Err(d) => out.check(Err(format!("{} on {engine}: {d:?}", e.name))),
        }
    }
}
