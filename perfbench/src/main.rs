//! `perfbench`: one seeded benchmark for the StreamIt-rs workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `README.md` beside this crate) on inputs made
//! from the seed, measures for `S` seconds, checks every output against
//! an independent reference, and prints as its last stdout line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run records spans at every layer call and reports
//! the per-layer metrics, writing the spans to
//! `.bench_out/trace-<workload>-seed<N>.json` (Chrome trace-event format).
//! Exits 1 when any output is wrong or any operation failed, 2 on a
//! usage error.

mod compile;
mod metrics;
mod pipeline;
mod serve;
mod stats;
mod steady;
mod trace;
mod util;
mod yardstick;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::Kind;

/// The workloads; `BENCHMARK.json` records why each exists.
pub const WORKLOADS: &[&str] = &["compile", "steady-fir", "steady-sort", "serve"];

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The checkout root (the working directory).
    pub root: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Refusals a workload expects (E0701 declines, the one E0801
    /// admission refusal), counted apart from failures.
    pub expected_refusals: u64,
    /// Human-readable detail lines for the report.
    pub details: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Record one checked operation; `Err` counts as a failure.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = r {
            self.failed += 1;
            eprintln!("FAIL: {msg}");
            if self.details.len() < 200 {
                self.details.push(format!("FAIL {msg}"));
            }
        }
    }

    pub fn detail(&mut self, s: String) {
        println!("  {s}");
        self.details.push(s);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
    eprintln!("workloads: {}", WORKLOADS.join(", "));
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Ctx {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        root: std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
    }
}

fn provenance(ctx: &Ctx) -> String {
    let (commit, dirty) = util::commit(&ctx.root);
    let opt = |v: Option<String>| v.map_or("null".into(), |s| util::json_str(&s));
    format!(
        "{{\"commit\": {}, \"dirty\": {}, \"host\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"thread_cap\": {}}}",
        opt(commit),
        dirty.map_or("null".into(), |d| d.to_string()),
        util::thread_cap(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        util::thread_cap()
    )
}

fn main() {
    let ctx = parse_args();
    let started = Instant::now();
    let prov = provenance(&ctx);
    println!("perfbench {prov}");
    let mut out = match ctx.workload.as_str() {
        "compile" => compile::run(&ctx),
        "steady-fir" => steady::run(&ctx, steady::App::Fir),
        "steady-sort" => steady::run(&ctx, steady::App::Sort),
        "serve" => serve::run(&ctx),
        _ => unreachable!("workload validated in parse_args"),
    };
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if !ctx.trace {
        out.set("peak_rss_mib", util::peak_rss_mib());
    }
    let kind = if ctx.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };

    // The report: provenance, trial counts and every detail line.
    let dir = ctx.root.join(".bench_out");
    let report = format!(
        "{{\"provenance\": {prov}, \"elapsed_s\": {:?}, \"attempted\": {}, \"failed\": {}, \
         \"expected_refusals\": {}, \"metrics\": {{{}}}, \"details\": [{}]}}\n",
        started.elapsed().as_secs_f64(),
        out.attempted,
        out.failed,
        out.expected_refusals,
        out.metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect::<Vec<_>>()
            .join(", "),
        out.details
            .iter()
            .map(|d| util::json_str(d))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("report-{stem}.json")), &report));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write report: {e}");
        out.failed += 1;
    }
    if ctx.trace {
        let spans = trace::drain();
        let path = dir.join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        if let Err(e) = std::fs::write(&path, trace::chrome_json(&spans, &prov)) {
            eprintln!("perfbench: cannot write trace: {e}");
            out.failed += 1;
        } else {
            println!("  trace: {} spans -> {}", spans.len(), path.display());
        }
    }

    let correct = out.failed == 0;
    println!(
        "  attempted {} failed {} expected refusals {} error_rate {:?}",
        out.attempted, out.failed, out.expected_refusals, out.metrics["error_rate"]
    );
    for d in metrics::defs(kind) {
        if let Some(v) = out.metrics.get(d.name) {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = match d.kind {
                Kind::EndToEnd => format!(", bound {}", d.bound),
                Kind::PerLayer => String::new(),
            };
            println!(
                "  {:<32} {:>16.6} {:<6} ({better} is better{bound})",
                d.name, v, d.unit
            );
        }
    }
    if !ctx.trace {
        out.metrics.remove("error_rate");
    } else {
        out.metrics.remove("peak_rss_mib");
    }
    out.metrics
        .retain(|k, _| metrics::defs(kind).any(|d| d.name == *k));
    match metrics::result_json(kind, &out.metrics, correct, out.attempted, out.failed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
