//! The benchmark's programs and the two ways it compiles them: through
//! the public `Compiler` API (what a user runs, timed untraced) and
//! layer by layer through each crate's public entry point (the traced
//! breakdown of the same work).

use std::path::Path;

use streamit::exec::{CompiledGraph, ExecError};
use streamit::graph::{FlatGraph, StreamNode};
use streamit::linear::LinearMode;
use streamit::rt::{CostModel, LowerOptions, ParallelGraph};
use streamit::{CompiledProgram, Compiler, Options};

use crate::trace;

/// Worker budget every plan is built for (the workloads' 2-thread
/// pipelines).
pub const PLAN_THREADS: usize = 2;

/// Builds one app's graph.
pub type Ctor = fn() -> StreamNode;

#[derive(Clone)]
pub enum Build {
    /// Surface-language source text, elaborating `Main`.
    Source(String),
    /// A builder-API graph.
    Stream(Ctor),
}

#[derive(Clone)]
pub struct Entry {
    pub name: String,
    pub build: Build,
    pub linear: Option<LinearMode>,
}

impl Entry {
    pub fn stream(name: &str, ctor: Ctor, linear: Option<LinearMode>) -> Entry {
        Entry {
            name: name.to_string(),
            build: Build::Stream(ctor),
            linear,
        }
    }

    fn options(&self) -> Options {
        Options {
            linear: self.linear,
            ..Options::default()
        }
    }
}

use streamit::apps;

/// The evaluation suite's twelve applications at the suite's sizes,
/// without their synthetic file endpoints (so each reads the seeded
/// input and emits a checkable stream), plus BeamFormer.
fn builder_apps() -> Vec<(&'static str, Ctor)> {
    vec![
        ("BitonicSort", || apps::bitonic::bitonic_sort(32)),
        ("FFT", || apps::fft_app::fft(128)),
        ("DES", || apps::des::des(16)),
        ("Serpent", || apps::serpent::serpent(32)),
        ("TDE", || apps::tde::tde(64)),
        ("DCT", || apps::dct::dct(16)),
        ("FilterBank", || apps::filterbank::filterbank(8, 32)),
        ("FMRadio", || apps::fmradio::fmradio(10, 64)),
        ("ChannelVocoder", || {
            apps::channelvocoder::channelvocoder(16, 64)
        }),
        ("MPEG2Decoder", apps::mpeg2::mpeg2),
        ("Vocoder", || apps::vocoder::vocoder(16)),
        ("Radar", || apps::radar::radar(12, 4)),
        ("BeamFormer", || apps::beamformer::beamformer(12, 4, 32)),
    ]
}

/// The `compile` workload's corpus: every `examples/str/*.str` source,
/// the builder apps, and the FIR apps again under frequency
/// replacement.
pub fn corpus(root: &Path) -> Result<Vec<Entry>, String> {
    let dir = root.join("examples/str");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "str"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .str sources in {}", dir.display()));
    }
    let mut out = Vec::new();
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let stem = p
            .file_stem()
            .map_or("?".into(), |s| s.to_string_lossy().to_string());
        out.push(Entry {
            name: format!("{stem}.str"),
            build: Build::Source(text),
            linear: None,
        });
    }
    for (name, ctor) in builder_apps() {
        out.push(Entry::stream(name, ctor, None));
    }
    for (name, ctor) in builder_apps() {
        if matches!(name, "FMRadio" | "FilterBank" | "BeamFormer") {
            out.push(Entry::stream(
                &format!("{name}+freq"),
                ctor,
                Some(LinearMode::Frequency),
            ));
        }
    }
    Ok(out)
}

/// Why a stage did not produce a plan.
#[derive(Debug, Clone)]
pub enum Decline {
    /// `E0701`: the graph is outside the engine's subset.
    Unsupported(String),
    /// Any other failure: a benchmark error.
    #[allow(dead_code)] // read through `Debug` in failure messages
    Failed(String),
}

fn exec_decline(e: ExecError) -> Decline {
    match e {
        ExecError::Unsupported { reason } => Decline::Unsupported(reason),
        other => Decline::Failed(other.to_string()),
    }
}

/// A program compiled to runnable plans.
pub struct Plans {
    pub program: CompiledProgram,
    pub exec: Result<CompiledGraph, Decline>,
    pub parallel: Result<ParallelGraph, Decline>,
}

/// Source → plan through the public API: `compile_source` or
/// `compile_stream`, then `compile_exec` and `compile_parallel`.
pub fn compile_public(e: &Entry) -> Result<Plans, String> {
    let compiler = Compiler::new(e.options());
    let program = match &e.build {
        Build::Source(text) => compiler.compile_source(text, "Main"),
        Build::Stream(ctor) => compiler.compile_stream(ctor()),
    }
    .map_err(|err| format!("{}: {err}", e.name))?;
    let exec = program.compile_exec().map_err(exec_decline);
    let parallel = program.compile_parallel(PLAN_THREADS).map_err(exec_decline);
    Ok(Plans {
        program,
        exec,
        parallel,
    })
}

/// What the layer-by-layer compile counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub tokens: u64,
    pub nodes: u64,
    pub replaced_filters: u64,
    pub ops_per_iteration: u64,
    pub code_len: u64,
}

impl Counts {
    pub fn add(&mut self, c: Counts) {
        self.tokens += c.tokens;
        self.nodes += c.nodes;
        self.replaced_filters += c.replaced_filters;
        self.ops_per_iteration += c.ops_per_iteration;
        self.code_len += c.code_len;
    }
}

/// Which plans a compile builds.
#[derive(Debug, Clone, Copy)]
pub struct Targets {
    pub exec: bool,
    pub parallel: bool,
}

pub const BOTH: Targets = Targets {
    exec: true,
    parallel: true,
};

/// The same work as [`compile_public`] (limited to `targets`), one
/// layer call per span, all under a `compile.program` span for request
/// `req`.  Mirrors
/// `Compiler::finish`: analysis on the graph as written, then the
/// linear optimizer, flattening and verification.
pub fn compile_layers(e: &Entry, targets: Targets, req: u64) -> Result<Counts, String> {
    use streamit::frontend;
    let _root = trace::span("compile.program", req);
    let mut c = Counts::default();
    let (stream, portals) = match &e.build {
        Build::Source(text) => {
            let toks = {
                let _s = trace::span("frontend.lex", req);
                frontend::lex(text).map_err(|err| format!("{}: {err}", e.name))?
            };
            c.tokens = toks.len() as u64;
            drop(toks);
            let prog = {
                let _s = trace::span("frontend.parse", req);
                frontend::parse_program(text).map_err(|err| format!("{}: {err}", e.name))?
            };
            let out = {
                let _s = trace::span("frontend.elaborate", req);
                frontend::elaborate(&prog, "Main").map_err(|err| format!("{}: {err}", e.name))?
            };
            (out.stream, !out.portals.is_empty())
        }
        Build::Stream(ctor) => {
            let _s = trace::span("graph.build", req);
            (ctor(), false)
        }
    };
    {
        let _s = trace::span("graph.validate", req);
        let errs = streamit::graph::validate(&stream);
        if !errs.is_empty() {
            return Err(format!("{}: {} validation errors", e.name, errs.len()));
        }
    }
    let analysis = {
        let _s = trace::span("analysis.analyze", req);
        streamit::analysis::analyze_stream(&stream)
    };
    let stream = match e.linear {
        Some(mode) => {
            let _s = trace::span("linear.optimize", req);
            let (s, report) = streamit::linear::optimize_stream(&stream, mode);
            c.replaced_filters = report.extracted as u64;
            s
        }
        None => stream,
    };
    let input_ty = stream.input_type();
    let flat = {
        let _s = trace::span("graph.flatten", req);
        FlatGraph::from_stream(&stream)
    };
    c.nodes = flat.nodes.len() as u64;
    let verify = {
        let _s = trace::span("sdep.verify", req);
        streamit::sdep::verify_graph(&flat)
    };
    let opts = LowerOptions { opt_level: 1 };
    let exec = if portals || !targets.exec {
        None
    } else {
        let _s = trace::span("exec.lower", req);
        CompiledGraph::compile_with(&flat, input_ty, opts).ok()
    };
    if let Some(cg) = &exec {
        let plan = cg.plan();
        c.ops_per_iteration = (plan.pre_ops.len()
            + plan.branch_ops.iter().map(Vec::len).sum::<usize>()
            + plan.post_ops.len()) as u64;
        c.code_len = plan
            .codes
            .iter()
            .map(|fc| (fc.work.code.len() + fc.prework.as_ref().map_or(0, |p| p.code.len())) as u64)
            .sum();
    }
    let parallel = if portals || !targets.parallel {
        None
    } else {
        let _s = trace::span("rt.plan", req);
        ParallelGraph::compile_costed(&flat, input_ty, PLAN_THREADS, opts, &CostModel::Static).ok()
    };
    let _s = trace::span("compile.drop", req);
    drop((stream, flat, verify, analysis, exec, parallel));
    Ok(c)
}
