//! Differential tests for the compiled steady-state engine: on every
//! graph the engine accepts, its output must be *bit-identical* to the
//! reference interpreter's (both are prefixes of the same deterministic
//! Kahn stream).  Graphs it declines must fail with a clear
//! `Unsupported` reason — never silently wrong output.

use streamit::exec::ExecError;
use streamit::graph::StreamNode;
use streamit::{apps, CompiledProgram, Compiler};

#[path = "support/irgen.rs"]
mod irgen;

#[path = "support/tolerance.rs"]
mod tolerance;

/// Deterministic varied input: integers in [-50, 50] as floats, so
/// int-typed graphs (sorters, ciphers) see real data and float-typed
/// graphs see a non-trivial signal.
fn varied_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
}

fn compile(name: &str, stream: StreamNode) -> CompiledProgram {
    Compiler::default()
        .compile_stream(stream)
        .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"))
}

/// Run both engines for `n` outputs and require bit-identical results.
/// Returns the decline reason when the compiled engine rejects the
/// graph (which is acceptable for apps outside its subset).
fn differential(name: &str, p: &CompiledProgram, n: usize) -> Option<String> {
    let cg = match p.compile_exec() {
        Ok(cg) => cg,
        Err(ExecError::Unsupported { reason }) => {
            assert!(!reason.is_empty(), "{name}: empty decline reason");
            return Some(reason);
        }
        Err(e) => panic!("{name}: compile_exec failed with non-Unsupported error: {e}"),
    };
    let k = if n as u64 <= cg.init_outputs() {
        0
    } else {
        (n as u64 - cg.init_outputs()).div_ceil(cg.outputs_per_iteration().max(1))
    };
    let input = varied_input(cg.required_input(k) as usize);
    let compiled = cg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("{name}: compiled run failed: {e}"));
    // `run` can return more than `n` items (the last firing may push
    // several); both engines' streams share the deterministic prefix.
    let mut reference = p
        .run(&input, n)
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    reference.truncate(n);
    tolerance::assert_streams_match(name, tolerance::Tolerance::Bit, &compiled, &reference);
    None
}

/// All fifteen benchmark graphs (the twelve-application evaluation suite
/// plus BeamFormer and both frequency-hopping radio variants), each run
/// differentially.  Apps the compiled engine declines are listed with
/// their reason; the four throughput-benchmark apps must be accepted.
#[test]
fn apps_run_bit_identical_on_both_engines() {
    let graphs: Vec<(&str, StreamNode, usize)> = vec![
        ("beamformer", apps::beamformer::beamformer(12, 4, 32), 16),
        ("bitonic", apps::bitonic::bitonic_sort(32), 32),
        (
            "channelvocoder",
            apps::channelvocoder::channelvocoder(4, 8),
            16,
        ),
        ("dct", apps::dct::dct(16), 16),
        ("des", apps::des::des(4), 16),
        ("fft", apps::fft_app::fft(32), 16),
        ("filterbank", apps::filterbank::filterbank(8, 32), 16),
        ("fmradio", apps::fmradio::fmradio(10, 64), 16),
        ("freqhop_teleport", apps::freqhop::freqhop_teleport(8, 4), 8),
        ("freqhop_manual", apps::freqhop::freqhop_manual(8), 8),
        ("mpeg2", apps::mpeg2::mpeg2(), 16),
        ("radar", apps::radar::radar(4, 2), 8),
        ("serpent", apps::serpent::serpent(4), 16),
        ("tde", apps::tde::tde(32), 16),
        ("vocoder", apps::vocoder::vocoder(8), 8),
    ];
    let must_support = ["fmradio", "filterbank", "beamformer", "bitonic"];
    let mut declined = Vec::new();
    for (name, stream, n) in graphs {
        let p = compile(name, stream);
        if let Some(reason) = differential(name, &p, n) {
            assert!(
                !must_support.contains(&name),
                "{name} must run on the compiled engine, but it declined: {reason}"
            );
            declined.push((name, reason));
        }
    }
    // The engine is allowed to decline apps outside its subset, but a
    // sweeping regression (declining most of the suite) is a bug.
    eprintln!(
        "compiled engine declined {} of 15 apps: {declined:#?}",
        declined.len()
    );
    assert!(
        declined.len() <= 7,
        "compiled engine declined too many apps: {declined:#?}"
    );
}

// ---- generator-based differential testing ------------------------------
//
// The random work-function IR generator from the static-analysis
// soundness suite produces bodies with branches, loops, peeks and local
// variables.  Whenever the interval analysis proves exact rates, the
// body becomes a legal filter; the compiled engine must then either
// decline it or agree with the interpreter bit-for-bit.

mod generated {
    use std::collections::HashMap;

    use streamit::analysis::analyze_block;
    use streamit::exec::ExecError;
    use streamit::graph::builder::FilterBuilder;
    use streamit::graph::DataType;
    use streamit::Compiler;

    use super::irgen::{gen_block, Gen, Scope};
    use super::varied_input;

    /// Outcome of one generated case.
    pub(super) enum Case {
        /// Rates not statically exact (or graph invalid): nothing to compare.
        Skipped,
        /// Compiled engine declined the filter.
        Declined,
        /// Both engines ran and agreed.
        Compared,
    }

    pub(super) fn run_case(seed: u64) -> Case {
        let mut g = Gen(seed | 1);
        let mut sc = Scope::default();
        let block = gen_block(&mut g, &mut sc, 2);

        // Only bodies with exact (point-interval) rates can be declared
        // conformant; everything else is covered by the decline path.
        let analysis = analyze_block(&block, &HashMap::new());
        let (Some(pop), Some(push), Some(need)) = (
            analysis.pops.as_constant(),
            analysis.pushes.as_constant(),
            analysis.need.as_constant(),
        ) else {
            return Case::Skipped;
        };
        if pop < 0 || push < 0 || need < 0 || push > 4096 || need > 4096 {
            return Case::Skipped;
        }
        let peek = need.max(pop) as usize;

        let body = block.clone();
        let f = FilterBuilder::new("gen", DataType::Int)
            .rates(peek, pop as usize, push as usize)
            .work(move |b| body.iter().cloned().fold(b, |b, s| b.stmt(s)))
            .build_node();
        let p = match Compiler::default().compile_stream(f) {
            Ok(p) => p,
            Err(_) => return Case::Skipped,
        };
        let cg = match p.compile_exec() {
            Ok(cg) => cg,
            Err(ExecError::Unsupported { .. }) => return Case::Declined,
            Err(e) => panic!("seed {seed}: unexpected compile_exec error: {e}"),
        };

        // Three steady iterations' worth of output, bit-compared.
        let k = 3u64;
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        let input = varied_input(cg.required_input(k) as usize);
        let compiled = cg
            .run_steady(&input, k)
            .unwrap_or_else(|e| panic!("seed {seed}: compiled run failed: {e}\n{block:#?}"));
        let mut reference = p
            .run(&input, n)
            .unwrap_or_else(|e| panic!("seed {seed}: reference run failed: {e}\n{block:#?}"));
        reference.truncate(n);
        let cb: Vec<u64> = compiled.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            cb, rb,
            "seed {seed}: engines disagree\ncompiled:  {compiled:?}\nreference: {reference:?}\n{block:#?}"
        );
        Case::Compared
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Differential property: every generated filter the compiled
        /// engine accepts produces bit-identical output to the reference
        /// interpreter.
        #[test]
        fn prop_generated_filters_agree(seed in 0u64..u64::MAX) {
            run_case(seed);
        }
    }
}

/// Non-vacuity guard for the proptest above: over a fixed seed sweep, a
/// healthy fraction of generated bodies must actually reach the
/// bit-compare path (exact rates, accepted by the compiled engine).
#[test]
fn generated_sweep_compares_a_healthy_fraction() {
    let mut compared = 0usize;
    let mut declined = 0usize;
    for seed in 0..512u64 {
        match generated::run_case(seed) {
            generated::Case::Compared => compared += 1,
            generated::Case::Declined => declined += 1,
            generated::Case::Skipped => {}
        }
    }
    assert!(
        compared >= 32,
        "only {compared} of 512 generated cases were bit-compared ({declined} declined) — \
         the differential property is near-vacuous"
    );
}

// ---- fused multiply-accumulate forms ------------------------------------
//
// FIR-shaped bodies from `irgen::gen_mac` exercise the superinstructions
// the lowering fuses (literal peeks, literal operands, `MacK`, `MacL`,
// assignment into the variable's register) at both optimizer levels:
// level 1 unrolls and folds taps to literals, level 0 keeps the `h[k]`
// reads.  Outputs must be bit-identical to the reference interpreter's,
// and a faulting tap must fail with the unfused instruction's text.

mod mac {
    use std::collections::BTreeSet;

    use streamit::exec::bytecode::Inst;
    use streamit::exec::ExecError;
    use streamit::graph::builder::FilterBuilder;
    use streamit::graph::DataType;
    use streamit::interp::RuntimeError;
    use streamit::{Compiler, Options};

    use super::irgen::{gen_mac, Gen};
    use super::varied_input;

    /// Run one generated case; returns the fused instruction kinds its
    /// lowered code used.
    pub(super) fn run_case(seed: u64, opt_level: u8) -> BTreeSet<&'static str> {
        let case = gen_mac(&mut Gen(seed | 1));
        let body = case.body.clone();
        let f = FilterBuilder::new("mac", case.input)
            .types(Some(case.input), Some(DataType::Float))
            .rates(case.taps, 1, 1)
            .coeffs("h", case.h.iter().copied())
            .work(move |b| body.iter().cloned().fold(b, |b, s| b.stmt(s)))
            .build_node();
        let compiler = Compiler {
            options: Options {
                opt_level,
                ..Options::default()
            },
        };
        let p = compiler
            .compile_stream(f)
            .unwrap_or_else(|e| panic!("seed {seed}: must compile: {e}"));
        let k = 3u64;
        let input = varied_input(case.taps + k as usize);
        let reference = p.run(&input, k as usize);
        let cg = match p.compile_exec() {
            Ok(cg) => cg,
            Err(ExecError::Unsupported { reason }) => {
                // Only a provably negative peek is refused (E0603); the
                // interpreter faults on it at runtime.
                assert!(case.negative_peek, "seed {seed}: declined: {reason}");
                assert!(reason.contains("E0603"), "seed {seed}: {reason}");
                let err = reference.expect_err("negative peek must fault");
                assert!(
                    matches!(&err, RuntimeError::IndexOutOfBounds { name, index, .. }
                        if name == "peek" && *index < 0),
                    "seed {seed}: {err}"
                );
                return BTreeSet::new();
            }
            Err(e) => panic!("seed {seed}: unexpected compile_exec error: {e}"),
        };
        assert!(!case.negative_peek, "seed {seed}: negative peek accepted");
        let used = cg.plan().codes[0]
            .work
            .code
            .iter()
            .filter_map(|i| match i {
                Inst::PeekKI { .. } => Some("PeekKI"),
                Inst::PeekKF { .. } => Some("PeekKF"),
                Inst::ArithFK { .. } => Some("ArithFK"),
                Inst::ArithKF { .. } => Some("ArithKF"),
                Inst::MacK { .. } => Some("MacK"),
                Inst::MacL { .. } => Some("MacL"),
                _ => None,
            })
            .collect();
        let compiled = cg.run_steady(&input, k);
        match (case.bad_index, compiled, reference) {
            (None, Ok(c), Ok(mut r)) => {
                r.truncate(c.len());
                let cb: Vec<u64> = c.iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u64> = r.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    cb, rb,
                    "seed {seed}, opt {opt_level}: engines disagree\nh: {:?}\n{:#?}",
                    case.h, case.body
                );
            }
            (Some(bad), Err(ExecError::Fault { reason, .. }), Err(r)) => {
                let len = case.taps;
                assert_eq!(
                    reason,
                    format!("array index {bad} out of bounds (len {len})"),
                    "seed {seed}"
                );
                assert!(
                    matches!(&r, RuntimeError::IndexOutOfBounds { name, index, len: l, .. }
                        if name == "h" && *index == bad && *l == len),
                    "seed {seed}: reference failed differently: {r}"
                );
            }
            (_, c, r) => panic!(
                "seed {seed}: outcomes differ (bad index {:?}): compiled {c:?}, reference {r:?}",
                case.bad_index
            ),
        }
        used
    }
}

/// Generated multiply-accumulate filters agree bit for bit with the
/// reference interpreter at both optimizer levels, and between them
/// the sweep lowers through every fused instruction.
#[test]
fn generated_mac_filters_agree_and_cover_every_fused_form() {
    let mut used = std::collections::BTreeSet::new();
    for seed in 0..160u64 {
        for opt_level in [0, 1] {
            used.extend(mac::run_case(seed, opt_level));
        }
    }
    let all = ["ArithFK", "ArithKF", "MacK", "MacL", "PeekKF", "PeekKI"];
    assert_eq!(used.into_iter().collect::<Vec<_>>(), all);
}

/// A peek at a negative literal offset is left unfused: it keeps its
/// index register, so the runtime sign check (and its error) remain.
#[test]
fn negative_literal_peek_is_not_fused() {
    use streamit::exec::bytecode::{lower_filter, Inst};
    use streamit::graph::builder::*;
    use streamit::graph::DataType;

    let f = FilterBuilder::new("neg", DataType::Float)
        .rates(1, 1, 1)
        .work(|b| {
            b.let_("sum", DataType::Float, lit(0.0))
                .set("sum", var("sum") + peek(lit(-1i64)) * lit(0.5))
                .push(var("sum"))
                .pop_discard()
        })
        .build();
    let fc = lower_filter(&f, "neg", Some(DataType::Float), Some(DataType::Float)).expect("lowers");
    let code = &fc.work.code;
    assert!(
        code.iter().any(|i| matches!(i, Inst::ConstI { v: -1, .. }))
            && code.iter().any(|i| matches!(i, Inst::PeekF { .. })),
        "{code:?}"
    );
    assert!(
        !code
            .iter()
            .any(|i| matches!(i, Inst::MacK { .. } | Inst::PeekKF { .. })),
        "{code:?}"
    );
}

/// Deterministic count guard for the fused FIR: a 64-tap
/// `apps::common::fir` lowers (unrolled, taps folded) to one `MacK` per
/// tap plus a handful of instructions around them.
#[test]
fn fir_64_taps_lowers_to_one_instruction_per_tap() {
    let h: Vec<f64> = (0..64).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let p = compile("fir64", apps::common::fir("Fir", &h));
    let cg = p.compile_exec().expect("fir runs on the compiled engine");
    let code = &cg.plan().codes[0].work.code;
    assert!(
        code.len() <= 64 + 8,
        "{} instructions: {code:?}",
        code.len()
    );
}
