//! The steady-state runtime: register frames, shards, the bytecode
//! dispatch loop, and the op executor.
//!
//! A [`Shard`] owns a set of tapes and filter frames.  Shard 0 holds the
//! external streams and every serial-stage resource; each split-join
//! branch owns one further shard.  Ops address resources by [`Loc`];
//! `run_ops` resolves them against a shard slice starting at `base`,
//! which lets the same code run a whole plan (full slice, base 0) and
//! one `rt` pipeline stage over its own shard (sub-slice, shifted base).

use std::time::Instant;

use streamit_graph::{float_add, float_mul, DataType, Intrinsic, Value};
use streamit_sched::ProfileReport;

use crate::bytecode::{FilterCode, Inst, Program};
use crate::plan::{Loc, Op, Plan};
use crate::tape::{move_items, Raw, Tape};
use crate::ExecError;

/// Backward jumps allowed per firing — the analogue of the reference
/// machine's per-firing statement budget, so runaway loop bounds fault
/// instead of hanging.
const MAX_BACK_JUMPS: u64 = 50_000_000;

/// One filter instance's mutable storage: the two register banks and
/// the two array arenas.  Persistent state lives in pinned low
/// registers / arena ranges and survives across firings; everything
/// else is scratch the bytecode re-writes before reading.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pub i: Vec<i64>,
    pub f: Vec<f64>,
    pub ai: Vec<i64>,
    pub af: Vec<f64>,
    /// Native-kernel scratch (batched window / FFT real and imaginary
    /// work buffers).  Lazily sized on first kernel firing; per-frame
    /// so threaded shards never share them.
    pub kre: Vec<f64>,
    pub kim: Vec<f64>,
}

impl Frame {
    pub fn new(fc: &FilterCode) -> Frame {
        let mut fr = Frame {
            i: vec![0; fc.n_i as usize],
            f: vec![0.0; fc.n_f as usize],
            ai: vec![0; fc.arena_i as usize],
            af: vec![0.0; fc.arena_f as usize],
            kre: Vec::new(),
            kim: Vec::new(),
        };
        for &(r, v) in &fc.init_i {
            fr.i[r as usize] = v;
        }
        for &(r, v) in &fc.init_f {
            fr.f[r as usize] = v;
        }
        for (base, vs) in &fc.init_ai {
            fr.ai[*base as usize..*base as usize + vs.len()].copy_from_slice(vs);
        }
        for (base, vs) in &fc.init_af {
            fr.af[*base as usize..*base as usize + vs.len()].copy_from_slice(vs);
        }
        fr
    }
}

/// A disjointly borrowable bundle of tapes and frames.
#[derive(Debug)]
pub struct Shard {
    pub tapes: Vec<Tape>,
    pub frames: Vec<Frame>,
}

/// Materialize the run's shards: external input preloaded (coerced per
/// the plan's input type, like the reference machine's feed), external
/// output sized for the requested iterations, every channel tape sized
/// by the count simulation and preloaded with its initial items.
pub fn build_shards(plan: &Plan, input: &[f64], out_cap: u64) -> Vec<Shard> {
    plan.tapes
        .iter()
        .enumerate()
        .map(|(s, specs)| {
            let tapes = specs
                .iter()
                .enumerate()
                .map(|(slot, spec)| {
                    if s == 0 && slot == 0 {
                        let mut t = Tape::with_capacity(plan.input_ty, input.len() as u64);
                        for &v in input {
                            let _ = match plan.input_ty {
                                DataType::Int => t.push_i(v as i64),
                                DataType::Float => t.push_f(v),
                            };
                        }
                        t
                    } else if s == 0 && slot == 1 {
                        Tape::with_capacity(DataType::Float, out_cap)
                    } else {
                        let mut t = Tape::with_capacity(spec.ty, spec.cap);
                        for v in &spec.initial {
                            let _ = match v {
                                Value::Int(x) => t.push_i(*x),
                                Value::Float(x) => t.push_f(*x),
                            };
                        }
                        t
                    }
                })
                .collect();
            let frames = plan.frames[s]
                .iter()
                .map(|&c| Frame::new(&plan.codes[c as usize]))
                .collect();
            Shard { tapes, frames }
        })
        .collect()
}

fn shard_mut(shards: &mut [Shard], s: usize) -> Result<&mut Shard, String> {
    let n = shards.len();
    shards
        .get_mut(s)
        .ok_or_else(|| format!("shard {s} is outside a slice of {n}"))
}

fn tape_mut(tapes: &mut [Tape], slot: usize) -> Result<&mut Tape, String> {
    let n = tapes.len();
    tapes
        .get_mut(slot)
        .ok_or_else(|| format!("tape slot {slot} is outside a shard of {n}"))
}

/// The index of `loc`'s shard in a slice that starts at shard `base`.
/// A location before `base` wraps far past the end and fails the bounds
/// check like any other stray location.
#[inline]
fn rebase(loc: Loc, base: u16) -> (usize, usize) {
    (loc.shard.wrapping_sub(base) as usize, loc.slot as usize)
}

/// Lend one tape where it lives.
#[inline]
fn tape_at(shards: &mut [Shard], base: u16, loc: Loc) -> Result<&mut Tape, String> {
    let (s, x) = rebase(loc, base);
    tape_mut(&mut shard_mut(shards, s)?.tapes, x)
}

/// The frames of an op's home shard and its tapes, borrowed in place.
type Lent<'a> = (&'a mut [Frame], Option<&'a mut Tape>, Option<&'a mut Tape>);

/// Lend an op, where they live, the frames of shard `home` and the
/// tapes at `a` and `b`, each optional and anywhere in the slice.
///
/// `slice::get_disjoint_mut` borrows the distinct shards involved.  A
/// shard's `frames` and `tapes` are separate fields, so the frames never
/// conflict with a tape, and two tapes in one shard go through
/// `get_disjoint_mut` on its tapes.  A location outside the slice, or
/// one tape named twice, is an error, never a panic.
#[inline]
fn lend(
    shards: &mut [Shard],
    base: u16,
    home: u16,
    a: Option<Loc>,
    b: Option<Loc>,
) -> Result<Lent<'_>, String> {
    let bad = |e| format!("shard {home} with tapes {a:?} and {b:?}: {e}");
    let h = home.wrapping_sub(base) as usize;
    match (a.map(|l| rebase(l, base)), b.map(|l| rebase(l, base))) {
        (None, None) => Ok((&mut shard_mut(shards, h)?.frames, None, None)),
        (Some((s, x)), None) | (None, Some((s, x))) => {
            let (frames, t) = if s == h {
                let Shard { frames, tapes } = shard_mut(shards, h)?;
                (frames, tape_mut(tapes, x)?)
            } else {
                let [hs, ts] = shards.get_disjoint_mut([h, s]).map_err(bad)?;
                (&mut hs.frames, tape_mut(&mut ts.tapes, x)?)
            };
            Ok(match a {
                Some(_) => (frames, Some(t), None),
                None => (frames, None, Some(t)),
            })
        }
        (Some((sa, x)), Some((sb, y))) => {
            let (frames, ta, tb) = if sa == sb {
                let (frames, tapes) = if sa == h {
                    let Shard { frames, tapes } = shard_mut(shards, h)?;
                    (frames, tapes)
                } else {
                    let [hs, ts] = shards.get_disjoint_mut([h, sa]).map_err(bad)?;
                    (&mut hs.frames, &mut ts.tapes)
                };
                let [ta, tb] = tapes.get_disjoint_mut([x, y]).map_err(bad)?;
                (frames, ta, tb)
            } else if sa == h {
                let [Shard { frames, tapes }, bs] =
                    shards.get_disjoint_mut([h, sb]).map_err(bad)?;
                (frames, tape_mut(tapes, x)?, tape_mut(&mut bs.tapes, y)?)
            } else if sb == h {
                let [Shard { frames, tapes }, as_] =
                    shards.get_disjoint_mut([h, sa]).map_err(bad)?;
                (frames, tape_mut(&mut as_.tapes, x)?, tape_mut(tapes, y)?)
            } else {
                let [hs, as_, bs] = shards.get_disjoint_mut([h, sa, sb]).map_err(bad)?;
                let ta = tape_mut(&mut as_.tapes, x)?;
                (&mut hs.frames, ta, tape_mut(&mut bs.tapes, y)?)
            };
            Ok((frames, Some(ta), Some(tb)))
        }
    }
}

/// Execute one firing of a lowered body against a frame and its tapes.
/// Dynamic checks mirror the reference interpreter's runtime errors:
/// negative peek index, tape underflow, array bounds, division by zero,
/// and the post-firing declared-rate check.
fn exec_program(
    prog: &Program,
    fr: &mut Frame,
    input: Option<&mut Tape>,
    mut output: Option<&mut Tape>,
) -> Result<(), String> {
    let code = &prog.code[..];
    let mut pc = 0usize;
    let mut pops: u64 = 0;
    let mut pushes: u64 = 0;
    let mut back_jumps: u64 = 0;

    macro_rules! jump {
        ($t:expr) => {{
            let t = $t as usize;
            if t <= pc {
                back_jumps += 1;
                if back_jumps > MAX_BACK_JUMPS {
                    return Err("per-firing iteration budget exhausted".into());
                }
            }
            pc = t;
            continue;
        }};
    }

    while pc < code.len() {
        match code[pc] {
            Inst::ConstI { d, v } => fr.i[d as usize] = v,
            Inst::ConstF { d, v } => fr.f[d as usize] = v,
            Inst::MovI { d, s } => fr.i[d as usize] = fr.i[s as usize],
            Inst::MovF { d, s } => fr.f[d as usize] = fr.f[s as usize],
            Inst::CastIF { d, s } => fr.f[d as usize] = fr.i[s as usize] as f64,
            Inst::CastFI { d, s } => fr.i[d as usize] = fr.f[s as usize] as i64,
            Inst::BinI { op, d, a, b } => {
                let (a, b) = (fr.i[a as usize], fr.i[b as usize]);
                fr.i[d as usize] = int_binop(op, a, b)?;
            }
            Inst::ArithF { op, d, a, b } => {
                fr.f[d as usize] = float_arith(op, fr.f[a as usize], fr.f[b as usize])?;
            }
            Inst::ArithFK { op, d, a, k } => {
                fr.f[d as usize] = float_arith(op, fr.f[a as usize], k)?;
            }
            Inst::ArithKF { op, d, k, b } => {
                fr.f[d as usize] = float_arith(op, k, fr.f[b as usize])?;
            }
            Inst::CmpF { op, d, a, b } => {
                let (a, b) = (fr.f[a as usize], fr.f[b as usize]);
                fr.i[d as usize] = match op {
                    streamit_graph::BinOp::Eq => (a == b) as i64,
                    streamit_graph::BinOp::Ne => (a != b) as i64,
                    streamit_graph::BinOp::Lt => (a < b) as i64,
                    streamit_graph::BinOp::Le => (a <= b) as i64,
                    streamit_graph::BinOp::Gt => (a > b) as i64,
                    streamit_graph::BinOp::Ge => (a >= b) as i64,
                    _ => return Err("non-comparison op in CmpF".into()),
                };
            }
            Inst::NegI { d, s } => fr.i[d as usize] = fr.i[s as usize].wrapping_neg(),
            Inst::NegF { d, s } => fr.f[d as usize] = -fr.f[s as usize],
            Inst::NotI { d, s } => fr.i[d as usize] = (fr.i[s as usize] == 0) as i64,
            Inst::NotF { d, s } => fr.i[d as usize] = (fr.f[s as usize] == 0.0) as i64,
            Inst::BitNotI { d, s } => fr.i[d as usize] = !fr.i[s as usize],
            Inst::TruthyF { d, s } => fr.i[d as usize] = (fr.f[s as usize] != 0.0) as i64,
            Inst::Call1F { g, d, s } => {
                let x = fr.f[s as usize];
                fr.f[d as usize] = match g {
                    Intrinsic::Sin => x.sin(),
                    Intrinsic::Cos => x.cos(),
                    Intrinsic::Tan => x.tan(),
                    Intrinsic::Atan => x.atan(),
                    Intrinsic::Sqrt => x.sqrt(),
                    Intrinsic::Exp => x.exp(),
                    Intrinsic::Log => x.ln(),
                    Intrinsic::Floor => x.floor(),
                    Intrinsic::Ceil => x.ceil(),
                    Intrinsic::Round => x.round(),
                    _ => return Err("non-unary intrinsic in Call1F".into()),
                };
            }
            Inst::AbsI { d, s } => fr.i[d as usize] = fr.i[s as usize].wrapping_abs(),
            Inst::AbsF { d, s } => fr.f[d as usize] = fr.f[s as usize].abs(),
            Inst::PowF { d, a, b } => fr.f[d as usize] = fr.f[a as usize].powf(fr.f[b as usize]),
            Inst::MinMaxI { max, d, a, b } => {
                let (a, b) = (fr.i[a as usize], fr.i[b as usize]);
                fr.i[d as usize] = if max { a.max(b) } else { a.min(b) };
            }
            Inst::MinMaxF { max, d, a, b } => {
                let (a, b) = (fr.f[a as usize], fr.f[b as usize]);
                fr.f[d as usize] = if max { a.max(b) } else { a.min(b) };
            }
            Inst::LoadI { d, base, len, idx } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.i[d as usize] = fr.ai[base as usize + k];
            }
            Inst::LoadF { d, base, len, idx } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.f[d as usize] = fr.af[base as usize + k];
            }
            Inst::StoreI { base, len, idx, s } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.ai[base as usize + k] = fr.i[s as usize];
            }
            Inst::StoreF { base, len, idx, s } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.af[base as usize + k] = fr.f[s as usize];
            }
            Inst::ZeroI { base, len } => {
                fr.ai[base as usize..(base + len) as usize].fill(0);
            }
            Inst::ZeroF { base, len } => {
                fr.af[base as usize..(base + len) as usize].fill(0.0);
            }
            Inst::PeekI { d, idx } => {
                let k = peek_offset(fr.i[idx as usize], pops)?;
                match input.as_deref() {
                    Some(Tape::I(r)) => {
                        fr.i[d as usize] = r.get(k).ok_or("peek beyond available input")?;
                    }
                    _ => return Err("int peek on non-int tape".into()),
                }
            }
            Inst::PeekF { d, idx } => {
                let k = peek_offset(fr.i[idx as usize], pops)?;
                match input.as_deref() {
                    Some(Tape::F(r)) => {
                        fr.f[d as usize] = r.get(k).ok_or("peek beyond available input")?;
                    }
                    _ => return Err("float peek on non-float tape".into()),
                }
            }
            Inst::PeekKI { d, k } => match input.as_deref() {
                Some(Tape::I(r)) => {
                    fr.i[d as usize] = r
                        .get(pops + k as u64)
                        .ok_or("peek beyond available input")?;
                }
                _ => return Err("int peek on non-int tape".into()),
            },
            Inst::PeekKF { d, k } => match input.as_deref() {
                Some(Tape::F(r)) => {
                    fr.f[d as usize] = r
                        .get(pops + k as u64)
                        .ok_or("peek beyond available input")?;
                }
                _ => return Err("float peek on non-float tape".into()),
            },
            // The MACs round the product, then the sum (never `mul_add`),
            // and keep the operand order of the `Mul` and `Add` they fuse.
            Inst::MacK { d, a, k, c } => match input.as_deref() {
                Some(Tape::F(r)) => {
                    let p = r
                        .get(pops + k as u64)
                        .ok_or("peek beyond available input")?;
                    fr.f[d as usize] = float_add(fr.f[a as usize], float_mul(p, c));
                }
                _ => return Err("float peek on non-float tape".into()),
            },
            Inst::MacL {
                d,
                idx,
                j,
                base,
                len,
            } => {
                let k = peek_offset(fr.i[idx as usize], pops)?;
                let p = match input.as_deref() {
                    Some(Tape::F(r)) => r.get(k).ok_or("peek beyond available input")?,
                    _ => return Err("float peek on non-float tape".into()),
                };
                let x = arena_index(fr.i[j as usize], len)?;
                fr.f[d as usize] =
                    float_add(fr.f[d as usize], float_mul(p, fr.af[base as usize + x]));
            }
            Inst::PopI { d } => match input.as_deref() {
                Some(Tape::I(r)) => {
                    fr.i[d as usize] = r.get(pops).ok_or("pop from empty tape")?;
                    pops += 1;
                }
                _ => return Err("int pop on non-int tape".into()),
            },
            Inst::PopF { d } => match input.as_deref() {
                Some(Tape::F(r)) => {
                    fr.f[d as usize] = r.get(pops).ok_or("pop from empty tape")?;
                    pops += 1;
                }
                _ => return Err("float pop on non-float tape".into()),
            },
            Inst::PushI { s } => {
                let out = output.as_deref_mut().ok_or("push without output tape")?;
                out.push_i(fr.i[s as usize])
                    .map_err(|()| "output tape capacity exceeded")?;
                pushes += 1;
            }
            Inst::PushF { s } => {
                let out = output.as_deref_mut().ok_or("push without output tape")?;
                out.push_f(fr.f[s as usize])
                    .map_err(|()| "output tape capacity exceeded")?;
                pushes += 1;
            }
            Inst::Jmp { target } => jump!(target),
            Inst::Jz { c, target } => {
                if fr.i[c as usize] == 0 {
                    jump!(target);
                }
            }
        }
        pc += 1;
    }

    if pops != prog.rates.pop || pushes != prog.rates.push {
        return Err(format!(
            "rate violation: declared pop {} push {}, performed pop {pops} push {pushes}",
            prog.rates.pop, prog.rates.push
        ));
    }
    if let Some(t) = input {
        t.advance(pops);
    }
    Ok(())
}

#[inline]
fn int_binop(op: streamit_graph::BinOp, a: i64, b: i64) -> Result<i64, String> {
    use streamit_graph::BinOp;
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).ok_or("division by zero")?,
        BinOp::Rem => a.checked_rem(b).ok_or("division by zero")?,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    })
}

#[inline]
fn float_arith(op: streamit_graph::BinOp, a: f64, b: f64) -> Result<f64, String> {
    use streamit_graph::BinOp;
    Ok(match op {
        BinOp::Add => float_add(a, b),
        BinOp::Sub => a - b,
        BinOp::Mul => float_mul(a, b),
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => return Err("non-arithmetic op in ArithF".into()),
    })
}

#[inline]
fn arena_index(ix: i64, len: u32) -> Result<usize, String> {
    if ix < 0 || ix as u64 >= len as u64 {
        Err(format!("array index {ix} out of bounds (len {len})"))
    } else {
        Ok(ix as usize)
    }
}

#[inline]
fn peek_offset(ix: i64, pops: u64) -> Result<u64, String> {
    if ix < 0 {
        Err(format!("peek at negative index {ix}"))
    } else {
        Ok(pops + ix as u64)
    }
}

/// Amortized-sampling work-op profiler.
///
/// Counters are indexed by filter-code index (one per lowered filter
/// instance).  Sampling is decided per *steady iteration*, not per op:
/// the caller announces each iteration with
/// [`OpProfiler::begin_iteration`], and one iteration in `period` is a
/// *sampled* iteration during which every work-op invocation is timed
/// with the monotonic clock (the whole firing batch `times` attributed
/// to the sample).  Unsampled iterations execute through plain
/// [`run_ops`] calls — zero per-op bookkeeping — which keeps profiler
/// overhead flat even for graphs of many tiny filters.  Because a
/// steady iteration executes the same op list every time, per-code
/// firing totals scale exactly from the sampled iterations
/// (`recorded × iterations / sampled_iterations`).  The first
/// iteration is always sampled so short runs still cover every filter.
/// When profiling is off the hot path ([`run_ops`]) is untouched —
/// zero overhead by construction.
#[derive(Debug, Clone)]
pub struct OpProfiler {
    period: u32,
    /// Countdown to the next sampled iteration.
    tick: u32,
    /// Whether the current iteration is being sampled.
    sampling: bool,
    iterations: u64,
    sampled_iterations: u64,
    /// Firings observed during sampled iterations only.
    firings: Vec<u64>,
    sampled_firings: Vec<u64>,
    sampled_ns: Vec<u64>,
}

impl OpProfiler {
    /// `period = 1` times every iteration (re-planning accuracy);
    /// larger periods amortize clock reads (CLI profiling).
    pub fn new(n_codes: usize, period: u32) -> OpProfiler {
        OpProfiler {
            period: period.max(1),
            tick: 0,
            sampling: false,
            iterations: 0,
            sampled_iterations: 0,
            firings: vec![0; n_codes],
            sampled_firings: vec![0; n_codes],
            sampled_ns: vec![0; n_codes],
        }
    }

    /// Announce the start of a steady iteration and decide whether its
    /// work ops will be timed.  Must be called once per iteration,
    /// before any of that iteration's [`run_ops_profiled`] calls.
    #[inline]
    pub fn begin_iteration(&mut self) {
        self.iterations += 1;
        if self.tick == 0 {
            self.tick = self.period - 1;
            self.sampling = true;
            self.sampled_iterations += 1;
        } else {
            self.tick -= 1;
            self.sampling = false;
        }
    }

    /// Fold the counters into `report`, keyed by filter-code name.
    /// Firing counts recorded during sampled iterations are scaled to
    /// the full run; the scaling is exact because every steady
    /// iteration fires each filter the same number of times.
    pub fn merge_into(&self, report: &mut ProfileReport, codes: &[FilterCode]) {
        for (c, fc) in codes.iter().enumerate() {
            if self.firings[c] == 0 {
                continue;
            }
            let total = if self.sampled_iterations > 0 {
                ((self.firings[c] as u128 * self.iterations as u128)
                    / self.sampled_iterations as u128) as u64
            } else {
                self.firings[c]
            };
            let p = report.filters.entry(fc.name.clone()).or_default();
            p.firings += total;
            p.sampled_firings += self.sampled_firings[c];
            p.sampled_ns += self.sampled_ns[c];
        }
    }

    /// The counters as a standalone [`ProfileReport`].
    pub fn report(&self, codes: &[FilterCode]) -> ProfileReport {
        let mut r = ProfileReport::default();
        self.merge_into(&mut r, codes);
        r
    }
}

/// [`run_ops`] with per-work-op timing recorded into `prof`.
///
/// During an unsampled iteration (see
/// [`OpProfiler::begin_iteration`]) the whole op list passes straight
/// through one [`run_ops`] call — no per-op work at all.  During a
/// sampled iteration each work op (steady body, not prework) is
/// dispatched alone so it can be bracketed by monotonic-clock reads,
/// with synchronization ops executed in contiguous batches between
/// samples.  Execution semantics are identical to `run_ops` — this
/// wrapper only decides when to look at the clock.
pub fn run_ops_profiled(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
    prof: &mut OpProfiler,
) -> Result<(), ExecError> {
    if !prof.sampling {
        return run_ops(ops, shards, base, codes);
    }
    let mut start = 0;
    for (i, op) in ops.iter().enumerate() {
        if let Op::Work {
            code,
            times,
            prework: false,
            ..
        } = op
        {
            let c = *code as usize;
            if start < i {
                run_ops(&ops[start..i], shards, base, codes)?;
            }
            let t0 = Instant::now();
            run_ops(std::slice::from_ref(op), shards, base, codes)?;
            prof.sampled_ns[c] += t0.elapsed().as_nanos() as u64;
            prof.firings[c] += *times as u64;
            prof.sampled_firings[c] += *times as u64;
            start = i + 1;
        }
    }
    if start < ops.len() {
        run_ops(&ops[start..], shards, base, codes)?;
    }
    Ok(())
}

/// Execute a flat op list against a shard slice whose first element is
/// shard `base`.  Every op works on its frame and tapes where they live
/// (see [`lend`]): nothing is moved out of a slot or allocated.
pub fn run_ops(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
) -> Result<(), ExecError> {
    for op in ops {
        if let Err(reason) = run_op(op, shards, base, codes) {
            let node = match op {
                Op::Work { code, .. } => codes.get(*code as usize).map_or("work", |c| &c.name),
                Op::Dup { .. } => "duplicate splitter",
                Op::Moves { .. } => "roundrobin",
                Op::Combine { .. } => "combine joiner",
            };
            return Err(ExecError::Fault {
                node: node.to_string(),
                reason,
            });
        }
    }
    Ok(())
}

#[inline]
fn run_op(op: &Op, shards: &mut [Shard], base: u16, codes: &[FilterCode]) -> Result<(), String> {
    match op {
        Op::Work {
            code,
            frame,
            input,
            output,
            prework,
            times,
        } => {
            let fc = codes
                .get(*code as usize)
                .ok_or_else(|| format!("no filter code {code}"))?;
            let (frames, mut in_t, mut out_t) = lend(shards, base, frame.shard, *input, *output)?;
            let fr = frames
                .get_mut(frame.slot as usize)
                .ok_or_else(|| format!("no frame at {frame:?}"))?;
            // A validated kernel replaces the bytecode VM for the work
            // body (never for prework).  Kernelized filters always have
            // both tapes — the planner gates on tape types — so missing
            // ones are a planner bug.
            match (&fc.kernel, *prework) {
                (Some(kernel), false) => match (in_t, out_t) {
                    (Some(i), Some(o)) => kernel.run(i, o, *times, &mut fr.kre, &mut fr.kim),
                    _ => Err("kernel filter missing a tape".into()),
                },
                _ => {
                    let prog = match prework {
                        true => fc.prework.as_ref().ok_or("missing prework body")?,
                        false => &fc.work,
                    };
                    for _ in 0..*times {
                        exec_program(prog, fr, in_t.as_deref_mut(), out_t.as_deref_mut())?;
                    }
                    Ok(())
                }
            }
        }
        // Dup and Combine check every tape up front (named once, enough
        // items, enough room), so a faulting op changes nothing, then
        // handle one `Copy` item at a time, borrowing one tape at a time.
        Op::Dup {
            input,
            outputs,
            times,
        } => {
            let n = *times as u64;
            if tape_at(shards, base, *input)?.len() < n {
                return Err("duplicate splitter input underflow".into());
            }
            for (k, &l) in outputs.iter().enumerate() {
                if l == *input || outputs[..k].contains(&l) {
                    return Err(format!("duplicate splitter names tape {l:?} twice"));
                }
                if tape_at(shards, base, l)?.free() < n {
                    return Err("duplicate splitter output overflow".into());
                }
            }
            for _ in 0..n {
                let src = tape_at(shards, base, *input)?;
                let v = src.front().ok_or("duplicate splitter input underflow")?;
                src.advance(1);
                for &l in outputs.iter() {
                    tape_at(shards, base, l)?
                        .push_raw(v)
                        .map_err(|()| "duplicate splitter output overflow")?;
                }
            }
            Ok(())
        }
        Op::Moves { moves, times } => {
            for _ in 0..*times {
                for m in moves.iter() {
                    let (_, s, d) = lend(shards, base, m.src.shard, Some(m.src), Some(m.dst))?;
                    let (Some(s), Some(d)) = (s, d) else {
                        return Err("roundrobin move missing a tape".into());
                    };
                    move_items(s, d, m.n as u64)?;
                }
            }
            Ok(())
        }
        Op::Combine {
            inputs,
            output,
            times,
        } => {
            let n = *times as u64;
            for (k, &l) in inputs.iter().enumerate() {
                if l == *output || inputs[..k].contains(&l) {
                    return Err(format!("combine joiner names tape {l:?} twice"));
                }
                if tape_at(shards, base, l)?.len() < n {
                    return Err("combine joiner input underflow".into());
                }
            }
            if !inputs.is_empty() && tape_at(shards, base, *output)?.free() < n {
                return Err("combine joiner output overflow".into());
            }
            for _ in 0..n {
                let mut acc: Option<Raw> = None;
                for &l in inputs.iter() {
                    let t = tape_at(shards, base, l)?;
                    let v = t.front().ok_or("combine joiner input underflow")?;
                    t.advance(1);
                    acc = Some(match acc {
                        None => v,
                        Some(Raw::I(a)) => Raw::I(a.wrapping_add(v.as_i64())),
                        Some(Raw::F(a)) => Raw::F(float_add(a, v.as_f64())),
                    });
                }
                if let Some(v) = acc {
                    tape_at(shards, base, *output)?
                        .push_raw(v)
                        .map_err(|()| "combine joiner output overflow")?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Rates;
    use streamit_graph::BinOp;

    /// Operands that expose a fused form's rounding, sign and NaN
    /// handling: signed zeros, infinities, and NaNs with distinct
    /// payloads (which operand order decides between).
    const SPECIALS: [f64; 8] = [
        1.5,
        -3.25e-7,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0xfff8_0000_0000_0123),
    ];

    fn float_tape(items: &[f64]) -> Tape {
        let mut t = Tape::with_capacity(DataType::Float, items.len() as u64);
        for &v in items {
            t.push_f(v).unwrap();
        }
        t
    }

    fn frame() -> Frame {
        Frame {
            i: vec![0; 8],
            f: vec![0.0; 8],
            af: vec![0.0; 4],
            ..Frame::default()
        }
    }

    fn fire(code: Vec<Inst>, fr: &mut Frame, mut input: Tape) -> Result<(), String> {
        let rates = Rates {
            pop: 0,
            window: 0,
            push: 0,
        };
        exec_program(&Program { code, rates }, fr, Some(&mut input), None)
    }

    /// Fire `fused` and the `unfused` sequence it replaces on copies of
    /// `fr`: same result or error text, and bit-identical registers
    /// 0..4 (the unfused temps live in 4..8).
    fn same(fused: Inst, unfused: Vec<Inst>, fr: &Frame, input: &Tape) {
        let (mut a, mut b) = (fr.clone(), fr.clone());
        let ra = fire(vec![fused.clone()], &mut a, input.clone());
        let rb = fire(unfused, &mut b, input.clone());
        assert_eq!(ra, rb, "{fused:?}");
        let bits = |fr: &Frame| -> Vec<u64> {
            let f = fr.f[..4].iter().map(|x| x.to_bits());
            f.chain(fr.i[..4].iter().map(|&x| x as u64)).collect()
        };
        assert_eq!(bits(&a), bits(&b), "{fused:?} from {:?}", fr.f);
    }

    #[test]
    fn literal_peeks_match_index_register_peeks() {
        let floats = float_tape(&[2.5, -0.0]);
        let mut ints = Tape::with_capacity(DataType::Int, 2);
        ints.push_i(7).unwrap();
        ints.push_i(-9).unwrap();
        for k in 0..3u32 {
            let idx = Inst::ConstI { d: 4, v: k as i64 };
            for tape in [&floats, &ints] {
                let peek_f = vec![idx.clone(), Inst::PeekF { d: 1, idx: 4 }];
                same(Inst::PeekKF { d: 1, k }, peek_f, &frame(), tape);
                let peek_i = vec![idx.clone(), Inst::PeekI { d: 1, idx: 4 }];
                same(Inst::PeekKI { d: 1, k }, peek_i, &frame(), tape);
            }
        }
    }

    #[test]
    fn literal_operand_arithmetic_matches_const_register() {
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem];
        let input = float_tape(&[]);
        for op in ops {
            for &x in &SPECIALS {
                for &k in &SPECIALS {
                    let mut fr = frame();
                    fr.f[1] = x;
                    let c = Inst::ConstF { d: 5, v: k };
                    let right = vec![
                        c.clone(),
                        Inst::ArithF {
                            op,
                            d: 0,
                            a: 1,
                            b: 5,
                        },
                    ];
                    same(Inst::ArithFK { op, d: 0, a: 1, k }, right, &fr, &input);
                    let left = vec![
                        c,
                        Inst::ArithF {
                            op,
                            d: 0,
                            a: 5,
                            b: 1,
                        },
                    ];
                    same(Inst::ArithKF { op, d: 0, k, b: 1 }, left, &fr, &input);
                }
            }
        }
    }

    /// `d = a + peek(k) * c` unfused: the six instructions `MacK` replaces.
    fn mac_k_unfused(d: u16, a: u16, k: u16, c: f64) -> Vec<Inst> {
        vec![
            Inst::ConstI { d: 4, v: k as i64 },
            Inst::PeekF { d: 4, idx: 4 },
            Inst::ConstF { d: 5, v: c },
            Inst::ArithF {
                op: BinOp::Mul,
                d: 6,
                a: 4,
                b: 5,
            },
            Inst::ArithF {
                op: BinOp::Add,
                d: 7,
                a,
                b: 6,
            },
            Inst::MovF { d, s: 7 },
        ]
    }

    #[test]
    fn mac_k_matches_the_sequence_it_fuses() {
        for &acc in &SPECIALS {
            for &c in &SPECIALS {
                for &x in &SPECIALS {
                    let input = float_tape(&[9.0, x]);
                    let mut fr = frame();
                    fr.f[1] = acc;
                    // k = 2 is past the window: both fault, `d` untouched.
                    for k in [1u16, 2] {
                        for d in [0u16, 1] {
                            let fused = Inst::MacK { d, a: 1, k, c };
                            same(fused, mac_k_unfused(d, 1, k, c), &fr, &input);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mac_k_on_an_int_tape_fails_like_a_float_peek() {
        let mut ints = Tape::with_capacity(DataType::Int, 1);
        ints.push_i(3).unwrap();
        let fused = Inst::MacK {
            d: 0,
            a: 1,
            k: 0,
            c: 2.0,
        };
        same(fused, mac_k_unfused(0, 1, 0, 2.0), &frame(), &ints);
    }

    #[test]
    fn mac_l_matches_the_sequence_it_fuses_and_its_check_order() {
        let unfused = vec![
            Inst::PeekF { d: 4, idx: 0 },
            Inst::LoadF {
                d: 5,
                base: 1,
                len: 3,
                idx: 1,
            },
            Inst::ArithF {
                op: BinOp::Mul,
                d: 6,
                a: 4,
                b: 5,
            },
            Inst::ArithF {
                op: BinOp::Add,
                d: 7,
                a: 0,
                b: 6,
            },
            Inst::MovF { d: 0, s: 7 },
        ];
        let fused = Inst::MacL {
            d: 0,
            idx: 0,
            j: 1,
            base: 1,
            len: 3,
        };
        let mut faults = std::collections::BTreeSet::new();
        for (n, &acc) in SPECIALS.iter().enumerate() {
            let input = float_tape(&[SPECIALS[(n + 3) % 8], SPECIALS[(n + 5) % 8]]);
            for w in SPECIALS.chunks(3) {
                // Peek index -1 and 2 fault (sign, window); array index
                // -1 and 3 fault (bounds); the peek's checks come first.
                for idx in -1..=2 {
                    for j in -1..=3 {
                        let mut fr = frame();
                        fr.f[0] = acc;
                        fr.af[1..1 + w.len()].copy_from_slice(w);
                        fr.i[0] = idx;
                        fr.i[1] = j;
                        same(fused.clone(), unfused.clone(), &fr, &input);
                        if let Err(e) = fire(vec![fused.clone()], &mut fr, input.clone()) {
                            faults.insert(e);
                        }
                    }
                }
            }
        }
        assert_eq!(
            faults.into_iter().collect::<Vec<_>>(),
            [
                "array index -1 out of bounds (len 3)",
                "array index 3 out of bounds (len 3)",
                "peek at negative index -1",
                "peek beyond available input",
            ]
        );
    }

    fn loc(shard: u16, slot: u16) -> Loc {
        Loc { shard, slot }
    }

    /// A source, a 1-in 2-out filter and a sink, each with float state,
    /// so every firing depends on the frame it ran against before.
    fn chain_codes() -> Vec<FilterCode> {
        use streamit_graph::builder::*;
        let f = DataType::Float;
        let src = FilterBuilder::source("src", f)
            .rates(0, 0, 1)
            .state("x", f, 0.75)
            .work(|b| b.push(var("x")).set("x", var("x") * lit(1.5) + lit(0.25)))
            .build();
        let mid = FilterBuilder::new("mid", f)
            .rates(1, 1, 2)
            .state("acc", f, -2.0)
            .work(|b| {
                b.set("acc", var("acc") * lit(0.5) + pop())
                    .push(var("acc"))
                    .push(var("acc") * lit(-3.0))
            })
            .build();
        let sink = FilterBuilder::sink("sink", f)
            .rates(1, 1, 0)
            .state("s", f, 1.0)
            .work(|b| b.set("s", var("s") * lit(0.9) + pop()))
            .build();
        [
            (src, None, Some(f)),
            (mid, Some(f), Some(f)),
            (sink, Some(f), None),
        ]
        .iter()
        .map(|(fl, i, o)| crate::bytecode::lower_filter(fl, &fl.name, *i, *o).unwrap())
        .collect()
    }

    /// Run the source → mid → sink chain for a few iterations with its
    /// three frames and two tapes placed in the given shards of a
    /// slice starting at shard `base`.  Returns every frame's float
    /// registers as bits, in filter order.
    fn run_chain(base: u16, frame_shards: [u16; 3], tape_shards: [u16; 2]) -> Vec<Vec<u64>> {
        let codes = chain_codes();
        let mut shards: Vec<Shard> = (0..3)
            .map(|_| Shard {
                tapes: Vec::new(),
                frames: Vec::new(),
            })
            .collect();
        // Pad every shard with a decoy tape and frame so slots are not
        // all zero.
        for sh in &mut shards {
            sh.tapes.push(Tape::with_capacity(DataType::Int, 1));
            sh.frames.push(Frame::default());
        }
        let mut place_tape = |s: u16, cap: u64| {
            let sh = &mut shards[(s - base) as usize];
            sh.tapes.push(Tape::with_capacity(DataType::Float, cap));
            loc(s, sh.tapes.len() as u16 - 1)
        };
        let t0 = place_tape(tape_shards[0], 2);
        let t1 = place_tape(tape_shards[1], 4);
        let frames: Vec<Loc> = (0..3)
            .map(|c| {
                let sh = &mut shards[(frame_shards[c] - base) as usize];
                sh.frames.push(Frame::new(&codes[c]));
                loc(frame_shards[c], sh.frames.len() as u16 - 1)
            })
            .collect();
        let work = |code: u32, input, output, times| Op::Work {
            code,
            frame: frames[code as usize],
            input,
            output,
            prework: false,
            times,
        };
        let ops = [
            work(0, None, Some(t0), 2),
            work(1, Some(t0), Some(t1), 2),
            work(2, Some(t1), None, 4),
        ];
        for _ in 0..5 {
            run_ops(&ops, &mut shards, base, &codes).unwrap();
        }
        frames
            .iter()
            .map(|l| {
                let fr = &shards[(l.shard - base) as usize].frames[l.slot as usize];
                fr.f.iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn work_borrows_its_frame_and_tapes_from_any_shard_of_a_sub_slice() {
        let one_shard = run_chain(0, [0; 3], [0; 2]);
        let fresh: Vec<Vec<u64>> = chain_codes()
            .iter()
            .map(|c| Frame::new(c).f.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_ne!(one_shard[2], fresh[2], "the sink saw items");
        // Every placement of the three frames and two tapes over shards
        // 4..7 of a slice based at 4: frame and tapes in one shard, in
        // two, and in three, with each tape below or above its frame.
        for p in 0..3u32.pow(5) {
            let s = |k: u32| 4 + (p / 3u32.pow(k) % 3) as u16;
            let got = run_chain(4, [s(0), s(1), s(2)], [s(3), s(4)]);
            assert_eq!(got, one_shard, "placement {p}");
        }
    }

    fn int_tape(items: &[i64], cap: u64) -> Tape {
        let mut t = Tape::with_capacity(DataType::Int, cap);
        for &v in items {
            t.push_i(v).unwrap();
        }
        t
    }

    /// Every tape's type, capacity and contents, and every frame.
    fn snapshot(shards: &[Shard]) -> Vec<String> {
        let tape = |t: &Tape| match t {
            Tape::I(r) => format!("I cap {} {:?}", r.capacity(), r.to_vec()),
            Tape::F(r) => format!("F cap {} {:?}", r.capacity(), r.to_vec()),
        };
        let frames = shards
            .iter()
            .flat_map(|sh| sh.frames.iter().map(|f| format!("{f:?}")));
        shards
            .iter()
            .flat_map(|sh| sh.tapes.iter().map(tape))
            .chain(frames)
            .collect()
    }

    #[test]
    fn faulting_sync_ops_leave_every_tape_and_frame_in_place() {
        // Shard 0: a = [1, 2, 3], b full, c empty.  Shard 1: d full, e empty.
        let fixture = || {
            let frame = Frame {
                i: vec![7],
                ..Frame::default()
            };
            vec![
                Shard {
                    tapes: vec![
                        int_tape(&[1, 2, 3], 4),
                        int_tape(&[9, 9], 2),
                        int_tape(&[], 4),
                    ],
                    frames: vec![frame.clone()],
                },
                Shard {
                    tapes: vec![int_tape(&[5], 1), int_tape(&[], 8)],
                    frames: vec![frame],
                },
            ]
        };
        let (a, b, c, d, e) = (loc(0, 0), loc(0, 1), loc(0, 2), loc(1, 0), loc(1, 1));
        let moves = |src, dst, n| Op::Moves {
            moves: Box::new([crate::plan::MoveSpec { src, dst, n }]),
            times: 1,
        };
        let dup = |input, outputs: &[Loc]| Op::Dup {
            input,
            outputs: outputs.into(),
            times: 1,
        };
        let combine = |inputs: &[Loc], output| Op::Combine {
            inputs: inputs.into(),
            output,
            times: 1,
        };
        let cases = [
            (moves(c, e, 1), "tape underflow"),
            (moves(a, b, 1), "tape overflow"),
            (moves(d, a, 2), "tape underflow"),
            (moves(a, d, 1), "tape overflow"),
            (dup(c, &[e]), "input underflow"),
            // `e` has room, `b` has none: nothing may reach `e` either.
            (dup(a, &[e, b]), "output overflow"),
            // `a` has an item, `c` has none: `a` must keep it.
            (combine(&[a, c], e), "input underflow"),
            (combine(&[a, d], b), "output overflow"),
            // A tape named twice: each would pass the per-tape checks,
            // then rotate `a`, overflow `a` after taking `d`'s item,
            // underflow `d` partway, or rotate `a`.
            (dup(a, &[a]), "twice"),
            (dup(d, &[a, a]), "twice"),
            (combine(&[d, d], e), "twice"),
            (combine(&[a], a), "twice"),
        ];
        for (op, want) in cases {
            let mut shards = fixture();
            let before = snapshot(&shards);
            let err = run_ops(std::slice::from_ref(&op), &mut shards, 0, &[]).unwrap_err();
            assert!(
                matches!(&err, ExecError::Fault { reason, .. } if reason.contains(want)),
                "{op:?}: {err}"
            );
            assert_eq!(snapshot(&shards), before, "{op:?}");
        }
    }

    #[test]
    fn an_op_naming_one_tape_twice_or_a_stray_slot_faults() {
        let codes = chain_codes();
        let fixture = || {
            vec![Shard {
                tapes: vec![float_tape(&[1.0, 2.0]), float_tape(&[0.0; 4])],
                frames: vec![Frame::new(&codes[1])],
            }]
        };
        let work = |frame, input, output| Op::Work {
            code: 1,
            frame,
            input: Some(input),
            output: Some(output),
            prework: false,
            times: 1,
        };
        let moves = |src, dst| Op::Moves {
            moves: Box::new([crate::plan::MoveSpec { src, dst, n: 1 }]),
            times: 1,
        };
        let (t0, t1, fr) = (loc(0, 0), loc(0, 1), loc(0, 0));
        let cases = [
            (work(fr, t0, t0), 0),
            (moves(t1, t1), 0),
            (work(loc(0, 3), t0, t1), 0),
            (work(fr, t0, loc(0, 7)), 0),
            (work(fr, loc(5, 0), t1), 0),
            (moves(t0, loc(2, 0)), 0),
            // Based at 1, shard 0 lies before the slice: first the
            // frame, then only the input tape.
            (work(fr, t0, t1), 1),
            (work(loc(1, 0), t0, loc(1, 1)), 1),
        ];
        for (op, base) in cases {
            let mut shards = fixture();
            let before = snapshot(&shards);
            let err = run_ops(std::slice::from_ref(&op), &mut shards, base, &codes);
            assert!(
                matches!(err, Err(ExecError::Fault { .. })),
                "{op:?}: {err:?}"
            );
            assert_eq!(snapshot(&shards), before, "{op:?}");
        }
    }
}
