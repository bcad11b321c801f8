//! Lowering of work-function IR to flat register-based bytecode.
//!
//! The compiled engine executes each filter body as a linear instruction
//! stream over two unboxed register banks (`i64` and `f64`) plus two
//! flat array arenas — no AST recursion, no `HashMap` variable lookups,
//! no per-expression `Value` boxing.  Every instruction is statically
//! typed: the lowering infers each expression's type from declared
//! variable/state types and the tape element types (decidable because
//! the IR has no polymorphic bindings) and inserts explicit cast
//! instructions exactly where the reference interpreter's dynamic
//! `Value::coerce` / `as_f64` / `as_i64` conversions occur, so compiled
//! results are bit-identical to the tree-walker's.
//!
//! Anything outside the statically typable subset (teleport `send`,
//! variables whose type the interpreter would mutate dynamically,
//! unknown names that only fail at runtime) is rejected with a reason —
//! the engine then falls back to the reference interpreter.

use streamit_graph::{
    BinOp, DataType, Expr, Filter, Intrinsic, LValue, StateInit, Stmt, UnOp, Value,
};

/// One bytecode instruction.  `d` registers are destinations; `a`, `b`,
/// `s` are sources.  Register indices select the int (`i`) or float
/// (`f`) bank according to the instruction's static type.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    ConstI {
        d: u16,
        v: i64,
    },
    ConstF {
        d: u16,
        v: f64,
    },
    MovI {
        d: u16,
        s: u16,
    },
    MovF {
        d: u16,
        s: u16,
    },
    /// `f[d] = i[s] as f64` (`Value::as_f64`).
    CastIF {
        d: u16,
        s: u16,
    },
    /// `i[d] = f[s] as i64` (`Value::as_i64`, saturating like Rust `as`).
    CastFI {
        d: u16,
        s: u16,
    },
    /// Integer binary op, `int_binop` semantics (wrapping arithmetic,
    /// checked div/rem, comparisons and logic producing 0/1).
    BinI {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// Float arithmetic (`Add..Rem`), float result.
    ArithF {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// Float comparison (`Eq..Ge`), integer 0/1 result.
    CmpF {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    NegI {
        d: u16,
        s: u16,
    },
    NegF {
        d: u16,
        s: u16,
    },
    /// `i[d] = (i[s] == 0) as i64` (logical not of an int).
    NotI {
        d: u16,
        s: u16,
    },
    /// `i[d] = (f[s] == 0.0) as i64` (logical not of a float).
    NotF {
        d: u16,
        s: u16,
    },
    /// `i[d] = !i[s]` (bitwise complement).
    BitNotI {
        d: u16,
        s: u16,
    },
    /// `i[d] = (f[s] != 0.0) as i64` (`Value::is_truthy` on a float).
    TruthyF {
        d: u16,
        s: u16,
    },
    /// Unary float intrinsic (sin, cos, …, round): `f[d] = g(f[s])`.
    Call1F {
        g: Intrinsic,
        d: u16,
        s: u16,
    },
    AbsI {
        d: u16,
        s: u16,
    },
    AbsF {
        d: u16,
        s: u16,
    },
    PowF {
        d: u16,
        a: u16,
        b: u16,
    },
    MinMaxI {
        max: bool,
        d: u16,
        a: u16,
        b: u16,
    },
    MinMaxF {
        max: bool,
        d: u16,
        a: u16,
        b: u16,
    },
    /// `i[d] = iarena[base + i[idx]]`, bounds-checked against `len`.
    LoadI {
        d: u16,
        base: u32,
        len: u32,
        idx: u16,
    },
    LoadF {
        d: u16,
        base: u32,
        len: u32,
        idx: u16,
    },
    StoreI {
        base: u32,
        len: u32,
        idx: u16,
        s: u16,
    },
    StoreF {
        base: u32,
        len: u32,
        idx: u16,
        s: u16,
    },
    /// Zero an arena range (a `LetArray` site re-creates its array).
    ZeroI {
        base: u32,
        len: u32,
    },
    ZeroF {
        base: u32,
        len: u32,
    },
    /// `i[d] = input[cursor + i[idx]]`; faults on a negative index or
    /// beyond the available window, like the interpreter.
    PeekI {
        d: u16,
        idx: u16,
    },
    PeekF {
        d: u16,
        idx: u16,
    },
    /// `i[d] = input[cursor + k]`: a peek at a literal offset, proved
    /// non-negative when lowered (only the window check stays).
    PeekKI {
        d: u16,
        k: u32,
    },
    PeekKF {
        d: u16,
        k: u32,
    },
    /// `f[d] = f[a] op k`: float arithmetic (`Add..Rem`) with a literal
    /// right operand.
    ArithFK {
        op: BinOp,
        d: u16,
        a: u16,
        k: f64,
    },
    /// `f[d] = k op f[b]`: float arithmetic with a literal left operand.
    ArithKF {
        op: BinOp,
        d: u16,
        k: f64,
        b: u16,
    },
    /// `f[d] = f[a] + input[cursor + k] * c`: one unrolled FIR tap on a
    /// float tape, rounded twice like the `Mul` then `Add` it replaces.
    MacK {
        d: u16,
        a: u16,
        k: u16,
        c: f64,
    },
    /// `f[d] = f[d] + input[cursor + i[idx]] * af[base + i[j]]`: one FIR
    /// tap of a loop, accumulating in place.  Checks run in the order of
    /// the unfused sequence: peek index sign, peek window, array bounds.
    MacL {
        d: u16,
        idx: u16,
        j: u16,
        base: u32,
        len: u32,
    },
    PopI {
        d: u16,
    },
    PopF {
        d: u16,
    },
    /// Push `i[s]` to the output tape (already coerced by the lowering).
    PushI {
        s: u16,
    },
    PushF {
        s: u16,
    },
    Jmp {
        target: u32,
    },
    /// Jump when `i[c] == 0`.
    Jz {
        c: u16,
        target: u32,
    },
}

// The dispatch loop streams instructions; fused forms must not widen them.
const _: () = assert!(std::mem::size_of::<Inst>() == 16);

impl Inst {
    /// The register this instruction only writes (never reads), with its
    /// bank — the one lowering may redirect to skip a copy.
    fn dest_mut(&mut self) -> Option<(&mut u16, Ty)> {
        use Inst::*;
        match self {
            ConstI { d, .. }
            | MovI { d, .. }
            | CastFI { d, .. }
            | BinI { d, .. }
            | CmpF { d, .. }
            | NegI { d, .. }
            | NotI { d, .. }
            | NotF { d, .. }
            | BitNotI { d, .. }
            | TruthyF { d, .. }
            | AbsI { d, .. }
            | MinMaxI { d, .. }
            | LoadI { d, .. }
            | PeekI { d, .. }
            | PeekKI { d, .. }
            | PopI { d } => Some((d, Ty::I)),
            ConstF { d, .. }
            | MovF { d, .. }
            | CastIF { d, .. }
            | ArithF { d, .. }
            | ArithFK { d, .. }
            | ArithKF { d, .. }
            | NegF { d, .. }
            | Call1F { d, .. }
            | AbsF { d, .. }
            | PowF { d, .. }
            | MinMaxF { d, .. }
            | LoadF { d, .. }
            | PeekF { d, .. }
            | PeekKF { d, .. }
            | MacK { d, .. }
            | PopF { d } => Some((d, Ty::F)),
            // `MacL` reads its destination as the accumulator.
            MacL { .. }
            | StoreI { .. }
            | StoreF { .. }
            | ZeroI { .. }
            | ZeroF { .. }
            | PushI { .. }
            | PushF { .. }
            | Jmp { .. }
            | Jz { .. } => None,
        }
    }
}

/// Declared (pop, window, push) rates of one body, where `window` is
/// `peek.max(pop)` — the tape requirement the scheduler must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rates {
    pub pop: u64,
    pub window: u64,
    pub push: u64,
}

/// A lowered body: the instruction stream plus its declared rates (the
/// VM checks observed pops/pushes against them after each firing, like
/// the reference machine's rate-violation check).
#[derive(Debug, Clone)]
pub struct Program {
    pub code: Vec<Inst>,
    pub rates: Rates,
}

/// Everything the VM needs to fire one filter node: bytecode for `work`
/// (and `prework`, sharing the same register file), register-bank and
/// arena sizes, and initial values for persistent state.
#[derive(Debug, Clone)]
pub struct FilterCode {
    pub name: String,
    pub work: Program,
    pub prework: Option<Program>,
    pub n_i: u32,
    pub n_f: u32,
    pub arena_i: u32,
    pub arena_f: u32,
    /// Initial values of persistent int/float state registers.
    pub init_i: Vec<(u16, i64)>,
    pub init_f: Vec<(u16, f64)>,
    /// Initial contents of persistent arena ranges.
    pub init_ai: Vec<(u32, Vec<i64>)>,
    pub init_af: Vec<(u32, Vec<f64>)>,
    /// Optional native kernel, validated against the declared rates and
    /// tape types by the planner; the engine dispatches it in place of
    /// `work` when present.  `work` remains correct and complete — a
    /// dropped kernel only costs speed, never output.
    pub kernel: Option<crate::kernel::KernelCode>,
}

/// Static type of a register: which bank it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    F,
}

impl Ty {
    fn of(ty: DataType) -> Ty {
        match ty {
            DataType::Int => Ty::I,
            DataType::Float => Ty::F,
        }
    }
}

/// A name binding: scalar register or arena range (base, len).
#[derive(Debug, Clone, Copy)]
enum Sym {
    ScalarI(u16),
    ScalarF(u16),
    ArrayI(u32, u32),
    ArrayF(u32, u32),
}

/// The value of a literal expression.
fn literal(e: &Expr) -> Option<Value> {
    match *e {
        Expr::IntLit(v) => Some(Value::Int(v)),
        Expr::FloatLit(v) => Some(Value::Float(v)),
        _ => None,
    }
}

/// A literal peek offset that fits `T`, hence is non-negative.
fn const_offset<T: TryFrom<i64>>(e: &Expr) -> Option<T> {
    match *e {
        Expr::IntLit(k) => T::try_from(k).ok(),
        _ => None,
    }
}

const MAX_REGS: u32 = 60_000;
const MAX_ARENA: u32 = 1 << 20;
const MAX_CODE: usize = 1 << 20;

struct Lowerer {
    code: Vec<Inst>,
    next_i: u32,
    next_f: u32,
    arena_i: u32,
    arena_f: u32,
    /// Lexical scopes, innermost last; scope 0 holds the filter state.
    /// Within a scope, later bindings shadow earlier ones (matching the
    /// interpreter's `HashMap::insert` replacement semantics).
    scopes: Vec<Vec<(String, Sym)>>,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
}

impl Lowerer {
    fn ri(&mut self) -> Result<u16, String> {
        if self.next_i >= MAX_REGS {
            return Err("register bank exhausted".into());
        }
        self.next_i += 1;
        Ok((self.next_i - 1) as u16)
    }

    fn rf(&mut self) -> Result<u16, String> {
        if self.next_f >= MAX_REGS {
            return Err("register bank exhausted".into());
        }
        self.next_f += 1;
        Ok((self.next_f - 1) as u16)
    }

    fn emit(&mut self, i: Inst) -> Result<(), String> {
        if self.code.len() >= MAX_CODE {
            return Err("work function too large to compile".into());
        }
        self.code.push(i);
        Ok(())
    }

    fn alloc_arena(&mut self, ty: Ty, len: usize) -> Result<u32, String> {
        let len = u32::try_from(len).map_err(|_| "array too large".to_string())?;
        let bank = match ty {
            Ty::I => &mut self.arena_i,
            Ty::F => &mut self.arena_f,
        };
        let base = *bank;
        *bank = bank
            .checked_add(len)
            .filter(|&b| b <= MAX_ARENA)
            .ok_or_else(|| "array arena exhausted".to_string())?;
        Ok(base)
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        for scope in self.scopes.iter().rev() {
            for (n, s) in scope.iter().rev() {
                if n == name {
                    return Some(*s);
                }
            }
        }
        None
    }

    fn declare(&mut self, name: &str, sym: Sym) {
        if let Some(top) = self.scopes.last_mut() {
            top.push((name.to_string(), sym));
        }
    }

    /// Coerce a typed register to the int bank (`Value::as_i64`).
    fn coerce_i(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::I => Ok(r),
            Ty::F => {
                let d = self.ri()?;
                self.emit(Inst::CastFI { d, s: r })?;
                Ok(d)
            }
        }
    }

    /// Coerce a typed register to the float bank (`Value::as_f64`).
    fn coerce_f(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::F => Ok(r),
            Ty::I => {
                let d = self.rf()?;
                self.emit(Inst::CastIF { d, s: r })?;
                Ok(d)
            }
        }
    }

    fn coerce_ty(&mut self, r: (u16, Ty), ty: Ty) -> Result<u16, String> {
        match ty {
            Ty::I => self.coerce_i(r),
            Ty::F => self.coerce_f(r),
        }
    }

    /// Register-allocation watermark, taken before lowering a value.
    fn mark(&self) -> (u32, u32) {
        (self.next_i, self.next_f)
    }

    /// Was `r` allocated since `mark`?  Such a temp is written once, by
    /// the instruction that computes it, and no name is bound to it.
    fn fresh(&self, r: u16, ty: Ty, mark: (u32, u32)) -> bool {
        match ty {
            Ty::I => r as u32 >= mark.0,
            Ty::F => r as u32 >= mark.1,
        }
    }

    /// Make the last instruction write `to` instead of the fresh temp
    /// `from` it computed, replacing a trailing `Mov to, from`.  Every
    /// instruction reads its sources before its write, and writes only
    /// when its checks pass, so `to` is left as unfused code leaves it.
    fn retarget(&mut self, from: u16, ty: Ty, to: u16, mark: (u32, u32)) -> bool {
        if !self.fresh(from, ty, mark) {
            return false;
        }
        match self.code.last_mut().and_then(Inst::dest_mut) {
            Some((d, t)) if *d == from && t == ty => {
                *d = to;
                true
            }
            _ => false,
        }
    }

    /// Reduce a typed register to an int truthiness flag
    /// (`Value::is_truthy`): ints are used directly (`Jz` tests `!= 0`),
    /// floats go through `TruthyF` (NaN is truthy, as `f != 0.0` holds).
    fn truthy(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::I => Ok(r),
            Ty::F => {
                let d = self.ri()?;
                self.emit(Inst::TruthyF { d, s: r })?;
                Ok(d)
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(u16, Ty), String> {
        match e {
            Expr::IntLit(v) => {
                let d = self.ri()?;
                self.emit(Inst::ConstI { d, v: *v })?;
                Ok((d, Ty::I))
            }
            Expr::FloatLit(v) => {
                let d = self.rf()?;
                self.emit(Inst::ConstF { d, v: *v })?;
                Ok((d, Ty::F))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Sym::ScalarI(r)) => Ok((r, Ty::I)),
                Some(Sym::ScalarF(r)) => Ok((r, Ty::F)),
                Some(Sym::ArrayI(..)) | Some(Sym::ArrayF(..)) => {
                    Err(format!("array `{name}` used as a scalar"))
                }
                None => Err(format!("unknown variable `{name}`")),
            },
            Expr::Index(name, iexpr) => {
                // Interpreter order: index expression first, then lookup.
                let iv = self.lower_expr(iexpr)?;
                let idx = self.coerce_i(iv)?;
                match self.lookup(name) {
                    Some(Sym::ArrayI(base, len)) => {
                        let d = self.ri()?;
                        self.emit(Inst::LoadI { d, base, len, idx })?;
                        Ok((d, Ty::I))
                    }
                    Some(Sym::ArrayF(base, len)) => {
                        let d = self.rf()?;
                        self.emit(Inst::LoadF { d, base, len, idx })?;
                        Ok((d, Ty::F))
                    }
                    _ => Err(format!("unknown array `{name}[]`")),
                }
            }
            Expr::Peek(iexpr) => {
                let in_ty = self
                    .in_ty
                    .ok_or_else(|| "peek in a filter with no input".to_string())?;
                // A literal offset needs no index register, and its sign
                // check passes at lowering; a negative one stays unfused
                // so it faults at runtime like the interpreter.
                if let Some(k) = const_offset::<u32>(iexpr) {
                    return match Ty::of(in_ty) {
                        Ty::I => {
                            let d = self.ri()?;
                            self.emit(Inst::PeekKI { d, k })?;
                            Ok((d, Ty::I))
                        }
                        Ty::F => {
                            let d = self.rf()?;
                            self.emit(Inst::PeekKF { d, k })?;
                            Ok((d, Ty::F))
                        }
                    };
                }
                let iv = self.lower_expr(iexpr)?;
                let idx = self.coerce_i(iv)?;
                match Ty::of(in_ty) {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::PeekI { d, idx })?;
                        Ok((d, Ty::I))
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::PeekF { d, idx })?;
                        Ok((d, Ty::F))
                    }
                }
            }
            Expr::Pop => {
                let in_ty = self
                    .in_ty
                    .ok_or_else(|| "pop in a filter with no input".to_string())?;
                match Ty::of(in_ty) {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::PopI { d })?;
                        Ok((d, Ty::I))
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::PopF { d })?;
                        Ok((d, Ty::F))
                    }
                }
            }
            Expr::Unary(op, a) => {
                let v = self.lower_expr(a)?;
                match op {
                    UnOp::Neg => match v.1 {
                        Ty::I => {
                            let d = self.ri()?;
                            self.emit(Inst::NegI { d, s: v.0 })?;
                            Ok((d, Ty::I))
                        }
                        Ty::F => {
                            let d = self.rf()?;
                            self.emit(Inst::NegF { d, s: v.0 })?;
                            Ok((d, Ty::F))
                        }
                    },
                    UnOp::Not => {
                        let d = self.ri()?;
                        match v.1 {
                            Ty::I => self.emit(Inst::NotI { d, s: v.0 })?,
                            Ty::F => self.emit(Inst::NotF { d, s: v.0 })?,
                        }
                        Ok((d, Ty::I))
                    }
                    UnOp::BitNot => {
                        let s = self.coerce_i(v)?;
                        let d = self.ri()?;
                        self.emit(Inst::BitNotI { d, s })?;
                        Ok((d, Ty::I))
                    }
                }
            }
            Expr::Binary(op, a, b) => self.lower_binary(*op, a, b),
            Expr::Call(g, args) => self.lower_call(*g, args),
        }
    }

    fn lower_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<(u16, Ty), String> {
        if op == BinOp::Add {
            if let Some(r) = self.lower_mac_k(a, b)? {
                return Ok((r, Ty::F));
            }
        }
        let arith = matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        );
        match (literal(a), literal(b)) {
            (None, Some(k)) if arith => self.lower_arith_lit(op, a, b, k, true),
            (Some(k), None) if arith => self.lower_arith_lit(op, b, a, k, false),
            _ => {
                let va = self.lower_expr(a)?;
                let vb = self.lower_expr(b)?;
                self.binary_regs(op, va, vb)
            }
        }
    }

    /// `e op k` (`lit_right`) or `k op e` with one literal operand: a
    /// float result takes the literal as an immediate (`as_f64`, the
    /// interpreter's coercion); an int one materializes it, as unfused
    /// code does (literals are pure, so evaluation order is unchanged).
    fn lower_arith_lit(
        &mut self,
        op: BinOp,
        e: &Expr,
        lit: &Expr,
        k: Value,
        lit_right: bool,
    ) -> Result<(u16, Ty), String> {
        let v = self.lower_expr(e)?;
        if v.1 == Ty::I && k.data_type() == DataType::Int {
            let kv = self.lower_expr(lit)?;
            return if lit_right {
                self.binary_regs(op, v, kv)
            } else {
                self.binary_regs(op, kv, v)
            };
        }
        let s = self.coerce_f(v)?;
        let d = self.rf()?;
        let k = k.as_f64();
        self.emit(if lit_right {
            Inst::ArithFK { op, d, a: s, k }
        } else {
            Inst::ArithKF { op, d, k, b: s }
        })?;
        Ok((d, Ty::F))
    }

    /// `a + peek(k) * c` on a float tape, with literal `k` and `c`, as one
    /// `MacK` — `None` (nothing emitted) for any other shape.
    fn lower_mac_k(&mut self, a: &Expr, b: &Expr) -> Result<Option<u16>, String> {
        let Expr::Binary(BinOp::Mul, p, c) = b else {
            return Ok(None);
        };
        let (Expr::Peek(ie), Some(c)) = (&**p, literal(c)) else {
            return Ok(None);
        };
        let (Some(k), Some(DataType::Float)) = (const_offset::<u16>(ie), self.in_ty) else {
            return Ok(None);
        };
        let va = self.lower_expr(a)?;
        let a = self.coerce_f(va)?;
        let d = self.rf()?;
        self.emit(Inst::MacK {
            d,
            a,
            k,
            c: c.as_f64(),
        })?;
        Ok(Some(d))
    }

    /// `x = x + peek(i) * arr[j]` on a float tape, float `x` and `arr`, as
    /// one in-place `MacL`; `false` (nothing emitted) for any other shape.
    /// `j` must be an int variable or an in-bounds literal, so reading
    /// it after the peek cannot reorder a fault; a literal peek offset
    /// must be non-negative.
    fn lower_mac_l(&mut self, name: &str, d: u16, value: &Expr) -> Result<bool, String> {
        let Expr::Binary(BinOp::Add, acc, m) = value else {
            return Ok(false);
        };
        let (Expr::Var(acc), Expr::Binary(BinOp::Mul, p, h)) = (&**acc, &**m) else {
            return Ok(false);
        };
        let (Expr::Peek(ie), Expr::Index(arr, je)) = (&**p, &**h) else {
            return Ok(false);
        };
        if acc != name
            || self.in_ty != Some(DataType::Float)
            || matches!(**ie, Expr::IntLit(k) if k < 0)
        {
            return Ok(false);
        }
        let Some(Sym::ArrayF(base, len)) = self.lookup(arr) else {
            return Ok(false);
        };
        let j = match &**je {
            Expr::Var(jn) => match self.lookup(jn) {
                Some(Sym::ScalarI(r)) => r,
                _ => return Ok(false),
            },
            Expr::IntLit(v) if (0..len as i64).contains(v) => {
                let r = self.ri()?;
                self.emit(Inst::ConstI { d: r, v: *v })?;
                r
            }
            _ => return Ok(false),
        };
        let iv = self.lower_expr(ie)?;
        let idx = self.coerce_i(iv)?;
        self.emit(Inst::MacL {
            d,
            idx,
            j,
            base,
            len,
        })?;
        Ok(true)
    }

    fn binary_regs(
        &mut self,
        op: BinOp,
        va: (u16, Ty),
        vb: (u16, Ty),
    ) -> Result<(u16, Ty), String> {
        if va.1 == Ty::I && vb.1 == Ty::I {
            // Both ints: `int_binop` for every operator.
            let d = self.ri()?;
            self.emit(Inst::BinI {
                op,
                d,
                a: va.0,
                b: vb.0,
            })?;
            return Ok((d, Ty::I));
        }
        // Mixed or float: `float_binop(a.as_f64(), b.as_f64())`.
        let fa = self.coerce_f(va)?;
        let fb = self.coerce_f(vb)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let d = self.rf()?;
                self.emit(Inst::ArithF {
                    op,
                    d,
                    a: fa,
                    b: fb,
                })?;
                Ok((d, Ty::F))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let d = self.ri()?;
                self.emit(Inst::CmpF {
                    op,
                    d,
                    a: fa,
                    b: fb,
                })?;
                Ok((d, Ty::I))
            }
            BinOp::And | BinOp::Or => {
                // ((a != 0.0) && (b != 0.0)): truthify each, then the
                // integer logic op (operands are already 0/1).
                let ta = self.ri()?;
                self.emit(Inst::TruthyF { d: ta, s: fa })?;
                let tb = self.ri()?;
                self.emit(Inst::TruthyF { d: tb, s: fb })?;
                let d = self.ri()?;
                self.emit(Inst::BinI {
                    op,
                    d,
                    a: ta,
                    b: tb,
                })?;
                Ok((d, Ty::I))
            }
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => {
                // float_binop falls back to `int_binop(a as i64, b as i64)`
                // — the cast goes *through f64* even for int operands, so
                // mixed-type bitwise stays bit-identical for huge ints.
                let ia = self.ri()?;
                self.emit(Inst::CastFI { d: ia, s: fa })?;
                let ib = self.ri()?;
                self.emit(Inst::CastFI { d: ib, s: fb })?;
                let d = self.ri()?;
                self.emit(Inst::BinI {
                    op,
                    d,
                    a: ia,
                    b: ib,
                })?;
                Ok((d, Ty::I))
            }
        }
    }

    fn lower_call(&mut self, g: Intrinsic, args: &[Expr]) -> Result<(u16, Ty), String> {
        if args.len() != g.arity() {
            return Err(format!("intrinsic {} arity mismatch", g.name()));
        }
        match g {
            Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Tan
            | Intrinsic::Atan
            | Intrinsic::Sqrt
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Floor
            | Intrinsic::Ceil
            | Intrinsic::Round => {
                let v = self.lower_expr(&args[0])?;
                let s = self.coerce_f(v)?;
                let d = self.rf()?;
                self.emit(Inst::Call1F { g, d, s })?;
                Ok((d, Ty::F))
            }
            Intrinsic::Abs => {
                let v = self.lower_expr(&args[0])?;
                match v.1 {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::AbsI { d, s: v.0 })?;
                        Ok((d, Ty::I))
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::AbsF { d, s: v.0 })?;
                        Ok((d, Ty::F))
                    }
                }
            }
            Intrinsic::Pow => {
                let va = self.lower_expr(&args[0])?;
                let vb = self.lower_expr(&args[1])?;
                let a = self.coerce_f(va)?;
                let b = self.coerce_f(vb)?;
                let d = self.rf()?;
                self.emit(Inst::PowF { d, a, b })?;
                Ok((d, Ty::F))
            }
            Intrinsic::Min | Intrinsic::Max => {
                let max = g == Intrinsic::Max;
                let va = self.lower_expr(&args[0])?;
                let vb = self.lower_expr(&args[1])?;
                if va.1 == Ty::I && vb.1 == Ty::I {
                    let d = self.ri()?;
                    self.emit(Inst::MinMaxI {
                        max,
                        d,
                        a: va.0,
                        b: vb.0,
                    })?;
                    Ok((d, Ty::I))
                } else {
                    let a = self.coerce_f(va)?;
                    let b = self.coerce_f(vb)?;
                    let d = self.rf()?;
                    self.emit(Inst::MinMaxF { max, d, a, b })?;
                    Ok((d, Ty::F))
                }
            }
            Intrinsic::ToInt => {
                let v = self.lower_expr(&args[0])?;
                Ok((self.coerce_i(v)?, Ty::I))
            }
            Intrinsic::ToFloat => {
                let v = self.lower_expr(&args[0])?;
                Ok((self.coerce_f(v)?, Ty::F))
            }
        }
    }

    /// A loop bound in a register of its own: a fresh temp as it is,
    /// anything else copied, since the body may assign whatever
    /// variables the bound reads.
    fn lower_bound(&mut self, e: &Expr) -> Result<u16, String> {
        let mark = self.mark();
        let v = self.lower_expr(e)?;
        let r = self.coerce_i(v)?;
        if self.fresh(r, Ty::I, mark) {
            return Ok(r);
        }
        let d = self.ri()?;
        self.emit(Inst::MovI { d, s: r })?;
        Ok(d)
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Let { name, ty, init } => {
                let mark = self.mark();
                let v = self.lower_expr(init)?;
                let ty = Ty::of(*ty);
                let src = self.coerce_ty(v, ty)?;
                // A fresh temp becomes the variable's register; anything
                // else is copied, as the initializer may alias another
                // variable's register.
                if self.fresh(src, ty, mark) {
                    let sym = match ty {
                        Ty::I => Sym::ScalarI(src),
                        Ty::F => Sym::ScalarF(src),
                    };
                    self.declare(name, sym);
                    return Ok(());
                }
                match ty {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::MovI { d, s: src })?;
                        self.declare(name, Sym::ScalarI(d));
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::MovF { d, s: src })?;
                        self.declare(name, Sym::ScalarF(d));
                    }
                }
                Ok(())
            }
            Stmt::LetArray { name, ty, len } => {
                let ty = Ty::of(*ty);
                let base = self.alloc_arena(ty, *len)?;
                let len = *len as u32;
                match ty {
                    Ty::I => {
                        self.emit(Inst::ZeroI { base, len })?;
                        self.declare(name, Sym::ArrayI(base, len));
                    }
                    Ty::F => {
                        self.emit(Inst::ZeroF { base, len })?;
                        self.declare(name, Sym::ArrayF(base, len));
                    }
                }
                Ok(())
            }
            Stmt::Assign { target, value } => match target {
                LValue::Var(name) => {
                    if let Some(Sym::ScalarF(d)) = self.lookup(name) {
                        if self.lower_mac_l(name, d, value)? {
                            return Ok(());
                        }
                    }
                    let mark = self.mark();
                    let v = self.lower_expr(value)?;
                    match self.lookup(name) {
                        Some(Sym::ScalarI(d)) => {
                            let s = self.coerce_i(v)?;
                            if self.retarget(s, Ty::I, d, mark) {
                                return Ok(());
                            }
                            self.emit(Inst::MovI { d, s })
                        }
                        Some(Sym::ScalarF(d)) => {
                            let s = self.coerce_f(v)?;
                            if self.retarget(s, Ty::F, d, mark) {
                                return Ok(());
                            }
                            self.emit(Inst::MovF { d, s })
                        }
                        _ => Err(format!("assignment to unknown variable `{name}`")),
                    }
                }
                LValue::Index(name, iexpr) => {
                    // Interpreter order: value first, then the index.
                    let v = self.lower_expr(value)?;
                    let iv = self.lower_expr(iexpr)?;
                    let idx = self.coerce_i(iv)?;
                    match self.lookup(name) {
                        Some(Sym::ArrayI(base, len)) => {
                            let s = self.coerce_i(v)?;
                            self.emit(Inst::StoreI { base, len, idx, s })
                        }
                        Some(Sym::ArrayF(base, len)) => {
                            let s = self.coerce_f(v)?;
                            self.emit(Inst::StoreF { base, len, idx, s })
                        }
                        _ => Err(format!("assignment to unknown array `{name}[]`")),
                    }
                }
            },
            Stmt::Push(e) => {
                let out_ty = self
                    .out_ty
                    .ok_or_else(|| "push in a filter with no output".to_string())?;
                let v = self.lower_expr(e)?;
                match Ty::of(out_ty) {
                    Ty::I => {
                        let s = self.coerce_i(v)?;
                        self.emit(Inst::PushI { s })
                    }
                    Ty::F => {
                        let s = self.coerce_f(v)?;
                        self.emit(Inst::PushF { s })
                    }
                }
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                // The interpreter would silently change the loop
                // variable's slot type if the body re-declares it in the
                // loop's own scope; that dynamic behavior has no static
                // lowering, so reject it (nested scopes are fine).
                if body.iter().any(|s| match s {
                    Stmt::Let { name, .. } | Stmt::LetArray { name, .. } => name == var,
                    _ => false,
                }) {
                    return Err(format!("loop variable `{var}` re-declared in loop body"));
                }
                let ctr = self.lower_bound(from)?;
                let lim = self.lower_bound(to)?;
                self.scopes.push(Vec::new());
                let var_reg = self.ri()?;
                self.declare(var, Sym::ScalarI(var_reg));
                let one = self.ri()?;
                self.emit(Inst::ConstI { d: one, v: 1 })?;
                let cond = self.ri()?;
                let head = self.code.len() as u32;
                self.emit(Inst::BinI {
                    op: BinOp::Lt,
                    d: cond,
                    a: ctr,
                    b: lim,
                })?;
                let exit_jz = self.code.len();
                self.emit(Inst::Jz {
                    c: cond,
                    target: u32::MAX,
                })?;
                // The loop variable is force-set each iteration, even if
                // the body assigned it.
                self.emit(Inst::MovI { d: var_reg, s: ctr })?;
                self.lower_stmts(body)?;
                self.emit(Inst::BinI {
                    op: BinOp::Add,
                    d: ctr,
                    a: ctr,
                    b: one,
                })?;
                self.emit(Inst::Jmp { target: head })?;
                let end = self.code.len() as u32;
                if let Some(Inst::Jz { target, .. }) = self.code.get_mut(exit_jz) {
                    *target = end;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_expr(cond)?;
                let flag = self.truthy(c)?;
                let to_else = self.code.len();
                self.emit(Inst::Jz {
                    c: flag,
                    target: u32::MAX,
                })?;
                self.scopes.push(Vec::new());
                self.lower_stmts(then_body)?;
                self.scopes.pop();
                let to_end = self.code.len();
                self.emit(Inst::Jmp { target: u32::MAX })?;
                let else_at = self.code.len() as u32;
                if let Some(Inst::Jz { target, .. }) = self.code.get_mut(to_else) {
                    *target = else_at;
                }
                self.scopes.push(Vec::new());
                self.lower_stmts(else_body)?;
                self.scopes.pop();
                let end = self.code.len() as u32;
                if let Some(Inst::Jmp { target }) = self.code.get_mut(to_end) {
                    *target = end;
                }
                Ok(())
            }
            Stmt::Send { .. } => Err("teleport send in work function".into()),
        }
    }
}

/// Lower one filter node's bodies to bytecode.
///
/// `in_ty` is the element type of the tape the node actually reads
/// (`None` when the filter has no input connection), `out_ty` the type
/// pushes coerce to — the out-edge's type, or `Float` for the external
/// output stream (whose capture applies `Value::as_f64`).
pub fn lower_filter(
    f: &Filter,
    name: &str,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
) -> Result<FilterCode, String> {
    let mut lw = Lowerer {
        code: Vec::new(),
        next_i: 0,
        next_f: 0,
        arena_i: 0,
        arena_f: 0,
        scopes: vec![Vec::new()],
        in_ty,
        out_ty,
    };

    // Persistent state: scalars become pinned registers, arrays arena
    // ranges; both are (re-)initialized when a run's frame is built.
    let mut init_i = Vec::new();
    let mut init_f = Vec::new();
    let mut init_ai = Vec::new();
    let mut init_af = Vec::new();
    for sv in &f.state {
        match (&sv.init, Ty::of(sv.ty)) {
            (StateInit::Scalar(v), Ty::I) => {
                let r = lw.ri()?;
                init_i.push((r, v.as_i64()));
                lw.declare(&sv.name, Sym::ScalarI(r));
            }
            (StateInit::Scalar(v), Ty::F) => {
                let r = lw.rf()?;
                init_f.push((r, v.as_f64()));
                lw.declare(&sv.name, Sym::ScalarF(r));
            }
            (StateInit::Array(vs), ty) => {
                let base = lw.alloc_arena(ty, vs.len())?;
                match ty {
                    Ty::I => {
                        init_ai.push((base, vs.iter().map(|v| v.as_i64()).collect()));
                        lw.declare(&sv.name, Sym::ArrayI(base, vs.len() as u32));
                    }
                    Ty::F => {
                        init_af.push((base, vs.iter().map(|v| v.as_f64()).collect()));
                        lw.declare(&sv.name, Sym::ArrayF(base, vs.len() as u32));
                    }
                }
            }
        }
    }
    let state_scope = lw.scopes[0].clone();

    // Work body: one fresh local scope above the state scope (work-level
    // `let`s land there, shadowing state like the interpreter's
    // `with_locals` top scope).
    lw.scopes.push(Vec::new());
    lw.lower_stmts(&f.work)
        .map_err(|e| format!("{name}: {e}"))?;
    lw.scopes.truncate(1);
    let work = Program {
        code: std::mem::take(&mut lw.code),
        rates: Rates {
            pop: f.pop as u64,
            window: f.peek.max(f.pop) as u64,
            push: f.push as u64,
        },
    };

    // Prework shares the register file and arenas (state registers must
    // line up) but has its own instruction stream and rates.
    let prework = match &f.prework {
        Some(pw) => {
            lw.scopes = vec![state_scope, Vec::new()];
            lw.lower_stmts(&pw.body)
                .map_err(|e| format!("{name} (prework): {e}"))?;
            Some(Program {
                code: std::mem::take(&mut lw.code),
                rates: Rates {
                    pop: pw.pop as u64,
                    window: pw.peek.max(pw.pop) as u64,
                    push: pw.push as u64,
                },
            })
        }
        None => None,
    };

    Ok(FilterCode {
        name: name.to_string(),
        work,
        prework,
        n_i: lw.next_i,
        n_f: lw.next_f,
        arena_i: lw.arena_i,
        arena_f: lw.arena_f,
        init_i,
        init_f,
        init_ai,
        init_af,
        kernel: None,
    })
}

/// Initial items loaded onto an edge must already have the edge's type:
/// the reference machine stores them *uncoerced*, so a mismatch would
/// diverge between engines.
pub fn initial_items_typed(initial: &[Value], ty: DataType) -> Result<(), String> {
    if initial.iter().all(|v| v.data_type() == ty) {
        Ok(())
    } else {
        Err("feedback initial items differ from edge type".into())
    }
}
