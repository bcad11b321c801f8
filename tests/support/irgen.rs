//! Shared random work-function IR generator, used by the static-analysis
//! soundness proptest (`tests/static_analysis.rs`) and the engine
//! differential proptest (`tests/exec_equivalence.rs`).
//!
//! The generator produces random bodies (branches, constant and
//! data-dependent loops, peeks, local variables) over the work-function
//! IR.  Peek indices are restricted to constants and loop variables so
//! generated programs never peek at a negative index at runtime.
//!
//! [`gen_mac`] produces FIR-shaped multiply-accumulate bodies instead:
//! the shapes the compiled engine fuses, their near misses, and a few
//! that fault on purpose.

#![allow(dead_code)]

use streamit::graph::{BinOp, DataType, Expr, LValue, Stmt};

/// Coefficients and accumulator seeds for [`gen_mac`]: ordinary values
/// beside NaNs (two payloads), signed zeros and infinities.
pub const MAC_VALUES: [f64; 9] = [
    0.75,
    -1.0e-3,
    3.0,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0321),
];

/// One generated multiply-accumulate filter: `let sum = s0`, a run of
/// `sum = sum + peek(k) * coeff` taps (unrolled, or one `for` loop), then
/// `push(sum); pop()`.  The coefficient array is state `h`.
pub struct MacCase {
    pub input: DataType,
    pub taps: usize,
    pub h: Vec<f64>,
    pub body: Vec<Stmt>,
    /// A tap reads `h` at this literal, out-of-range index.
    pub bad_index: Option<i64>,
    /// A tap peeks at a negative literal offset.
    pub negative_peek: bool,
}

fn peek(i: Expr) -> Expr {
    Expr::Peek(Box::new(i))
}

fn tap(sum: &str, p: Expr, c: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Var(sum.into()),
        value: Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Var(sum.into())),
            Box::new(Expr::Binary(BinOp::Mul, Box::new(p), Box::new(c))),
        ),
    }
}

fn h_at(i: Expr) -> Expr {
    Expr::Index("h".into(), Box::new(i))
}

pub fn gen_mac(g: &mut Gen) -> MacCase {
    let pick = |g: &mut Gen| MAC_VALUES[g.below(MAC_VALUES.len() as u64) as usize];
    let input = if g.below(4) == 0 {
        DataType::Int
    } else {
        DataType::Float
    };
    // Loops over more than 256 taps are never unrolled, so they reach
    // the lowering as loops even when the optimizer runs.
    let rolled = g.below(2) == 0;
    let taps = if rolled && g.below(2) == 0 {
        257 + g.below(4) as usize
    } else {
        1 + g.below(8) as usize
    };
    let h: Vec<f64> = (0..taps).map(|_| pick(g)).collect();
    let mut bad_index = None;
    let mut negative_peek = false;
    let mut body = vec![Stmt::Let {
        name: "sum".into(),
        ty: DataType::Float,
        init: Expr::FloatLit(pick(g)),
    }];
    if rolled {
        let i = || Expr::Var("i".into());
        let j = match g.below(6) {
            0 => Expr::IntLit(g.below(taps as u64) as i64),
            1 => Expr::Binary(
                BinOp::Sub,
                Box::new(Expr::IntLit(taps as i64 - 1)),
                Box::new(i()),
            ),
            2 => {
                let bad = if g.below(2) == 0 { -1 } else { taps as i64 };
                bad_index = Some(bad);
                Expr::IntLit(bad)
            }
            _ => i(),
        };
        body.push(Stmt::For {
            var: "i".into(),
            from: Expr::IntLit(0),
            to: Expr::IntLit(taps as i64),
            body: vec![tap("sum", peek(i()), h_at(j))],
        });
    } else {
        let faulty = g.below(5);
        for k in 0..taps {
            let last = k + 1 == taps;
            let k = k as i64;
            let p = if last && faulty == 0 {
                negative_peek = true;
                peek(Expr::IntLit(-1 - g.below(3) as i64))
            } else {
                peek(Expr::IntLit(k))
            };
            let c = if last && faulty == 1 {
                let bad = if g.below(2) == 0 { -1 } else { taps as i64 };
                bad_index = Some(bad);
                h_at(Expr::IntLit(bad))
            } else {
                match g.below(3) {
                    0 => Expr::FloatLit(pick(g)),
                    1 => Expr::IntLit(g.below(5) as i64 - 2),
                    _ => h_at(Expr::IntLit(k)),
                }
            };
            body.push(tap("sum", p, c));
        }
    }
    body.push(Stmt::Push(Expr::Var("sum".into())));
    body.push(Stmt::Expr(Expr::Pop));
    MacCase {
        input,
        taps,
        h,
        body,
        bad_index,
        negative_peek,
    }
}

/// Deterministic splitmix64 over a case seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Scope passed down while generating: visible locals and (separately)
/// loop variables, which are the only variables guaranteed
/// non-negative and therefore usable as peek indices.
#[derive(Clone, Default)]
pub struct Scope {
    pub vars: Vec<String>,
    pub loop_vars: Vec<String>,
    pub fresh: usize,
}

pub fn gen_expr(g: &mut Gen, sc: &Scope, depth: usize) -> Expr {
    let max = if depth == 0 { 4 } else { 6 };
    match g.below(max) {
        0 => Expr::IntLit(g.below(16) as i64 - 8),
        1 if !sc.vars.is_empty() => {
            Expr::Var(sc.vars[g.below(sc.vars.len() as u64) as usize].clone())
        }
        1 => Expr::IntLit(g.below(8) as i64),
        2 => Expr::Pop,
        3 => Expr::Peek(Box::new(gen_peek_index(g, sc))),
        _ => {
            let op = match g.below(7) {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Lt,
                4 => BinOp::Gt,
                5 => BinOp::And,
                _ => BinOp::Or,
            };
            Expr::Binary(
                op,
                Box::new(gen_expr(g, sc, depth - 1)),
                Box::new(gen_expr(g, sc, depth - 1)),
            )
        }
    }
}

/// Peek indices must be non-negative at runtime; generate only
/// constants and loop variables (always >= 0 here).
pub fn gen_peek_index(g: &mut Gen, sc: &Scope) -> Expr {
    if !sc.loop_vars.is_empty() && g.below(2) == 0 {
        Expr::Var(sc.loop_vars[g.below(sc.loop_vars.len() as u64) as usize].clone())
    } else {
        Expr::IntLit(g.below(12) as i64)
    }
}

pub fn gen_block(g: &mut Gen, sc: &mut Scope, depth: usize) -> Vec<Stmt> {
    let n = 1 + g.below(4) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(gen_stmt(g, sc, depth));
    }
    out
}

pub fn gen_stmt(g: &mut Gen, sc: &mut Scope, depth: usize) -> Stmt {
    let max = if depth == 0 { 4 } else { 6 };
    match g.below(max) {
        0 => Stmt::Push(gen_expr(g, sc, 1)),
        1 => Stmt::Expr(Expr::Pop),
        2 => {
            sc.fresh += 1;
            let name = format!("v{}", sc.fresh);
            let init = gen_expr(g, sc, 1);
            sc.vars.push(name.clone());
            Stmt::Let {
                name,
                ty: DataType::Int,
                init,
            }
        }
        3 if !sc.vars.is_empty() => Stmt::Assign {
            target: LValue::Var(sc.vars[g.below(sc.vars.len() as u64) as usize].clone()),
            value: gen_expr(g, sc, 1),
        },
        3 => Stmt::Push(Expr::IntLit(1)),
        4 => {
            let cond = gen_expr(g, sc, 1);
            // Lets inside an arm go out of scope at its end.
            let mut t_sc = sc.clone();
            let then_body = gen_block(g, &mut t_sc, depth - 1);
            let mut e_sc = sc.clone();
            e_sc.fresh = t_sc.fresh;
            let else_body = gen_block(g, &mut e_sc, depth - 1);
            sc.fresh = e_sc.fresh;
            Stmt::If {
                cond,
                then_body,
                else_body,
            }
        }
        _ => {
            sc.fresh += 1;
            let var = format!("i{}", sc.fresh);
            // Mostly constant bounds; occasionally a data-dependent
            // bound so the widened fixpoint path is exercised too
            // (bounded by |.| % 5 to keep the concrete run finite).
            let to = if g.below(4) == 0 {
                Expr::Binary(
                    BinOp::Rem,
                    Box::new(Expr::Call(streamit::graph::Intrinsic::Abs, vec![Expr::Pop])),
                    Box::new(Expr::IntLit(5)),
                )
            } else {
                Expr::IntLit(g.below(5) as i64)
            };
            // The loop variable is readable as a peek index (it is
            // non-negative by construction) but deliberately kept out
            // of `vars` so `Assign` can never make it negative.
            let mut b_sc = sc.clone();
            b_sc.loop_vars.push(var.clone());
            let body = gen_block(g, &mut b_sc, depth - 1);
            sc.fresh = b_sc.fresh;
            Stmt::For {
                var,
                from: Expr::IntLit(0),
                to,
                body,
            }
        }
    }
}
