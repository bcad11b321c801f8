//! Data types and runtime values flowing over stream channels.
//!
//! StreamIt-rs channels are *typed* FIFO tapes.  The language supports two
//! scalar item types — `int` and `float` — which is sufficient for the
//! entire benchmark suite (complex values are modelled as interleaved
//! float pairs, exactly as the original StreamIt benchmarks do).

use std::fmt;

/// The item type carried by a channel or held by a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`int` in the surface language).
    Int,
    /// 64-bit IEEE float (`float` in the surface language).
    Float,
}

impl DataType {
    /// The default ("zero") value of this type.
    pub fn zero(self) -> Value {
        match self {
            DataType::Int => Value::Int(0),
            DataType::Float => Value::Float(0.0),
        }
    }

    /// Surface-language keyword for the type.
    pub fn keyword(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// On x86-64 the NaN rule of [`float_add`] is the SSE2 instruction
/// itself (its first source operand's NaN wins), issued with the
/// operands in order.  Elsewhere the NaN case is spelled out by
/// [`first_nan`], a check after every operation; on x86-64 that check
/// costs the compiled engine's FIR taps about 30% of their throughput.
macro_rules! pinned_op {
    ($sse:literal, $a:ident, $b:ident, $plain:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            let mut r = $a;
            // SAFETY: a register-only SSE2 instruction (x86-64 baseline)
            // that reads `r` and `b` and writes `r`.
            unsafe {
                std::arch::asm!(
                    concat!($sse, " {r}, {b}"),
                    r = inout(xmm_reg) r,
                    b = in(xmm_reg) $b,
                    options(pure, nomem, nostack),
                )
            };
            r
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            first_nan($a, $plain)
        }
    }};
}

/// `a + b` with the NaN choice pinned: when both operands are NaN, the
/// result is `a`'s, quieted.
///
/// IEEE 754 leaves that choice open, and LLVM treats `+` and `*` as
/// commutative, so which NaN a plain `a + b` returns depends on the
/// operand order codegen picks at each call site.  The interpreter, the
/// constant folders and the compiled engine all add and multiply through
/// this rule, so their results stay bit-identical in every build.  With
/// one NaN operand, or none, the operand order cannot change the result.
#[inline(always)]
pub fn float_add(a: f64, b: f64) -> f64 {
    pinned_op!("addsd", a, b, a + b)
}

/// `a * b` with [`float_add`]'s NaN rule.
#[inline(always)]
pub fn float_mul(a: f64, b: f64) -> f64 {
    pinned_op!("mulsd", a, b, a * b)
}

/// `r = a op b`, unless `r` is NaN because `a` is: then `a` quieted, as
/// arithmetic on a NaN returns it.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline(always)]
fn first_nan(a: f64, r: f64) -> f64 {
    if r.is_nan() && a.is_nan() {
        f64::from_bits(a.to_bits() | 1 << 51)
    } else {
        r
    }
}

/// A runtime value: one item on a tape, or the value of a variable.
///
/// Arithmetic follows conventional numeric promotion: an operation with at
/// least one [`Value::Float`] operand is performed in floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
}

impl Value {
    /// The data type of this value.
    pub fn data_type(self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
        }
    }

    /// Numeric view as `f64` (exact for floats, lossy cast for ints).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
        }
    }

    /// Numeric view as `i64` (floats are truncated toward zero).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        }
    }

    /// Truthiness used by `if` conditions: non-zero is true.
    pub fn is_truthy(self) -> bool {
        match self {
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
        }
    }

    /// Coerce to the given channel/variable type.
    pub fn coerce(self, ty: DataType) -> Value {
        match ty {
            DataType::Int => Value::Int(self.as_i64()),
            DataType::Float => Value::Float(self.as_f64()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_values_match_types() {
        assert_eq!(DataType::Int.zero(), Value::Int(0));
        assert_eq!(DataType::Float.zero(), Value::Float(0.0));
    }

    #[test]
    fn coercion_round_trips_int() {
        let v = Value::Float(3.7);
        assert_eq!(v.coerce(DataType::Int), Value::Int(3));
        assert_eq!(Value::Int(5).coerce(DataType::Float), Value::Float(5.0));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(2).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Float(0.1).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
    }

    #[test]
    fn float_ops_return_the_first_nan_quieted() {
        let a = f64::from_bits(0xfff0_0000_0000_0321); // signaling
        let b = f64::from_bits(0x7ff8_0000_0000_0456);
        for (x, y) in [(a, b), (b, a), (a, 1.0), (1.0, a)] {
            // Runtime operands, as on a tape: no compile-time folding.
            let (x, y) = std::hint::black_box((x, y));
            let want = if x.is_nan() { x } else { y }.to_bits() | 1 << 51;
            assert_eq!(float_add(x, y).to_bits(), want);
            assert_eq!(float_mul(x, y).to_bits(), want);
            assert_eq!(first_nan(x, x + y).to_bits(), want);
            assert_eq!(first_nan(x, x * y).to_bits(), want);
        }
        assert_eq!(float_add(-0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(float_mul(3.0, -0.5), -1.5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(DataType::Float.to_string(), "float");
    }
}
