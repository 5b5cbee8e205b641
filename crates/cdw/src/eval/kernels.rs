//! Typed columnar kernels.
//!
//! Every kernel receives already-evaluated operands as `CVal`s (a dense
//! column or a literal scalar — literals are never materialized into
//! columns), resolves its type dispatch **once**, then runs a monomorphic
//! loop over `i64` / `f64` / `bool` / `str` slices with validity-bitmap
//! null handling. Null slots in kernel output hold the same defaults
//! `ColumnBuilder::push_null` writes (`0` / `0.0` / `false` / `""`), so
//! kernel output is byte-identical to builder output under the spill
//! codec.
//!
//! Semantics are pinned to the scalar [`Value`] kernels in
//! [`super::interp`] — every arm either reproduces the scalar kernel's
//! arithmetic exactly (same float operations in the same order, wrapping
//! integer ops, `total_cmp` comparison semantics) or falls back to a
//! row-at-a-time loop over those scalar kernels for combinations the
//! typed paths do not cover (which also reproduces their errors).

use std::cmp::Ordering;

use sigma_value::calendar::{self, DateUnit};
use sigma_value::{column::cast_value, Column, ColumnBuilder, DataType, Texts, Value};

use super::interp::{eval_binary_value, eval_unary_value};
use super::like::LikePattern;
use super::planner::CVal;
use super::{BinOp, ScalarFunc, UnOp};
use crate::error::CdwError;

/// A zero-row column of the given type (kernels never run on empty input;
/// dispatchers return this early so per-row error paths cannot fire, just
/// like the interpreter's 0-iteration loops).
pub(crate) fn empty(out: DataType) -> Column {
    Column::nulls(out, 0)
}

/// Materialize a scalar into a column of `out` (the same coercion a
/// [`ColumnBuilder`] applies: `Int -> Float`, `Date -> Timestamp`).
pub(crate) fn broadcast(v: &Value, out: DataType, n: usize) -> Result<Column, CdwError> {
    let mut b = ColumnBuilder::new(out, n);
    if v.is_null() {
        for _ in 0..n {
            b.push_null();
        }
    } else {
        for _ in 0..n {
            b.push(v.clone()).map_err(CdwError::from)?;
        }
    }
    Ok(b.finish())
}

// ---------------------------------------------------------------------
// typed operand views
// ---------------------------------------------------------------------

/// `i64` view of an Int operand.
enum Ints<'a> {
    Slice(&'a [i64], Option<&'a [bool]>),
    Scalar(i64),
}

impl<'a> Ints<'a> {
    fn of(v: &'a CVal) -> Option<Ints<'a>> {
        match v {
            CVal::Col(c) => c.ints().map(|s| Ints::Slice(s, c.validity())),
            CVal::Scalar(Value::Int(x)) => Some(Ints::Scalar(*x)),
            _ => None,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Ints::Slice(s, _) => s[i],
            Ints::Scalar(x) => *x,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        matches!(self, Ints::Slice(_, Some(m)) if !m[i])
    }

    fn has_nulls(&self) -> bool {
        matches!(self, Ints::Slice(_, Some(_)))
    }
}

/// `f64` view of any numeric operand (Int widens via `as f64`, exactly
/// like `Value::as_f64`).
enum Nums<'a> {
    Ints(&'a [i64], Option<&'a [bool]>),
    Floats(&'a [f64], Option<&'a [bool]>),
    Scalar(f64),
}

impl<'a> Nums<'a> {
    fn of(v: &'a CVal) -> Option<Nums<'a>> {
        match v {
            CVal::Col(c) => match (c.ints(), c.floats()) {
                (Some(s), _) => Some(Nums::Ints(s, c.validity())),
                (_, Some(s)) => Some(Nums::Floats(s, c.validity())),
                _ => None,
            },
            CVal::Scalar(v) => v.as_f64().map(Nums::Scalar),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            Nums::Ints(s, _) => s[i] as f64,
            Nums::Floats(s, _) => s[i],
            Nums::Scalar(x) => *x,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        match self {
            Nums::Ints(_, Some(m)) | Nums::Floats(_, Some(m)) => !m[i],
            _ => false,
        }
    }

    fn has_nulls(&self) -> bool {
        matches!(self, Nums::Ints(_, Some(_)) | Nums::Floats(_, Some(_)))
    }
}

/// `&str` view of a Text operand.
enum Strs<'a> {
    Slice(Texts<'a>, Option<&'a [bool]>),
    Scalar(&'a str),
}

impl<'a> Strs<'a> {
    fn of(v: &'a CVal) -> Option<Strs<'a>> {
        match v {
            CVal::Col(c) => c.texts().map(|s| Strs::Slice(s, c.validity())),
            CVal::Scalar(Value::Text(s)) => Some(Strs::Scalar(s)),
            _ => None,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &'a str {
        match self {
            Strs::Slice(s, _) => s.get(i),
            Strs::Scalar(x) => x,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        matches!(self, Strs::Slice(_, Some(m)) if !m[i])
    }

    fn has_nulls(&self) -> bool {
        matches!(self, Strs::Slice(_, Some(_)))
    }
}

/// `i32` day view of a Date operand.
enum Dates<'a> {
    Slice(&'a [i32], Option<&'a [bool]>),
    Scalar(i32),
}

impl<'a> Dates<'a> {
    fn of(v: &'a CVal) -> Option<Dates<'a>> {
        match v {
            CVal::Col(c) => c.dates().map(|s| Dates::Slice(s, c.validity())),
            CVal::Scalar(Value::Date(d)) => Some(Dates::Scalar(*d)),
            _ => None,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i32 {
        match self {
            Dates::Slice(s, _) => s[i],
            Dates::Scalar(d) => *d,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        matches!(self, Dates::Slice(_, Some(m)) if !m[i])
    }

    fn has_nulls(&self) -> bool {
        matches!(self, Dates::Slice(_, Some(_)))
    }
}

/// Timeline (microsecond) view of any temporal operand — Dates widen by
/// `MICROS_PER_DAY`, matching `Value::as_micros`.
enum Micros<'a> {
    Dates(&'a [i32], Option<&'a [bool]>),
    Stamps(&'a [i64], Option<&'a [bool]>),
    Scalar(i64),
}

impl<'a> Micros<'a> {
    fn of(v: &'a CVal) -> Option<Micros<'a>> {
        match v {
            CVal::Col(c) => match (c.dates(), c.timestamps()) {
                (Some(s), _) => Some(Micros::Dates(s, c.validity())),
                (_, Some(s)) => Some(Micros::Stamps(s, c.validity())),
                _ => None,
            },
            CVal::Scalar(v) => v.as_micros().map(Micros::Scalar),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Micros::Dates(s, _) => s[i] as i64 * calendar::MICROS_PER_DAY,
            Micros::Stamps(s, _) => s[i],
            Micros::Scalar(x) => *x,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        match self {
            Micros::Dates(_, Some(m)) | Micros::Stamps(_, Some(m)) => !m[i],
            _ => false,
        }
    }

    fn has_nulls(&self) -> bool {
        matches!(self, Micros::Dates(_, Some(_)) | Micros::Stamps(_, Some(_)))
    }
}

/// `bool` view with null visibility (for Kleene AND/OR, where a NULL
/// scalar side is still a valid operand).
enum Bools<'a> {
    Slice(&'a [bool], Option<&'a [bool]>),
    Scalar(Option<bool>),
}

impl<'a> Bools<'a> {
    fn of(v: &'a CVal) -> Option<Bools<'a>> {
        match v {
            CVal::Col(c) => c.bools().map(|s| Bools::Slice(s, c.validity())),
            CVal::Scalar(Value::Bool(b)) => Some(Bools::Scalar(Some(*b))),
            CVal::Scalar(Value::Null) => Some(Bools::Scalar(None)),
            _ => None,
        }
    }

    /// `None` = NULL at this row.
    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            Bools::Slice(s, m) => match m {
                Some(m) if !m[i] => None,
                _ => Some(s[i]),
            },
            Bools::Scalar(b) => *b,
        }
    }
}

// ---------------------------------------------------------------------
// generic loop shapes
// ---------------------------------------------------------------------

macro_rules! strict_zip {
    // Strict-null binary loop: output null where either input is null,
    // defaults in null slots. `$no_nulls` selects the branch-free fast
    // path; `$ctor` builds the output column.
    ($n:expr, $l:expr, $r:expr, $no_nulls:expr, $default:expr, $ctor:path, |$a:ident, $b:ident| $body:expr) => {{
        let n = $n;
        if $no_nulls {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let $a = $l.get(i);
                let $b = $r.get(i);
                out.push($body);
            }
            $ctor(out, None)
        } else {
            let mut out = Vec::with_capacity(n);
            let mut validity = Vec::with_capacity(n);
            for i in 0..n {
                if $l.is_null(i) || $r.is_null(i) {
                    out.push($default);
                    validity.push(false);
                } else {
                    let $a = $l.get(i);
                    let $b = $r.get(i);
                    out.push($body);
                    validity.push(true);
                }
            }
            $ctor(out, Some(validity))
        }
    }};
}

macro_rules! opt_zip {
    // Like `strict_zip!` but the body yields `Option<_>` (value-level
    // NULLs: division by zero and friends).
    ($n:expr, $l:expr, $r:expr, $default:expr, $ctor:path, |$a:ident, $b:ident| $body:expr) => {{
        let n = $n;
        let mut out = Vec::with_capacity(n);
        let mut validity = Vec::with_capacity(n);
        for i in 0..n {
            if $l.is_null(i) || $r.is_null(i) {
                out.push($default);
                validity.push(false);
            } else {
                let $a = $l.get(i);
                let $b = $r.get(i);
                match $body {
                    Some(v) => {
                        out.push(v);
                        validity.push(true);
                    }
                    None => {
                        out.push($default);
                        validity.push(false);
                    }
                }
            }
        }
        $ctor(out, Some(validity))
    }};
}

macro_rules! strict_map {
    // One-operand `strict_zip!`: output null where the input is null.
    ($n:expr, $v:expr, $default:expr, $ctor:path, |$a:ident| $body:expr) => {{
        let n = $n;
        if !$v.has_nulls() {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let $a = $v.get(i);
                out.push($body);
            }
            $ctor(out, None)
        } else {
            let mut out = Vec::with_capacity(n);
            let mut validity = Vec::with_capacity(n);
            for i in 0..n {
                if $v.is_null(i) {
                    out.push($default);
                    validity.push(false);
                } else {
                    let $a = $v.get(i);
                    out.push($body);
                    validity.push(true);
                }
            }
            $ctor(out, Some(validity))
        }
    }};
}

/// Build a Text column row by row without a `String` per row: `write`
/// appends row `i`'s text to the column's own buffer (returning `false`
/// makes the row NULL instead); rows where `is_null` holds are NULL.
fn text_rows(
    n: usize,
    is_null: impl Fn(usize) -> bool,
    mut write: impl FnMut(usize, &mut String) -> bool,
) -> Column {
    let mut b = ColumnBuilder::new(DataType::Text, n);
    for i in 0..n {
        if is_null(i) {
            b.push_null();
        } else {
            b.push_str_with(|buf| write(i, buf)).expect("text builder");
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------
// binary dispatch
// ---------------------------------------------------------------------

/// The orderings a comparison accepts, as a set of bits (`Less`, `Equal`,
/// `Greater` at bits 0, 1, 2): a row's test is one shift and mask, with
/// no per-row dispatch on the operator.
pub(crate) fn accepts(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => 0b010,
        BinOp::NotEq => 0b101,
        BinOp::Lt => 0b001,
        BinOp::LtEq => 0b011,
        BinOp::Gt => 0b100,
        BinOp::GtEq => 0b110,
        _ => unreachable!("not a comparison"),
    }
}

#[inline]
pub(crate) fn accepted(want: u8, ord: Ordering) -> bool {
    (want >> (ord as i8 + 1)) & 1 != 0
}

/// Row-at-a-time fallback over the scalar kernels: reproduces exactly the
/// interpreter's values *and* errors for operand combinations the typed
/// arms do not cover.
fn fallback_binary(
    op: BinOp,
    l: &CVal,
    r: &CVal,
    out: DataType,
    n: usize,
) -> Result<Column, CdwError> {
    let mut b = ColumnBuilder::new(out, n);
    for i in 0..n {
        b.push(eval_binary_value(op, l.value_at(i), r.value_at(i))?)
            .map_err(CdwError::from)?;
    }
    Ok(b.finish())
}

/// Evaluate a binary operator over two operands, dispatching to a typed
/// kernel once per batch.
pub(crate) fn binary(
    op: BinOp,
    l: &CVal,
    r: &CVal,
    out: DataType,
    n: usize,
) -> Result<Column, CdwError> {
    use BinOp::*;
    if n == 0 {
        return Ok(empty(out));
    }
    // AND/OR: Kleene logic, non-strict nulls.
    if matches!(op, And | Or) {
        if let (Some(a), Some(b)) = (Bools::of(l), Bools::of(r)) {
            return Ok(kleene(op == And, &a, &b, n));
        }
        return fallback_binary(op, l, r, out, n);
    }
    // Strict operators: a NULL literal operand nulls every row.
    if l.is_null_scalar() || r.is_null_scalar() {
        return Ok(Column::nulls(out, n));
    }
    // Two non-null literals: compute once, broadcast.
    if let (CVal::Scalar(a), CVal::Scalar(b)) = (l, r) {
        let v = eval_binary_value(op, a.clone(), b.clone())?;
        return broadcast(&v, out, n);
    }
    let (Some(ld), Some(rd)) = (l.dtype(), r.dtype()) else {
        return fallback_binary(op, l, r, out, n);
    };
    use DataType as T;
    Ok(match op {
        Add | Sub => {
            let sub = op == Sub;
            match (ld, rd) {
                // Temporal arithmetic in days.
                (T::Date, T::Int) => {
                    let (a, b) = (Dates::of(l).unwrap(), Ints::of(r).unwrap());
                    let no_nulls = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, a, b, no_nulls, 0i32, Column::new_date, |d, k| if sub {
                        d - k as i32
                    } else {
                        d + k as i32
                    })
                }
                (T::Int, T::Date) if !sub => {
                    let (a, b) = (Ints::of(l).unwrap(), Dates::of(r).unwrap());
                    let no_nulls = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, b, a, no_nulls, 0i32, Column::new_date, |d, k| d + k
                        as i32)
                }
                (T::Timestamp, T::Int) => {
                    let (a, b) = (Micros::of(l).unwrap(), Ints::of(r).unwrap());
                    let no_nulls = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(
                        n,
                        a,
                        b,
                        no_nulls,
                        0i64,
                        Column::new_timestamp,
                        |t, k| if sub {
                            t - k * calendar::MICROS_PER_DAY
                        } else {
                            t + k * calendar::MICROS_PER_DAY
                        }
                    )
                }
                (a, b) if a.is_temporal() && b.is_temporal() && sub => {
                    let (a, b) = (Micros::of(l).unwrap(), Micros::of(r).unwrap());
                    let no_nulls = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, a, b, no_nulls, 0i64, Column::new_int, |x, y| (x - y)
                        / calendar::MICROS_PER_DAY)
                }
                (T::Int, T::Int) => {
                    let (a, b) = (Ints::of(l).unwrap(), Ints::of(r).unwrap());
                    let has = a.has_nulls() || b.has_nulls();
                    if sub {
                        strict_zip!(n, a, b, !has, 0i64, Column::new_int, |x, y| x
                            .wrapping_sub(y))
                    } else {
                        strict_zip!(n, a, b, !has, 0i64, Column::new_int, |x, y| x
                            .wrapping_add(y))
                    }
                }
                (a, b) if a.is_numeric() && b.is_numeric() => {
                    let (a, b) = (Nums::of(l).unwrap(), Nums::of(r).unwrap());
                    let has = a.has_nulls() || b.has_nulls();
                    if sub {
                        strict_zip!(n, a, b, !has, 0f64, Column::new_float, |x, y| x - y)
                    } else {
                        strict_zip!(n, a, b, !has, 0f64, Column::new_float, |x, y| x + y)
                    }
                }
                _ => return fallback_binary(op, l, r, out, n),
            }
        }
        Mul => match (ld, rd) {
            (T::Int, T::Int) => {
                let (a, b) = (Ints::of(l).unwrap(), Ints::of(r).unwrap());
                let has = a.has_nulls() || b.has_nulls();
                strict_zip!(n, a, b, !has, 0i64, Column::new_int, |x, y| x
                    .wrapping_mul(y))
            }
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (a, b) = (Nums::of(l).unwrap(), Nums::of(r).unwrap());
                let has = a.has_nulls() || b.has_nulls();
                strict_zip!(n, a, b, !has, 0f64, Column::new_float, |x, y| x * y)
            }
            _ => return fallback_binary(op, l, r, out, n),
        },
        Div => match (ld, rd) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (a, b) = (Nums::of(l).unwrap(), Nums::of(r).unwrap());
                // Division by zero isolates to NULL (cell-level errors).
                opt_zip!(n, a, b, 0f64, Column::new_float, |x, y| if y == 0.0 {
                    None
                } else {
                    Some(x / y)
                })
            }
            _ => return fallback_binary(op, l, r, out, n),
        },
        Mod => match (ld, rd) {
            (T::Int, T::Int) => {
                let (a, b) = (Ints::of(l).unwrap(), Ints::of(r).unwrap());
                opt_zip!(n, a, b, 0i64, Column::new_int, |x, y| if y == 0 {
                    None
                } else {
                    Some(x.rem_euclid(y))
                })
            }
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (a, b) = (Nums::of(l).unwrap(), Nums::of(r).unwrap());
                opt_zip!(n, a, b, 0f64, Column::new_float, |x, y| if y == 0.0 {
                    None
                } else {
                    Some(x.rem_euclid(y))
                })
            }
            _ => return fallback_binary(op, l, r, out, n),
        },
        Concat => match (ld, rd) {
            (T::Text, T::Text) => {
                let (a, b) = (Strs::of(l).unwrap(), Strs::of(r).unwrap());
                text_rows(
                    n,
                    |i| a.is_null(i) || b.is_null(i),
                    |i, buf| {
                        buf.push_str(a.get(i));
                        buf.push_str(b.get(i));
                        true
                    },
                )
            }
            _ => return fallback_binary(op, l, r, out, n),
        },
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if ld.unify(rd).is_none() {
                // Incomparable types: null rows stay NULL, the first valid
                // row errors — exactly the interpreter's behavior.
                return fallback_binary(op, l, r, out, n);
            }
            let want = accepts(op);
            match (ld, rd) {
                (T::Int, T::Int) => {
                    let (a, b) = (Ints::of(l).unwrap(), Ints::of(r).unwrap());
                    let has = a.has_nulls() || b.has_nulls();
                    strict_zip!(n, a, b, !has, false, Column::new_bool, |x, y| accepted(
                        want,
                        x.cmp(&y)
                    ))
                }
                (a, b) if a.is_numeric() && b.is_numeric() => {
                    let (a, b) = (Nums::of(l).unwrap(), Nums::of(r).unwrap());
                    let has = a.has_nulls() || b.has_nulls();
                    strict_zip!(n, a, b, !has, false, Column::new_bool, |x, y| accepted(
                        want,
                        x.total_cmp(&y)
                    ))
                }
                (T::Text, T::Text) => {
                    let (a, b) = (Strs::of(l).unwrap(), Strs::of(r).unwrap());
                    let has = a.has_nulls() || b.has_nulls();
                    strict_zip!(n, a, b, !has, false, Column::new_bool, |x, y| accepted(
                        want,
                        x.cmp(y)
                    ))
                }
                (T::Bool, T::Bool) => {
                    let (a, b) = (Bools::of(l).unwrap(), Bools::of(r).unwrap());
                    bool_cmp(n, &a, &b, want)
                }
                (a, b) if a.is_temporal() && b.is_temporal() => {
                    let (a, b) = (Micros::of(l).unwrap(), Micros::of(r).unwrap());
                    let no_nulls = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, a, b, no_nulls, false, Column::new_bool, |x, y| accepted(
                        want,
                        x.cmp(&y)
                    ))
                }
                _ => return fallback_binary(op, l, r, out, n),
            }
        }
        And | Or => unreachable!("handled above"),
    })
}

/// Kleene three-valued AND/OR over bool operands.
fn kleene(is_and: bool, l: &Bools, r: &Bools, n: usize) -> Column {
    let mut out = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    let mut any_null = false;
    for i in 0..n {
        let v = if is_and {
            match (l.at(i), r.at(i)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (l.at(i), r.at(i)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        };
        out.push(v.unwrap_or_default());
        validity.push(v.is_some());
        any_null |= v.is_none();
    }
    Column::new_bool(out, any_null.then_some(validity))
}

/// Bool comparison (Bools sides track nulls through `at`).
fn bool_cmp(n: usize, l: &Bools, r: &Bools, want: u8) -> Column {
    let mut out = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    let mut any_null = false;
    for i in 0..n {
        match (l.at(i), r.at(i)) {
            (Some(x), Some(y)) => {
                out.push(accepted(want, x.cmp(&y)));
                validity.push(true);
            }
            _ => {
                out.push(false);
                validity.push(false);
                any_null = true;
            }
        }
    }
    Column::new_bool(out, any_null.then_some(validity))
}

// ---------------------------------------------------------------------
// unary / IS NULL
// ---------------------------------------------------------------------

pub(crate) fn unary(op: UnOp, c: &CVal, out: DataType, n: usize) -> Result<Column, CdwError> {
    if n == 0 {
        return Ok(empty(out));
    }
    if let CVal::Scalar(v) = c {
        let r = eval_unary_value(op, v.clone())?;
        return broadcast(&r, out, n);
    }
    let CVal::Col(col) = c else { unreachable!() };
    Ok(match (op, col.dtype()) {
        (UnOp::Neg, DataType::Int) => {
            let s = col.ints().unwrap();
            match col.validity() {
                None => Column::new_int(s.iter().map(|x| -x).collect(), None),
                Some(m) => Column::new_int(
                    s.iter()
                        .zip(m)
                        .map(|(x, &v)| if v { -x } else { 0 })
                        .collect(),
                    Some(m.to_vec()),
                ),
            }
        }
        (UnOp::Neg, DataType::Float) => {
            let s = col.floats().unwrap();
            match col.validity() {
                None => Column::new_float(s.iter().map(|x| -x).collect(), None),
                // Null slots keep the builder default (0.0, not -0.0): the
                // codec encodes null-slot payloads verbatim.
                Some(m) => Column::new_float(
                    s.iter()
                        .zip(m)
                        .map(|(x, &v)| if v { -x } else { 0.0 })
                        .collect(),
                    Some(m.to_vec()),
                ),
            }
        }
        (UnOp::Not, DataType::Bool) => {
            let s = col.bools().unwrap();
            match col.validity() {
                None => Column::new_bool(s.iter().map(|x| !x).collect(), None),
                Some(m) => Column::new_bool(
                    s.iter()
                        .zip(m)
                        .map(|(x, &v)| if v { !x } else { false })
                        .collect(),
                    Some(m.to_vec()),
                ),
            }
        }
        _ => {
            let mut b = ColumnBuilder::new(out, n);
            for i in 0..n {
                b.push(eval_unary_value(op, col.value(i))?)
                    .map_err(CdwError::from)?;
            }
            b.finish()
        }
    })
}

/// `IS [NOT] NULL` straight off the validity bitmap.
pub(crate) fn is_null(c: &CVal, negated: bool, n: usize) -> Column {
    match c {
        CVal::Scalar(v) => Column::from_bools(vec![v.is_null() != negated; n]),
        CVal::Col(col) => match col.validity() {
            None => Column::from_bools(vec![negated; n]),
            Some(m) => Column::from_bools(m.iter().map(|&valid| valid == negated).collect()),
        },
    }
}

// ---------------------------------------------------------------------
// BETWEEN
// ---------------------------------------------------------------------

macro_rules! tri_between {
    ($n:expr, $v:expr, $l:expr, $h:expr, $negated:expr, |$a:ident, $b:ident, $c:ident| $inside:expr) => {{
        let n = $n;
        let mut out = Vec::with_capacity(n);
        let mut validity = Vec::with_capacity(n);
        let mut any_null = false;
        for i in 0..n {
            if $v.is_null(i) || $l.is_null(i) || $h.is_null(i) {
                out.push(false);
                validity.push(false);
                any_null = true;
            } else {
                let $a = $v.get(i);
                let $b = $l.get(i);
                let $c = $h.get(i);
                out.push($inside != $negated);
                validity.push(true);
            }
        }
        Column::new_bool(out, any_null.then_some(validity))
    }};
}

pub(crate) fn between(
    v: &CVal,
    low: &CVal,
    high: &CVal,
    negated: bool,
    n: usize,
) -> Result<Column, CdwError> {
    if n == 0 {
        return Ok(empty(DataType::Bool));
    }
    if v.is_null_scalar() || low.is_null_scalar() || high.is_null_scalar() {
        return Ok(Column::nulls(DataType::Bool, n));
    }
    let (Some(vd), Some(ld), Some(hd)) = (v.dtype(), low.dtype(), high.dtype()) else {
        return between_fallback(v, low, high, negated, n);
    };
    use DataType as T;
    Ok(match (vd, ld, hd) {
        (T::Int, T::Int, T::Int) => {
            let (a, b, c) = (
                Ints::of(v).unwrap(),
                Ints::of(low).unwrap(),
                Ints::of(high).unwrap(),
            );
            tri_between!(n, a, b, c, negated, |x, l, h| x >= l && x <= h)
        }
        (a, b, c) if a.is_numeric() && b.is_numeric() && c.is_numeric() => {
            let (a, b, c) = (
                Nums::of(v).unwrap(),
                Nums::of(low).unwrap(),
                Nums::of(high).unwrap(),
            );
            tri_between!(n, a, b, c, negated, |x, l, h| x.total_cmp(&l)
                != Ordering::Less
                && x.total_cmp(&h) != Ordering::Greater)
        }
        (T::Text, T::Text, T::Text) => {
            let (a, b, c) = (
                Strs::of(v).unwrap(),
                Strs::of(low).unwrap(),
                Strs::of(high).unwrap(),
            );
            tri_between!(n, a, b, c, negated, |x, l, h| x >= l && x <= h)
        }
        (a, b, c) if a.is_temporal() && b.is_temporal() && c.is_temporal() => {
            let (a, b, c) = (
                Micros::of(v).unwrap(),
                Micros::of(low).unwrap(),
                Micros::of(high).unwrap(),
            );
            tri_between!(n, a, b, c, negated, |x, l, h| x >= l && x <= h)
        }
        _ => return between_fallback(v, low, high, negated, n),
    })
}

/// Value-level BETWEEN (`total_cmp` over boxed values) for mixed operand
/// types — never errors, matching the interpreter.
fn between_fallback(
    v: &CVal,
    low: &CVal,
    high: &CVal,
    negated: bool,
    n: usize,
) -> Result<Column, CdwError> {
    let mut b = ColumnBuilder::new(DataType::Bool, n);
    for i in 0..n {
        let (x, l, h) = (v.value_at(i), low.value_at(i), high.value_at(i));
        if x.is_null() || l.is_null() || h.is_null() {
            b.push_null();
        } else {
            let inside = x.total_cmp(&l) != Ordering::Less && x.total_cmp(&h) != Ordering::Greater;
            b.push(Value::Bool(inside != negated))
                .map_err(CdwError::from)?;
        }
    }
    Ok(b.finish())
}

// ---------------------------------------------------------------------
// LIKE
// ---------------------------------------------------------------------

/// LIKE against a pattern compiled once for the whole column.
pub(crate) fn like_compiled(c: &CVal, pattern: &LikePattern, negated: bool, n: usize) -> Column {
    match Strs::of(c) {
        // Non-text input (or NULL literal): every row is NULL, like the
        // scalar kernel's `as_text` miss.
        None => Column::nulls(DataType::Bool, n),
        Some(s) => {
            if !s.has_nulls() {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(pattern.matches(s.get(i)) != negated);
                }
                Column::new_bool(out, None)
            } else {
                let mut out = Vec::with_capacity(n);
                let mut validity = Vec::with_capacity(n);
                for i in 0..n {
                    if s.is_null(i) {
                        out.push(false);
                        validity.push(false);
                    } else {
                        out.push(pattern.matches(s.get(i)) != negated);
                        validity.push(true);
                    }
                }
                Column::new_bool(out, Some(validity))
            }
        }
    }
}

/// LIKE with a per-row pattern column; consecutive identical patterns
/// reuse the last compiled program.
pub(crate) fn like_dynamic(c: &CVal, pattern: &CVal, negated: bool, n: usize) -> Column {
    let (vs, ps) = (Strs::of(c), Strs::of(pattern));
    let (Some(vs), Some(ps)) = (vs, ps) else {
        return Column::nulls(DataType::Bool, n);
    };
    let mut cached: Option<(String, LikePattern)> = None;
    let mut out = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    let mut any_null = false;
    for i in 0..n {
        if vs.is_null(i) || ps.is_null(i) {
            out.push(false);
            validity.push(false);
            any_null = true;
            continue;
        }
        let pat = ps.get(i);
        let recompile = cached.as_ref().is_none_or(|(p, _)| p != pat);
        if recompile {
            cached = Some((pat.to_string(), LikePattern::compile(pat)));
        }
        let compiled = &cached.as_ref().unwrap().1;
        out.push(compiled.matches(vs.get(i)) != negated);
        validity.push(true);
    }
    Column::new_bool(out, any_null.then_some(validity))
}

// ---------------------------------------------------------------------
// CAST
// ---------------------------------------------------------------------

/// Columnar cast with per-pair dispatch. `strict: false` (TRY_CAST — what
/// compiled worksheet SQL uses) nulls unconvertible cells; `strict: true`
/// errors on the first one.
pub(crate) fn cast(col: &Column, target: DataType, strict: bool) -> Result<Column, CdwError> {
    if col.dtype() == target {
        return Ok(col.clone());
    }
    let n = col.len();
    let validity = col.validity().map(<[bool]>::to_vec);
    use DataType as T;
    Ok(match (col.dtype(), target) {
        (T::Int, T::Float) => Column::new_float(
            col.ints().unwrap().iter().map(|&x| x as f64).collect(),
            validity,
        ),
        (T::Float, T::Int) => Column::new_int(
            col.floats().unwrap().iter().map(|&x| x as i64).collect(),
            validity,
        ),
        (T::Bool, T::Int) => Column::new_int(
            col.bools().unwrap().iter().map(|&b| b as i64).collect(),
            validity,
        ),
        (T::Bool, T::Float) => Column::new_float(
            col.bools()
                .unwrap()
                .iter()
                .map(|&b| b as i64 as f64)
                .collect(),
            validity,
        ),
        (T::Int, T::Bool) => Column::new_bool(
            col.ints().unwrap().iter().map(|&x| x != 0).collect(),
            validity,
        ),
        (T::Date, T::Timestamp) => Column::new_timestamp(
            col.dates()
                .unwrap()
                .iter()
                .map(|&d| d as i64 * calendar::MICROS_PER_DAY)
                .collect(),
            validity,
        ),
        (T::Timestamp, T::Date) => Column::new_date(
            col.timestamps()
                .unwrap()
                .iter()
                .map(|&t| t.div_euclid(calendar::MICROS_PER_DAY) as i32)
                .collect(),
            validity,
        ),
        // Renders, string parsing, and unsupported pairs: per-row scalar
        // casts (dispatch already happened — this arm is one loop).
        _ => {
            let mut b = ColumnBuilder::new(target, n);
            for i in 0..n {
                match cast_value(col.value(i), target) {
                    Ok(v) => b.push(v).map_err(CdwError::from)?,
                    Err(e) if strict => return Err(CdwError::from(e)),
                    Err(_) => b.push_null(),
                }
            }
            b.finish()
        }
    })
}

// ---------------------------------------------------------------------
// IN-list fast paths
// ---------------------------------------------------------------------

/// Pre-resolved literal IN-lists (built once at compile time).
#[derive(Debug, Clone)]
pub(crate) enum FastList {
    Ints {
        set: std::collections::HashSet<i64>,
        saw_null: bool,
    },
    Texts {
        set: std::collections::HashSet<String>,
        saw_null: bool,
    },
}

/// `expr IN (literals...)` with the literal set hashed once. Returns
/// `None` when the operand shape doesn't fit (caller falls back).
pub(crate) fn in_list_fast(c: &CVal, fast: &FastList, negated: bool, n: usize) -> Option<Column> {
    let mut out = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    let mut any_null = false;
    // Per row: NULL operand -> NULL; found -> !negated; not found with a
    // NULL in the list -> NULL (it *might* have matched); else negated.
    macro_rules! scan {
        ($side:expr, $lookup:expr, $saw_null:expr) => {
            for i in 0..n {
                if $side.is_null(i) {
                    out.push(false);
                    validity.push(false);
                    any_null = true;
                } else if $lookup(i) {
                    out.push(!negated);
                    validity.push(true);
                } else if $saw_null {
                    out.push(false);
                    validity.push(false);
                    any_null = true;
                } else {
                    out.push(negated);
                    validity.push(true);
                }
            }
        };
    }
    match fast {
        FastList::Ints { set, saw_null } => {
            let s = Ints::of(c)?;
            scan!(s, |i| set.contains(&s.get(i)), *saw_null);
        }
        FastList::Texts { set, saw_null } => {
            let s = Strs::of(c)?;
            scan!(s, |i| set.contains(s.get(i)), *saw_null);
        }
    }
    Some(Column::new_bool(out, any_null.then_some(validity)))
}

// ---------------------------------------------------------------------
// scalar functions
// ---------------------------------------------------------------------

/// A literal date-unit argument, resolved once per batch. `None` for a
/// non-literal, non-text or unknown unit — the row fallback then raises
/// the interpreter's error on the first row that reaches it.
fn literal_unit(v: &CVal) -> Option<DateUnit> {
    match v {
        CVal::Scalar(Value::Text(s)) => DateUnit::parse(s),
        _ => None,
    }
}

/// Byte offset of the `n`-th character of `s` (its length when `s` is
/// shorter).
fn char_offset(s: &str, n: usize) -> usize {
    s.char_indices().nth(n).map_or(s.len(), |(i, _)| i)
}

/// Typed kernels for scalar functions over already-evaluated operands
/// (literal arguments arrive as scalars and are resolved once: date units
/// parse once, not once per row). Returns `None` when the function or
/// this operand-type combination has no kernel; the caller then runs the
/// row-at-a-time loop over [`super::interp::eval_func_value`], which also
/// produces the interpreter's argument-type errors. Every arm computes
/// exactly what that scalar kernel computes.
pub(crate) fn func(func: ScalarFunc, args: &[CVal], out: DataType, n: usize) -> Option<Column> {
    use DataType as T;
    use ScalarFunc::*;
    let ty = |i: usize| args.get(i).and_then(CVal::dtype);
    if !func.def().null_tolerant && args.iter().any(CVal::is_null_scalar) {
        return Some(Column::nulls(out, n));
    }
    Some(match func {
        Abs if ty(0) == Some(T::Int) => {
            let a = Ints::of(&args[0])?;
            strict_map!(n, a, 0i64, Column::new_int, |x| x.wrapping_abs())
        }
        Abs => {
            let a = Nums::of(&args[0])?;
            strict_map!(n, a, 0f64, Column::new_float, |x| x.abs())
        }
        Floor | Ceil | Sign => {
            let a = Nums::of(&args[0])?;
            match func {
                Floor => strict_map!(n, a, 0i64, Column::new_int, |x| x.floor() as i64),
                Ceil => strict_map!(n, a, 0i64, Column::new_int, |x| x.ceil() as i64),
                _ => strict_map!(n, a, 0i64, Column::new_int, |x| if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                }),
            }
        }
        DateTrunc | DatePart if args.len() == 2 => {
            let u = literal_unit(&args[0])?;
            match (func, ty(1)?) {
                (DateTrunc, T::Date) => {
                    let d = Dates::of(&args[1])?;
                    strict_map!(n, d, 0i32, Column::new_date, |x| calendar::trunc_date(x, u))
                }
                (DateTrunc, T::Timestamp) => {
                    let t = Micros::of(&args[1])?;
                    strict_map!(n, t, 0i64, Column::new_timestamp, |x| {
                        calendar::trunc_timestamp(x, u)
                    })
                }
                (DatePart, T::Date) => {
                    let d = Dates::of(&args[1])?;
                    strict_map!(n, d, 0i64, Column::new_int, |x| calendar::date_part(x, u))
                }
                (DatePart, T::Timestamp) => {
                    let t = Micros::of(&args[1])?;
                    strict_map!(n, t, 0i64, Column::new_int, |x| calendar::timestamp_part(
                        x, u
                    ))
                }
                _ => return None,
            }
        }
        DateAdd if args.len() == 3 && ty(1) == Some(T::Int) => {
            let u = literal_unit(&args[0])?;
            let k = Ints::of(&args[1])?;
            match ty(2)? {
                T::Date => {
                    let d = Dates::of(&args[2])?;
                    let dense = !k.has_nulls() && !d.has_nulls();
                    strict_zip!(n, k, d, dense, 0i32, Column::new_date, |k, d| {
                        calendar::date_add(d, u, k)
                    })
                }
                T::Timestamp => {
                    let t = Micros::of(&args[2])?;
                    let dense = !k.has_nulls() && !t.has_nulls();
                    strict_zip!(n, k, t, dense, 0i64, Column::new_timestamp, |k, t| {
                        calendar::timestamp_add(t, u, k)
                    })
                }
                _ => return None,
            }
        }
        DateDiff if args.len() == 3 => {
            let u = literal_unit(&args[0])?;
            match (ty(1)?, ty(2)?) {
                (T::Date, T::Date) => {
                    let (a, b) = (Dates::of(&args[1])?, Dates::of(&args[2])?);
                    let dense = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, a, b, dense, 0i64, Column::new_int, |a, b| {
                        calendar::date_diff(a, b, u)
                    })
                }
                (a, b) if a.is_temporal() && b.is_temporal() => {
                    let (a, b) = (Micros::of(&args[1])?, Micros::of(&args[2])?);
                    let dense = !a.has_nulls() && !b.has_nulls();
                    strict_zip!(n, a, b, dense, 0i64, Column::new_int, |a, b| {
                        calendar::timestamp_diff(a, b, u)
                    })
                }
                _ => return None,
            }
        }
        Upper | Lower => {
            let s = Strs::of(&args[0])?;
            let upper = func == Upper;
            text_rows(
                n,
                |i| s.is_null(i),
                |i, buf| {
                    let x = s.get(i);
                    if x.is_ascii() {
                        // ASCII folds in place (what the Unicode fold does to
                        // ASCII); only other text pays for a fold buffer.
                        let start = buf.len();
                        buf.push_str(x);
                        if upper {
                            buf[start..].make_ascii_uppercase();
                        } else {
                            buf[start..].make_ascii_lowercase();
                        }
                    } else if upper {
                        buf.push_str(&x.to_uppercase());
                    } else {
                        buf.push_str(&x.to_lowercase());
                    }
                    true
                },
            )
        }
        Trim | LTrim | RTrim => {
            let s = Strs::of(&args[0])?;
            text_rows(
                n,
                |i| s.is_null(i),
                |i, buf| {
                    let x = s.get(i);
                    buf.push_str(match func {
                        Trim => x.trim(),
                        LTrim => x.trim_start(),
                        _ => x.trim_end(),
                    });
                    true
                },
            )
        }
        Length => {
            let s = Strs::of(&args[0])?;
            strict_map!(n, s, 0i64, Column::new_int, |x| x.chars().count() as i64)
        }
        Left | Right if args.len() == 2 && ty(1) == Some(T::Int) => {
            let (s, k) = (Strs::of(&args[0])?, Ints::of(&args[1])?);
            text_rows(
                n,
                |i| s.is_null(i) || k.is_null(i),
                |i, buf| {
                    let (x, k) = (s.get(i), k.get(i).max(0) as usize);
                    buf.push_str(if func == Left {
                        &x[..char_offset(x, k)]
                    } else {
                        let skip = x.chars().count().saturating_sub(k);
                        &x[char_offset(x, skip)..]
                    });
                    true
                },
            )
        }
        Substring if args.len() == 3 && ty(1) == Some(T::Int) && ty(2) == Some(T::Int) => {
            let s = Strs::of(&args[0])?;
            let (from, len) = (Ints::of(&args[1])?, Ints::of(&args[2])?);
            text_rows(
                n,
                |i| s.is_null(i) || from.is_null(i) || len.is_null(i),
                |i, buf| {
                    let x = s.get(i);
                    let skip = (from.get(i).max(1) - 1) as usize;
                    let rest = &x[char_offset(x, skip)..];
                    buf.push_str(&rest[..char_offset(rest, len.get(i).max(0) as usize)]);
                    true
                },
            )
        }
        Contains | StartsWith | EndsWith if args.len() == 2 => {
            let (a, b) = (Strs::of(&args[0])?, Strs::of(&args[1])?);
            let dense = !a.has_nulls() && !b.has_nulls();
            match func {
                Contains => {
                    strict_zip!(n, a, b, dense, false, Column::new_bool, |x, y| x
                        .contains(y))
                }
                StartsWith => {
                    strict_zip!(n, a, b, dense, false, Column::new_bool, |x, y| x
                        .starts_with(y))
                }
                _ => strict_zip!(n, a, b, dense, false, Column::new_bool, |x, y| x
                    .ends_with(y)),
            }
        }
        Replace if args.len() == 3 => {
            let (s, from, to) = (
                Strs::of(&args[0])?,
                Strs::of(&args[1])?,
                Strs::of(&args[2])?,
            );
            text_rows(
                n,
                |i| s.is_null(i) || from.is_null(i) || to.is_null(i),
                |i, buf| {
                    // `str::replace`, appending to the column buffer.
                    let (x, to) = (s.get(i), to.get(i));
                    let mut last = 0;
                    for (start, part) in x.match_indices(from.get(i)) {
                        buf.push_str(&x[last..start]);
                        buf.push_str(to);
                        last = start + part.len();
                    }
                    buf.push_str(&x[last..]);
                    true
                },
            )
        }
        SplitPart if args.len() == 3 && ty(2) == Some(T::Int) => {
            let (s, delim, k) = (
                Strs::of(&args[0])?,
                Strs::of(&args[1])?,
                Ints::of(&args[2])?,
            );
            text_rows(
                n,
                |i| s.is_null(i) || delim.is_null(i) || k.is_null(i),
                |i, buf| {
                    let (delim, k) = (delim.get(i), k.get(i));
                    if delim.is_empty() || k < 1 {
                        return false;
                    }
                    match s.get(i).split(delim).nth((k - 1) as usize) {
                        Some(part) => {
                            buf.push_str(part);
                            true
                        }
                        None => false,
                    }
                },
            )
        }
        // CONCAT renders NULL as "" and never yields NULL; only all-text
        // operands have a kernel (other types render through `Value`).
        Concat => {
            let parts: Vec<Option<Strs>> = args
                .iter()
                .map(|a| match a {
                    CVal::Scalar(Value::Null) => Some(None),
                    a => Strs::of(a).map(Some),
                })
                .collect::<Option<_>>()?;
            text_rows(
                n,
                |_| false,
                |i, buf| {
                    for s in parts.iter().flatten() {
                        if !s.is_null(i) {
                            buf.push_str(s.get(i));
                        }
                    }
                    true
                },
            )
        }
        _ => return None,
    })
}
