//! The boxed-[`Value`] row-at-a-time interpreter and its scalar kernels.
//!
//! [`eval_interp`] walks the expression tree once **per row**, dispatching
//! on the [`Value`] enum at every node — exactly the evaluation model the
//! vectorized engine replaces. It stays here as the **semantic oracle**:
//! `tests/eval_oracle.rs` pins the typed columnar kernels bit-identical
//! to it (float bit patterns included), and `benches/expr_eval.rs`
//! measures the speedup against it.
//!
//! One subtlety keeps the two engines bit-comparable on extreme inputs:
//! the columnar engine materializes every sub-expression into a typed
//! column, which widens `Int -> Float` and `Date -> Timestamp` at the
//! node boundary where types unify (CASE branches, COALESCE/GREATEST/
//! LEAST). The interpreter simulates that materialization with
//! [`materialize_value`] at exactly those nodes, so e.g. a CASE branch
//! producing a large `i64` under a Float-unified output loses precision
//! identically on both paths.

use std::cmp::Ordering;

use sigma_value::{calendar, calendar::DateUnit, column::cast_value, Batch, Column, ColumnBuilder};
use sigma_value::{DataType, Value};

use super::{infer_type, like, BinOp, EvalCtx, PhysExpr, ScalarFunc, UnOp};
use crate::error::CdwError;

/// Evaluate an expression over a batch one row at a time, producing one
/// column. Semantics (output type, null handling, error isolation) match
/// the vectorized [`super::eval`] exactly.
pub fn eval_interp(expr: &PhysExpr, batch: &Batch, ctx: &EvalCtx) -> Result<Column, CdwError> {
    let rows = batch.num_rows();
    let input: Vec<DataType> = batch.schema().fields().iter().map(|f| f.dtype).collect();
    let out_type = infer_type(expr, &input)?.unwrap_or(DataType::Text);
    let mut b = ColumnBuilder::new(out_type, rows);
    for row in 0..rows {
        b.push(value_at(expr, batch, &input, row, ctx)?)
            .map_err(CdwError::from)?;
    }
    Ok(b.finish())
}

/// What a [`Value`] becomes when stored into a column of `dtype` — the
/// same widening [`ColumnBuilder::push`] applies (`Int -> Float`,
/// `Date -> Timestamp`), erroring on any other mismatch. Shared with the
/// compiler's scalar folding so both engines coerce identically.
pub(crate) fn materialize_value(v: Value, dtype: Option<DataType>) -> Result<Value, CdwError> {
    let Some(dtype) = dtype else {
        return Ok(v);
    };
    Ok(match (v, dtype) {
        (Value::Null, _) => Value::Null,
        (Value::Int(x), DataType::Float) => Value::Float(x as f64),
        (Value::Date(d), DataType::Timestamp) => {
            Value::Timestamp(d as i64 * calendar::MICROS_PER_DAY)
        }
        (v, dtype) => {
            if v.dtype() == Some(dtype) {
                v
            } else {
                return Err(CdwError::exec(format!(
                    "cannot store {} into a {dtype} column",
                    v.dtype().map_or("NULL".into(), |d| d.to_string())
                )));
            }
        }
    })
}

/// One row of one expression, fully recursive (per-cell dispatch).
fn value_at(
    expr: &PhysExpr,
    batch: &Batch,
    input: &[DataType],
    row: usize,
    ctx: &EvalCtx,
) -> Result<Value, CdwError> {
    Ok(match expr {
        PhysExpr::Literal(v) => v.clone(),
        PhysExpr::Col(i) => batch.column(*i).value(row),
        PhysExpr::Unary { op, expr } => {
            eval_unary_value(*op, value_at(expr, batch, input, row, ctx)?)?
        }
        PhysExpr::Binary { op, left, right } => {
            let l = value_at(left, batch, input, row, ctx)?;
            let r = value_at(right, batch, input, row, ctx)?;
            eval_binary_value(*op, l, r)?
        }
        PhysExpr::Func { func, args } => {
            let argv: Vec<Value> = args
                .iter()
                .map(|a| value_at(a, batch, input, row, ctx))
                .collect::<Result<_, _>>()?;
            let out = eval_func_value(*func, &argv, ctx)?;
            // Variadic unifying functions materialize through the unified
            // column type on the columnar path.
            if matches!(
                func,
                ScalarFunc::Coalesce | ScalarFunc::Greatest | ScalarFunc::Least
            ) {
                materialize_value(out, infer_type(expr, input)?)?
            } else {
                out
            }
        }
        PhysExpr::Case {
            operand,
            whens,
            else_,
        } => {
            let op_val = operand
                .as_ref()
                .map(|o| value_at(o, batch, input, row, ctx))
                .transpose()?;
            let mut result = Value::Null;
            let mut matched = false;
            for (w, t) in whens {
                let wv = value_at(w, batch, input, row, ctx)?;
                let hit = match &op_val {
                    Some(ov) => !ov.is_null() && !wv.is_null() && ov.sql_eq(&wv),
                    None => wv == Value::Bool(true),
                };
                if hit {
                    result = value_at(t, batch, input, row, ctx)?;
                    matched = true;
                    break;
                }
            }
            if !matched {
                if let Some(e) = else_ {
                    result = value_at(e, batch, input, row, ctx)?;
                }
            }
            // Branches materialize through the unified CASE output type.
            materialize_value(result, infer_type(expr, input)?)?
        }
        PhysExpr::Cast {
            expr,
            dtype,
            strict,
        } => {
            let v = value_at(expr, batch, input, row, ctx)?;
            match cast_value(v, *dtype) {
                Ok(v) => v,
                Err(e) if *strict => return Err(CdwError::from(e)),
                // TRY_CAST isolation: unparseable cells become NULL.
                Err(_) => Value::Null,
            }
        }
        PhysExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = value_at(expr, batch, input, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            let mut saw_null = false;
            for item in list {
                let lv = value_at(item, batch, input, row, ctx)?;
                if lv.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&lv) {
                    found = true;
                    break;
                }
            }
            if found {
                Value::Bool(!negated)
            } else if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            }
        }
        PhysExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = value_at(expr, batch, input, row, ctx)?;
            let l = value_at(low, batch, input, row, ctx)?;
            let h = value_at(high, batch, input, row, ctx)?;
            if v.is_null() || l.is_null() || h.is_null() {
                Value::Null
            } else {
                let inside =
                    v.total_cmp(&l) != Ordering::Less && v.total_cmp(&h) != Ordering::Greater;
                Value::Bool(inside != *negated)
            }
        }
        PhysExpr::IsNull { expr, negated } => {
            let v = value_at(expr, batch, input, row, ctx)?;
            Value::Bool(v.is_null() != *negated)
        }
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = value_at(expr, batch, input, row, ctx)?;
            let pv = value_at(pattern, batch, input, row, ctx)?;
            match (v.as_text(), pv.as_text()) {
                // The oracle matcher: per-row backtracking, no compilation.
                (Some(s), Some(pat)) => Value::Bool(like::like_match(s, pat) != *negated),
                _ => Value::Null,
            }
        }
    })
}

pub(crate) fn eval_unary_value(op: UnOp, v: Value) -> Result<Value, CdwError> {
    Ok(match op {
        UnOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            other => return Err(CdwError::exec(format!("cannot negate {}", other.render()))),
        },
        UnOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => {
                return Err(CdwError::exec(format!(
                    "NOT of non-boolean {}",
                    other.render()
                )))
            }
        },
    })
}

/// Scalar binary kernel with SQL null semantics (three-valued logic for
/// AND/OR; null-propagating otherwise).
pub fn eval_binary_value(op: BinOp, l: Value, r: Value) -> Result<Value, CdwError> {
    use BinOp::*;
    // AND/OR have non-strict null handling.
    match op {
        And => {
            return Ok(match (l.as_bool(), r.as_bool(), l.is_null(), r.is_null()) {
                (Some(false), _, _, _) | (_, Some(false), _, _) => Value::Bool(false),
                (Some(true), Some(true), _, _) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        Or => {
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub => {
            // Temporal arithmetic in days.
            match (&l, &r, op) {
                (Value::Date(d), Value::Int(n), Add) => return Ok(Value::Date(d + *n as i32)),
                (Value::Date(d), Value::Int(n), Sub) => return Ok(Value::Date(d - *n as i32)),
                (Value::Int(n), Value::Date(d), Add) => return Ok(Value::Date(d + *n as i32)),
                (Value::Timestamp(t), Value::Int(n), Add) => {
                    return Ok(Value::Timestamp(t + *n * calendar::MICROS_PER_DAY))
                }
                (Value::Timestamp(t), Value::Int(n), Sub) => {
                    return Ok(Value::Timestamp(t - *n * calendar::MICROS_PER_DAY))
                }
                (a, b, Sub)
                    if a.dtype().is_some_and(|d| d.is_temporal())
                        && b.dtype().is_some_and(|d| d.is_temporal()) =>
                {
                    let days = (a.as_micros().unwrap() - b.as_micros().unwrap())
                        / calendar::MICROS_PER_DAY;
                    return Ok(Value::Int(days));
                }
                _ => {}
            }
            numeric_arith(op, &l, &r)
        }
        Mul => numeric_arith(op, &l, &r),
        Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => {
                if b == 0.0 {
                    Ok(Value::Null) // cell-level error isolation
                } else {
                    Ok(Value::Float(a / b))
                }
            }
            _ => Err(type_err("/", &l, &r)),
        },
        Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => {
                    if b == 0.0 {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Float(a.rem_euclid(b)))
                    }
                }
                _ => Err(type_err("%", &l, &r)),
            },
        },
        Concat => Ok(Value::Text(format!("{}{}", l.render(), r.render()))),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if !comparable(&l, &r) {
                return Err(type_err(op.symbol(), &l, &r));
            }
            let ord = l.total_cmp(&r);
            let out = match op {
                Eq => ord == Ordering::Equal,
                NotEq => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        And | Or => unreachable!(),
    }
}

fn comparable(l: &Value, r: &Value) -> bool {
    match (l.dtype(), r.dtype()) {
        (Some(a), Some(b)) => a.unify(b).is_some(),
        _ => true,
    }
}

fn type_err(op: &str, l: &Value, r: &Value) -> CdwError {
    CdwError::exec(format!(
        "cannot apply {op} to {} and {}",
        l.dtype().map_or("NULL".into(), |d| d.to_string()),
        r.dtype().map_or("NULL".into(), |d| d.to_string())
    ))
}

fn numeric_arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, CdwError> {
    use BinOp::*;
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
            Add => a.wrapping_add(*b),
            Sub => a.wrapping_sub(*b),
            Mul => a.wrapping_mul(*b),
            _ => unreachable!(),
        })),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                _ => unreachable!(),
            })),
            _ => Err(type_err(op.symbol(), l, r)),
        },
    }
}

/// Functions that see NULL arguments; every other function is NULL as
/// soon as one argument is.
pub(crate) fn null_tolerant(func: ScalarFunc) -> bool {
    use ScalarFunc::*;
    matches!(
        func,
        Coalesce | Nullif | Concat | CurrentDate | CurrentTimestamp
    )
}

/// Scalar function kernel over one row of argument values.
pub fn eval_func_value(func: ScalarFunc, args: &[Value], ctx: &EvalCtx) -> Result<Value, CdwError> {
    use ScalarFunc::*;
    if !null_tolerant(func) && args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let num = |i: usize| args[i].as_f64().ok_or_else(|| arg_err(func, i, &args[i]));
    let int = |i: usize| args[i].as_i64().ok_or_else(|| arg_err(func, i, &args[i]));
    let text = |i: usize| {
        args[i]
            .as_text()
            .map(str::to_owned)
            .ok_or_else(|| arg_err(func, i, &args[i]))
    };
    let unit = |i: usize| -> Result<DateUnit, CdwError> {
        let s = args[i]
            .as_text()
            .ok_or_else(|| arg_err(func, i, &args[i]))?;
        DateUnit::parse(s).ok_or_else(|| CdwError::exec(format!("unknown date unit {s:?}")))
    };
    Ok(match func {
        Abs => match &args[0] {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            _ => Value::Float(num(0)?.abs()),
        },
        Round => {
            let digits = if args.len() > 1 { int(1)? } else { 0 };
            let factor = 10f64.powi(digits as i32);
            match &args[0] {
                Value::Int(i) if digits >= 0 => Value::Int(*i),
                _ => Value::Float((num(0)? * factor).round() / factor),
            }
        }
        Floor => Value::Int(num(0)?.floor() as i64),
        Ceil => Value::Int(num(0)?.ceil() as i64),
        Sqrt => {
            let x = num(0)?;
            if x < 0.0 {
                Value::Null
            } else {
                Value::Float(x.sqrt())
            }
        }
        Exp => Value::Float(num(0)?.exp()),
        Ln => {
            let x = num(0)?;
            if x <= 0.0 {
                Value::Null
            } else {
                Value::Float(x.ln())
            }
        }
        Log => {
            let x = num(0)?;
            let base = if args.len() > 1 { num(1)? } else { 10.0 };
            if x <= 0.0 || base <= 0.0 || base == 1.0 {
                Value::Null
            } else {
                Value::Float(x.log(base))
            }
        }
        Power => Value::Float(num(0)?.powf(num(1)?)),
        Mod => eval_binary_value(BinOp::Mod, args[0].clone(), args[1].clone())?,
        Sign => Value::Int(match num(0)? {
            x if x > 0.0 => 1,
            x if x < 0.0 => -1,
            _ => 0,
        }),
        Greatest => args
            .iter()
            .cloned()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
        Least => args
            .iter()
            .cloned()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
        Concat => {
            let mut s = String::new();
            for a in args {
                s.push_str(&a.render());
            }
            Value::Text(s)
        }
        Upper => Value::Text(text(0)?.to_uppercase()),
        Lower => Value::Text(text(0)?.to_lowercase()),
        Trim => Value::Text(text(0)?.trim().to_string()),
        LTrim => Value::Text(text(0)?.trim_start().to_string()),
        RTrim => Value::Text(text(0)?.trim_end().to_string()),
        Length => Value::Int(text(0)?.chars().count() as i64),
        Left => {
            let s = text(0)?;
            let n = int(1)?.max(0) as usize;
            Value::Text(s.chars().take(n).collect())
        }
        Right => {
            let s = text(0)?;
            let n = int(1)?.max(0) as usize;
            let len = s.chars().count();
            Value::Text(s.chars().skip(len.saturating_sub(n)).collect())
        }
        Substring => {
            let s = text(0)?;
            let start = int(1)?;
            let len = int(2)?.max(0) as usize;
            let skip = (start.max(1) - 1) as usize;
            Value::Text(s.chars().skip(skip).take(len).collect())
        }
        Contains => Value::Bool(text(0)?.contains(&text(1)?)),
        StartsWith => Value::Bool(text(0)?.starts_with(&text(1)?)),
        EndsWith => Value::Bool(text(0)?.ends_with(&text(1)?)),
        Replace => Value::Text(text(0)?.replace(&text(1)?, &text(2)?)),
        SplitPart => {
            let s = text(0)?;
            let delim = text(1)?;
            let n = int(2)?;
            if delim.is_empty() || n < 1 {
                Value::Null
            } else {
                s.split(&delim)
                    .nth((n - 1) as usize)
                    .map(|p| Value::Text(p.to_string()))
                    .unwrap_or(Value::Null)
            }
        }
        Lpad | Rpad => {
            let s = text(0)?;
            let target = int(1)?.max(0) as usize;
            let pad = if args.len() > 2 {
                text(2)?
            } else {
                " ".to_string()
            };
            let len = s.chars().count();
            if len >= target || pad.is_empty() {
                Value::Text(s.chars().take(target).collect())
            } else {
                let fill: String = pad.chars().cycle().take(target - len).collect();
                if func == Lpad {
                    Value::Text(format!("{fill}{s}"))
                } else {
                    Value::Text(format!("{s}{fill}"))
                }
            }
        }
        Repeat => {
            let s = text(0)?;
            let n = int(1)?.clamp(0, 10_000) as usize;
            Value::Text(s.repeat(n))
        }
        Coalesce => args
            .iter()
            .find(|a| !a.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        Nullif => {
            if !args[0].is_null() && !args[1].is_null() && args[0].sql_eq(&args[1]) {
                Value::Null
            } else {
                args[0].clone()
            }
        }
        DateTrunc => {
            let u = unit(0)?;
            match &args[1] {
                Value::Date(d) => Value::Date(calendar::trunc_date(*d, u)),
                Value::Timestamp(t) => Value::Timestamp(calendar::trunc_timestamp(*t, u)),
                other => return Err(arg_err(func, 1, other)),
            }
        }
        DatePart => {
            let u = unit(0)?;
            match &args[1] {
                Value::Date(d) => Value::Int(calendar::date_part(*d, u)),
                Value::Timestamp(t) => Value::Int(calendar::timestamp_part(*t, u)),
                other => return Err(arg_err(func, 1, other)),
            }
        }
        DateAdd => {
            let u = unit(0)?;
            let n = int(1)?;
            match &args[2] {
                Value::Date(d) => Value::Date(calendar::date_add(*d, u, n)),
                Value::Timestamp(t) => Value::Timestamp(calendar::timestamp_add(*t, u, n)),
                other => return Err(arg_err(func, 2, other)),
            }
        }
        DateDiff => {
            let u = unit(0)?;
            match (&args[1], &args[2]) {
                (Value::Date(a), Value::Date(b)) => Value::Int(calendar::date_diff(*a, *b, u)),
                (a, b) => {
                    let (am, bm) = (a.as_micros(), b.as_micros());
                    match (am, bm) {
                        (Some(am), Some(bm)) => Value::Int(calendar::timestamp_diff(am, bm, u)),
                        _ => return Err(arg_err(func, 1, a)),
                    }
                }
            }
        }
        MakeDate => {
            let (y, m, d) = (int(0)? as i32, int(1)?, int(2)?);
            if !(1..=12).contains(&m) {
                Value::Null
            } else {
                let m = m as u32;
                if d < 1 || d as u32 > calendar::last_day_of_month(y, m) {
                    Value::Null
                } else {
                    Value::Date(calendar::days_from_civil(y, m, d as u32))
                }
            }
        }
        CurrentDate => Value::Date((ctx.now_micros / calendar::MICROS_PER_DAY) as i32),
        CurrentTimestamp => Value::Timestamp(ctx.now_micros),
    })
}

fn arg_err(func: ScalarFunc, i: usize, v: &Value) -> CdwError {
    CdwError::exec(format!(
        "{func:?}: argument {i} has unexpected type {}",
        v.dtype().map_or("NULL".into(), |d| d.to_string())
    ))
}
