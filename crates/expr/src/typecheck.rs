//! Type inference for formulas.
//!
//! Types are `Option<DataType>`: `None` is the type of a bare `Null`
//! literal, which unifies with anything (spreadsheets are forgiving about
//! nulls; so are the warehouses Sigma targets).

use std::fmt;

use sigma_value::{DataType, ReturnType, Value};

use crate::ast::{BinaryOp, ColumnRef, Formula, UnaryOp};
use crate::functions::{registry, Arg, Signature};

/// Resolves column/control references to their types.
pub trait TypeEnv {
    /// Type of a reference, or `None` when the name is unknown.
    fn ref_type(&self, r: &ColumnRef) -> Option<DataType>;
}

/// A `TypeEnv` over a closure, convenient for tests and small callers.
impl<F> TypeEnv for F
where
    F: Fn(&ColumnRef) -> Option<DataType>,
{
    fn ref_type(&self, r: &ColumnRef) -> Option<DataType> {
        self(r)
    }
}

/// A type error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TypeError {}

fn err(msg: impl Into<String>) -> TypeError {
    TypeError(msg.into())
}

type Ty = Option<DataType>;

fn expect_numeric(t: Ty, ctx: &str) -> Result<(), TypeError> {
    match t {
        None => Ok(()),
        Some(d) if d.is_numeric() => Ok(()),
        Some(d) => Err(err(format!("{ctx} expects a number, found {d}"))),
    }
}

fn expect_text(t: Ty, ctx: &str) -> Result<(), TypeError> {
    match t {
        None | Some(DataType::Text) => Ok(()),
        Some(d) => Err(err(format!("{ctx} expects text, found {d}"))),
    }
}

fn expect_bool(t: Ty, ctx: &str) -> Result<(), TypeError> {
    match t {
        None | Some(DataType::Bool) => Ok(()),
        Some(d) => Err(err(format!("{ctx} expects a condition, found {d}"))),
    }
}

fn expect_temporal(t: Ty, ctx: &str) -> Result<(), TypeError> {
    match t {
        None => Ok(()),
        Some(d) if d.is_temporal() => Ok(()),
        Some(d) => Err(err(format!("{ctx} expects a date or timestamp, found {d}"))),
    }
}

/// Unify two optional types, or fail with context.
fn unify(a: Ty, b: Ty, ctx: &str) -> Result<Ty, TypeError> {
    match (a, b) {
        (None, t) | (t, None) => Ok(t),
        (Some(x), Some(y)) => x
            .unify(y)
            .map(Some)
            .ok_or_else(|| err(format!("{ctx}: incompatible types {x} and {y}"))),
    }
}

/// Infer the result type of a formula under the environment.
pub fn infer_type(formula: &Formula, env: &dyn TypeEnv) -> Result<Ty, TypeError> {
    match formula {
        Formula::Literal(v) => Ok(match v {
            Value::Null => None,
            other => other.dtype(),
        }),
        Formula::Ref(r) => env
            .ref_type(r)
            .map(Some)
            .ok_or_else(|| err(format!("unknown column {r:?}", r = display_ref(r)))),
        Formula::Unary { op, expr } => {
            let t = infer_type(expr, env)?;
            match op {
                UnaryOp::Neg => {
                    expect_numeric(t, "unary '-'")?;
                    Ok(t.or(Some(DataType::Float)))
                }
                UnaryOp::Not => {
                    expect_bool(t, "'not'")?;
                    Ok(Some(DataType::Bool))
                }
            }
        }
        Formula::Binary { op, left, right } => {
            let lt = infer_type(left, env)?;
            let rt = infer_type(right, env)?;
            infer_binary(*op, lt, rt)
        }
        Formula::Call { func, args } => {
            let def = registry(func).ok_or_else(|| err(format!("unknown function {func}")))?;
            let tys: Vec<Ty> = args
                .iter()
                .map(|a| infer_type(a, env))
                .collect::<Result<_, _>>()?;
            match &def.sig {
                Some(sig) => infer_signed(def.name, sig, &tys, args),
                None => infer_call(def.name, &tys),
            }
        }
    }
}

fn display_ref(r: &ColumnRef) -> String {
    match &r.element {
        Some(el) => format!("[{el}/{}]", r.name),
        None => format!("[{}]", r.name),
    }
}

fn infer_binary(op: BinaryOp, lt: Ty, rt: Ty) -> Result<Ty, TypeError> {
    use BinaryOp::*;
    match op {
        Add | Sub => {
            // Date arithmetic: date +/- int, date - date.
            match (lt, rt) {
                (Some(d), Some(DataType::Int)) if d.is_temporal() => return Ok(Some(d)),
                (Some(DataType::Int), Some(d)) if d.is_temporal() && op == Add => {
                    return Ok(Some(d))
                }
                (Some(a), Some(b)) if a.is_temporal() && b.is_temporal() && op == Sub => {
                    return Ok(Some(DataType::Int))
                }
                _ => {}
            }
            expect_numeric(lt, op.symbol())?;
            expect_numeric(rt, op.symbol())?;
            match (lt, rt) {
                (Some(DataType::Int), Some(DataType::Int)) => Ok(Some(DataType::Int)),
                _ => Ok(Some(DataType::Float)),
            }
        }
        Mul | Mod => {
            expect_numeric(lt, op.symbol())?;
            expect_numeric(rt, op.symbol())?;
            match (lt, rt) {
                (Some(DataType::Int), Some(DataType::Int)) => Ok(Some(DataType::Int)),
                _ => Ok(Some(DataType::Float)),
            }
        }
        Div | Pow => {
            expect_numeric(lt, op.symbol())?;
            expect_numeric(rt, op.symbol())?;
            Ok(Some(DataType::Float))
        }
        Concat => Ok(Some(DataType::Text)),
        Eq | Ne | Lt | Le | Gt | Ge => {
            unify(lt, rt, "comparison")?;
            Ok(Some(DataType::Bool))
        }
        And | Or => {
            expect_bool(lt, op.symbol())?;
            expect_bool(rt, op.symbol())?;
            Ok(Some(DataType::Bool))
        }
    }
}

/// A scalar whose row carries its type rule.
fn infer_signed(
    name: &str,
    sig: &Signature,
    tys: &[Ty],
    args: &[Formula],
) -> Result<Ty, TypeError> {
    for (i, (&t, a)) in tys.iter().zip(args).enumerate() {
        match sig.arg(i) {
            Arg::Any => Ok(()),
            Arg::Num => expect_numeric(t, name),
            Arg::Text => expect_text(t, name),
            Arg::Temporal => expect_temporal(t, name),
            Arg::Unit => expect_unit_literal(a, name),
        }?;
    }
    if let (ReturnType::First, [first, rest @ ..]) = (sig.ret, tys) {
        // SQL NULLIF: the arguments must compare.
        for &t in rest {
            unify(*first, t, name)?;
        }
    }
    sig.ret
        .resolve(tys)
        .map_err(|(x, y)| err(format!("{name}: incompatible types {x} and {y}")))
}

/// The functions whose type rule is not one row.
fn infer_call(name: &str, tys: &[Ty]) -> Result<Ty, TypeError> {
    match name {
        "If" => {
            // If(c1, v1, [c2, v2, ...], [else]): conditions at even slots.
            let mut result = None;
            let mut i = 0;
            while i + 1 < tys.len() {
                expect_bool(tys[i], "If condition")?;
                result = unify(result, tys[i + 1], "If branches")?;
                i += 2;
            }
            if i < tys.len() {
                result = unify(result, tys[i], "If branches")?;
            }
            Ok(result)
        }
        "Switch" => {
            // Switch(expr, case, value, ..., [default]).
            let subject = tys[0];
            let mut result = None;
            let mut i = 1;
            while i + 1 < tys.len() {
                unify(subject, tys[i], "Switch case")?;
                result = unify(result, tys[i + 1], "Switch values")?;
                i += 2;
            }
            if i < tys.len() {
                result = unify(result, tys[i], "Switch values")?;
            }
            Ok(result)
        }
        "OneOf" => {
            for &t in &tys[1..] {
                unify(tys[0], t, name)?;
            }
            Ok(Some(DataType::Bool))
        }
        "Between" => {
            unify(unify(tys[0], tys[1], name)?, tys[2], name)?;
            Ok(Some(DataType::Bool))
        }
        // aggregates
        "Sum" | "Avg" | "Median" | "StdDev" | "Variance" => {
            expect_numeric(tys[0], name)?;
            match (name, tys[0]) {
                ("Sum", Some(DataType::Int)) => Ok(Some(DataType::Int)),
                _ => Ok(Some(DataType::Float)),
            }
        }
        "Percentile" => {
            expect_numeric(tys[0], name)?;
            expect_numeric(tys[1], name)?;
            Ok(Some(DataType::Float))
        }
        "Min" | "Max" | "ATTR" => Ok(tys[0]),
        "Count" | "CountDistinct" | "CountIf" => {
            if name == "CountIf" {
                expect_bool(tys[0], name)?;
            }
            Ok(Some(DataType::Int))
        }
        "SumIf" | "AvgIf" | "MinIf" | "MaxIf" => {
            expect_bool(tys[0], name)?;
            match name {
                "SumIf" => {
                    expect_numeric(tys[1], name)?;
                    match tys[1] {
                        Some(DataType::Int) => Ok(Some(DataType::Int)),
                        _ => Ok(Some(DataType::Float)),
                    }
                }
                "AvgIf" => {
                    expect_numeric(tys[1], name)?;
                    Ok(Some(DataType::Float))
                }
                _ => Ok(tys[1]),
            }
        }
        // window
        "RowNumber" | "Rank" | "DenseRank" | "RunningCount" => Ok(Some(DataType::Int)),
        "Ntile" => {
            expect_numeric(tys[0], name)?;
            Ok(Some(DataType::Int))
        }
        "Lag" | "Lead" => {
            if tys.len() > 1 {
                expect_numeric(tys[1], name)?;
            }
            let mut t = tys[0];
            if tys.len() > 2 {
                t = unify(t, tys[2], name)?;
            }
            Ok(t)
        }
        "First" | "Last" | "FillDown" | "FillUp" => Ok(tys[0]),
        "Nth" => {
            expect_numeric(tys[1], name)?;
            Ok(tys[0])
        }
        "RunningSum" | "RunningAvg" | "MovingAvg" | "MovingSum" => {
            expect_numeric(tys[0], name)?;
            for &t in &tys[1..] {
                expect_numeric(t, name)?;
            }
            match (name, tys[0]) {
                ("RunningSum" | "MovingSum", Some(DataType::Int)) => Ok(Some(DataType::Int)),
                _ => Ok(Some(DataType::Float)),
            }
        }
        "RunningMin" | "RunningMax" => Ok(tys[0]),
        "MovingMin" | "MovingMax" => {
            for &t in &tys[1..] {
                expect_numeric(t, name)?;
            }
            Ok(tys[0])
        }
        // special: Lookup(expr, localKey, targetKey, ...) pairs after arg 0.
        "Lookup" | "Rollup" => {
            if !(tys.len() - 1).is_multiple_of(2) {
                return Err(err(format!(
                    "{name} expects key pairs after the first argument"
                )));
            }
            let mut i = 1;
            while i < tys.len() {
                unify(tys[i], tys[i + 1], &format!("{name} join key"))?;
                i += 2;
            }
            Ok(tys[0])
        }
        other => {
            debug_assert!(false, "registry function {other} missing a type rule");
            Err(err(format!("no type rule for {other}")))
        }
    }
}

/// Date unit arguments must be string literals naming a valid unit, so the
/// compiler can resolve them statically.
fn expect_unit_literal(arg: &Formula, ctx: &str) -> Result<(), TypeError> {
    match arg {
        Formula::Literal(Value::Text(s)) => {
            if sigma_value::calendar::DateUnit::parse(s).is_some() {
                Ok(())
            } else {
                Err(err(format!("{ctx}: unknown date unit {s:?}")))
            }
        }
        _ => Err(err(format!(
            "{ctx}: the unit must be a string literal like \"quarter\""
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn env(r: &ColumnRef) -> Option<DataType> {
        match r.name.as_str() {
            "Revenue" | "Dep Delay" => Some(DataType::Float),
            "Flights" | "Seats" => Some(DataType::Int),
            "Carrier" | "Origin" => Some(DataType::Text),
            "Flight Date" => Some(DataType::Date),
            "Cancelled" => Some(DataType::Bool),
            _ => None,
        }
    }

    fn t(src: &str) -> Result<Ty, TypeError> {
        infer_type(&parse_formula(src).unwrap(), &env)
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(t("Flights + Seats").unwrap(), Some(DataType::Int));
        assert_eq!(t("Flights + Revenue").unwrap(), Some(DataType::Float));
        assert_eq!(t("Flights / Seats").unwrap(), Some(DataType::Float));
        assert!(t("Carrier + 1").is_err());
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(t("[Flight Date] + 1").unwrap(), Some(DataType::Date));
        assert_eq!(
            t("[Flight Date] - [Flight Date]").unwrap(),
            Some(DataType::Int)
        );
        assert!(t("[Flight Date] * 2").is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(t("Revenue > 100").unwrap(), Some(DataType::Bool));
        assert_eq!(
            t("Cancelled and Revenue > 0").unwrap(),
            Some(DataType::Bool)
        );
        assert!(t("Revenue and Cancelled").is_err());
        assert!(t("Carrier > 5").is_err());
        assert_eq!(t("Carrier = \"AA\"").unwrap(), Some(DataType::Bool));
    }

    #[test]
    fn if_branches_unify() {
        assert_eq!(t("If(Cancelled, 1, 0)").unwrap(), Some(DataType::Int));
        assert_eq!(t("If(Cancelled, 1, 0.5)").unwrap(), Some(DataType::Float));
        assert_eq!(t("If(Cancelled, Null, 3)").unwrap(), Some(DataType::Int));
        assert!(t("If(Cancelled, 1, \"x\")").is_err());
        assert!(t("If(Revenue, 1, 2)").is_err());
        // Multi-branch.
        assert_eq!(
            t("If(Revenue > 10, \"hi\", Revenue > 5, \"mid\", \"lo\")").unwrap(),
            Some(DataType::Text)
        );
    }

    #[test]
    fn scalar_rows() {
        assert_eq!(t("Round(Flights, -1)").unwrap(), Some(DataType::Int));
        assert_eq!(t("Round(Revenue)").unwrap(), Some(DataType::Float));
        assert_eq!(t("Mod(Flights, Seats)").unwrap(), Some(DataType::Int));
        assert_eq!(
            t("Greatest(Flights, Revenue)").unwrap(),
            Some(DataType::Float)
        );
        assert!(t("Lpad(Carrier, \"x\")").is_err());
        // NULLIF keeps its first argument's type once the two compare.
        assert_eq!(t("Nullif(Flights, Revenue)").unwrap(), Some(DataType::Int));
        assert_eq!(t("Nullif(Null, Flights)").unwrap(), None);
        assert!(t("Nullif(Flights, Carrier)").is_err());
        assert_eq!(
            t("IfNull(Flights, Revenue)").unwrap(),
            Some(DataType::Float)
        );
    }

    #[test]
    fn aggregates() {
        assert_eq!(t("Sum(Flights)").unwrap(), Some(DataType::Int));
        assert_eq!(t("Sum(Revenue)").unwrap(), Some(DataType::Float));
        assert_eq!(t("Avg(Flights)").unwrap(), Some(DataType::Float));
        assert_eq!(t("Count()").unwrap(), Some(DataType::Int));
        assert_eq!(t("CountDistinct(Carrier)").unwrap(), Some(DataType::Int));
        assert_eq!(t("Min([Flight Date])").unwrap(), Some(DataType::Date));
        assert!(t("Sum(Carrier)").is_err());
        assert_eq!(t("SumIf(Cancelled, Flights)").unwrap(), Some(DataType::Int));
    }

    #[test]
    fn window_types() {
        assert_eq!(t("Lag([Flight Date], 1)").unwrap(), Some(DataType::Date));
        assert_eq!(t("FillDown(Carrier)").unwrap(), Some(DataType::Text));
        assert_eq!(t("RowNumber()").unwrap(), Some(DataType::Int));
        assert_eq!(t("MovingAvg(Revenue, 3)").unwrap(), Some(DataType::Float));
        assert!(t("MovingAvg(Carrier, 3)").is_err());
    }

    #[test]
    fn date_units_must_be_literal() {
        assert_eq!(
            t("DateTrunc(\"quarter\", [Flight Date])").unwrap(),
            Some(DataType::Date)
        );
        assert!(t("DateTrunc(Carrier, [Flight Date])").is_err());
        assert!(t("DateTrunc(\"fortnight\", [Flight Date])").is_err());
    }

    #[test]
    fn unknown_column_is_error() {
        assert!(t("[No Such Column] + 1").is_err());
    }

    #[test]
    fn lookup_pairs_checked() {
        let env2 = |r: &ColumnRef| match (r.element.as_deref(), r.name.as_str()) {
            (Some("Airports"), "Code") => Some(DataType::Text),
            (Some("Airports"), "Name") => Some(DataType::Text),
            (None, "Origin") => Some(DataType::Text),
            _ => None,
        };
        let f = parse_formula("Lookup([Airports/Name], Origin, [Airports/Code])").unwrap();
        assert_eq!(infer_type(&f, &env2).unwrap(), Some(DataType::Text));
        // Odd number of key args.
        let g = parse_formula("Lookup([Airports/Name], Origin, [Airports/Code], Origin)").unwrap();
        assert!(infer_type(&g, &env2).is_err());
    }
}
