//! Formula → SQL expression lowering.
//!
//! Lowering is parameterized by a [`Site`]: the stage CTE being built
//! decides how column references resolve (inline, from the finer input,
//! from a prior-phase CTE, or from a joined coarser level) and what the
//! window partition/ordering is. A scalar that is one SQL call lowers
//! through its `sigma_expr::FUNCTIONS` row; the mapping below covers the
//! rest of the spreadsheet-language → SQL dictionary.

use sigma_expr::functions::{Arg, Sql};
use sigma_expr::{BinaryOp, ColumnRef, Formula, FunctionDef, FunctionKind, UnaryOp};
use sigma_sql::{FrameBound, SqlBinaryOp, SqlExpr, SqlUnaryOp, WindowFrame, WindowSpec};
use sigma_value::{DataType, Value};

use super::context::{ColumnInfo, TableCtx};
use crate::error::CoreError;
use crate::table::FilterPredicate;

/// Resolution context for one lowering position.
pub(crate) trait Site {
    fn ctx(&self) -> &TableCtx<'_>;
    /// Lower a reference to a local column.
    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError>;
    /// Lower an aggregate call's argument (evaluated over the finer rows).
    fn agg_arg(&self, arg: &Formula) -> Result<SqlExpr, CoreError> {
        let _ = arg;
        Err(CoreError::Compile(
            "aggregates are not allowed in this position".into(),
        ))
    }
    fn allow_aggregate(&self) -> bool {
        false
    }
    fn allow_window(&self) -> bool {
        false
    }
    /// Partition/ordering for window calls at this site.
    fn window_spec(&self) -> Result<WindowSpec, CoreError> {
        Err(CoreError::Compile(
            "window functions are not allowed in this position".into(),
        ))
    }
    /// Pre-computed SQL for a whole aggregate call (phase>0 level sites
    /// compute aggregates in a "fresh" subquery and reference them here).
    fn aggregate_slot(&self, call: &Formula) -> Option<SqlExpr> {
        let _ = call;
        None
    }
    /// Resolve a qualified `[Element/Column]` reference (lookup target
    /// sites only).
    fn qualified_ref(&self, r: &ColumnRef) -> Result<SqlExpr, CoreError> {
        Err(CoreError::Compile(format!(
            "[{}/{}] is only valid inside Lookup/Rollup",
            r.element.as_deref().unwrap_or(""),
            r.name
        )))
    }
}

/// Lower a formula at a site.
pub(crate) fn lower(f: &Formula, site: &dyn Site) -> Result<SqlExpr, CoreError> {
    match f {
        Formula::Literal(v) => Ok(SqlExpr::Literal(v.clone())),
        Formula::Ref(r) => lower_ref(r, site),
        Formula::Unary { op, expr } => {
            let inner = lower(expr, site)?;
            Ok(match op {
                UnaryOp::Neg => SqlExpr::Unary {
                    op: SqlUnaryOp::Neg,
                    expr: Box::new(inner),
                },
                UnaryOp::Not => SqlExpr::Unary {
                    op: SqlUnaryOp::Not,
                    expr: Box::new(inner),
                },
            })
        }
        Formula::Binary { op, left, right } => {
            let l = lower(left, site)?;
            let r = lower(right, site)?;
            Ok(match op {
                // Spreadsheet `&` concatenation treats NULL as empty text,
                // so it maps to CONCAT (null-tolerant) rather than `||`.
                BinaryOp::Concat => SqlExpr::func("CONCAT", vec![l, r]),
                BinaryOp::Pow => SqlExpr::func("POWER", vec![l, r]),
                BinaryOp::Mod => SqlExpr::func("MOD", vec![l, r]),
                other => SqlExpr::binary(map_binop(*other), l, r),
            })
        }
        Formula::Call { func, args } => {
            if let Some(slot) = site.aggregate_slot(f) {
                return Ok(slot);
            }
            lower_call(func, args, site)
        }
    }
}

fn map_binop(op: BinaryOp) -> SqlBinaryOp {
    match op {
        BinaryOp::Add => SqlBinaryOp::Add,
        BinaryOp::Sub => SqlBinaryOp::Sub,
        BinaryOp::Mul => SqlBinaryOp::Mul,
        BinaryOp::Div => SqlBinaryOp::Div,
        BinaryOp::Eq => SqlBinaryOp::Eq,
        BinaryOp::Ne => SqlBinaryOp::NotEq,
        BinaryOp::Lt => SqlBinaryOp::Lt,
        BinaryOp::Le => SqlBinaryOp::LtEq,
        BinaryOp::Gt => SqlBinaryOp::Gt,
        BinaryOp::Ge => SqlBinaryOp::GtEq,
        BinaryOp::And => SqlBinaryOp::And,
        BinaryOp::Or => SqlBinaryOp::Or,
        BinaryOp::Concat | BinaryOp::Pow | BinaryOp::Mod => unreachable!("handled above"),
    }
}

fn lower_ref(r: &ColumnRef, site: &dyn Site) -> Result<SqlExpr, CoreError> {
    if r.element.is_some() {
        return site.qualified_ref(r);
    }
    // Columns shadow controls, which shadow nothing else.
    if let Some(col) = site.ctx().column(&r.name) {
        let col = col.clone();
        return site.column_ref(&col);
    }
    if let Some(control) = site.ctx().compiler.workbook.control(&r.name) {
        // Control binding: inline the current value as a literal.
        return Ok(SqlExpr::Literal(control.value.clone()));
    }
    Err(CoreError::Unresolved(format!(
        "column or control [{}]",
        r.name
    )))
}

fn lower_call(func: &str, args: &[Formula], site: &dyn Site) -> Result<SqlExpr, CoreError> {
    let def = sigma_expr::registry(func)
        .ok_or_else(|| CoreError::Unresolved(format!("function {func}")))?;
    match def.kind {
        FunctionKind::Scalar => lower_scalar(def, args, site),
        FunctionKind::Aggregate => {
            if !site.allow_aggregate() {
                return Err(CoreError::Compile(format!(
                    "{func} aggregates but this column resides at a level without a finer level to aggregate"
                )));
            }
            lower_aggregate(def.name, args, site)
        }
        FunctionKind::Window => {
            if !site.allow_window() {
                return Err(CoreError::Compile(format!(
                    "{func} is a window function and is not allowed here"
                )));
            }
            lower_window(def.name, args, site)
        }
        FunctionKind::Special => Err(CoreError::Compile(
            "internal: Lookup/Rollup should have been extracted".into(),
        )),
    }
}

fn unit_arg(arg: &Formula) -> Result<SqlExpr, CoreError> {
    match arg {
        Formula::Literal(Value::Text(s)) => Ok(SqlExpr::lit(s.to_ascii_lowercase())),
        _ => Err(CoreError::Compile(
            "date units must be string literals like \"quarter\"".into(),
        )),
    }
}

fn lower_scalar(
    def: &FunctionDef,
    args: &[Formula],
    site: &dyn Site,
) -> Result<SqlExpr, CoreError> {
    let a = |i: usize| lower(&args[i], site);
    if let (Some(sql), Some(sig)) = (def.sql, def.sig) {
        let mut out = Vec::with_capacity(args.len() + 1);
        if let Sql::Part(unit) = sql {
            out.push(SqlExpr::lit(unit));
        }
        for (i, arg) in args.iter().enumerate() {
            out.push(match sig.arg(i) {
                Arg::Unit => unit_arg(arg)?,
                _ => lower(arg, site)?,
            });
        }
        return Ok(SqlExpr::func(sql.name(), out));
    }
    Ok(match def.name {
        "If" => {
            // If(c1, v1, [c2, v2, ...], [else]) -> searched CASE.
            let mut whens = Vec::new();
            let mut i = 0;
            while i + 1 < args.len() {
                whens.push((a(i)?, a(i + 1)?));
                i += 2;
            }
            let else_ = if i < args.len() {
                Some(Box::new(a(i)?))
            } else {
                None
            };
            SqlExpr::Case {
                operand: None,
                whens,
                else_,
            }
        }
        "Switch" => {
            let operand = Some(Box::new(a(0)?));
            let mut whens = Vec::new();
            let mut i = 1;
            while i + 1 < args.len() {
                whens.push((a(i)?, a(i + 1)?));
                i += 2;
            }
            let else_ = if i < args.len() {
                Some(Box::new(a(i)?))
            } else {
                None
            };
            SqlExpr::Case {
                operand,
                whens,
                else_,
            }
        }
        "IsNull" | "IsNotNull" => SqlExpr::IsNull {
            expr: Box::new(a(0)?),
            negated: def.name == "IsNotNull",
        },
        "OneOf" => SqlExpr::InList {
            expr: Box::new(a(0)?),
            list: args[1..]
                .iter()
                .map(|x| lower(x, site))
                .collect::<Result<_, _>>()?,
            negated: false,
        },
        "Between" => SqlExpr::Between {
            expr: Box::new(a(0)?),
            low: Box::new(a(1)?),
            high: Box::new(a(2)?),
            negated: false,
        },
        "Number" | "Text" | "Date" | "DateTime" => SqlExpr::Cast {
            expr: Box::new(a(0)?),
            dtype: match def.name {
                "Number" => DataType::Float,
                "Text" => DataType::Text,
                "Date" => DataType::Date,
                _ => DataType::Timestamp,
            },
        },
        "Weekday" => {
            // 1 = Sunday ... 7 = Saturday. 1970-01-04 was a Sunday.
            let diff = SqlExpr::func(
                "DATEDIFF",
                vec![
                    SqlExpr::lit("day"),
                    SqlExpr::Literal(Value::Date(sigma_value::calendar::days_from_civil(
                        1970, 1, 4,
                    ))),
                    a(0)?,
                ],
            );
            SqlExpr::binary(
                SqlBinaryOp::Add,
                SqlExpr::func("MOD", vec![diff, SqlExpr::lit(7i64)]),
                SqlExpr::lit(1i64),
            )
        }
        other => {
            return Err(CoreError::Compile(format!(
                "no SQL lowering for scalar function {other}"
            )))
        }
    })
}

fn lower_aggregate(name: &str, args: &[Formula], site: &dyn Site) -> Result<SqlExpr, CoreError> {
    let arg = |i: usize| site.agg_arg(&args[i]);
    // <Agg>If(cond, x) -> AGG(CASE WHEN cond THEN x END).
    let guarded = |cond: SqlExpr, then: SqlExpr| SqlExpr::Case {
        operand: None,
        whens: vec![(cond, then)],
        else_: None,
    };
    Ok(match name {
        "Sum" => SqlExpr::func("SUM", vec![arg(0)?]),
        "Avg" => SqlExpr::func("AVG", vec![arg(0)?]),
        "Min" => SqlExpr::func("MIN", vec![arg(0)?]),
        "Max" => SqlExpr::func("MAX", vec![arg(0)?]),
        "Count" => {
            if args.is_empty() {
                SqlExpr::func("COUNT", vec![SqlExpr::Star])
            } else {
                SqlExpr::func("COUNT", vec![arg(0)?])
            }
        }
        "CountDistinct" => SqlExpr::Func {
            name: "COUNT".into(),
            args: vec![arg(0)?],
            distinct: true,
        },
        "CountIf" => SqlExpr::func("COUNT", vec![guarded(arg(0)?, SqlExpr::lit(1i64))]),
        "SumIf" => SqlExpr::func("SUM", vec![guarded(arg(0)?, arg(1)?)]),
        "AvgIf" => SqlExpr::func("AVG", vec![guarded(arg(0)?, arg(1)?)]),
        "MinIf" => SqlExpr::func("MIN", vec![guarded(arg(0)?, arg(1)?)]),
        "MaxIf" => SqlExpr::func("MAX", vec![guarded(arg(0)?, arg(1)?)]),
        "Median" => SqlExpr::func("MEDIAN", vec![arg(0)?]),
        "StdDev" => SqlExpr::func("STDDEV", vec![arg(0)?]),
        "Variance" => SqlExpr::func("VARIANCE", vec![arg(0)?]),
        "Percentile" => {
            let frac = match &args[1] {
                Formula::Literal(v) if v.as_f64().is_some() => SqlExpr::Literal(v.clone()),
                _ => {
                    return Err(CoreError::Compile(
                        "Percentile's fraction must be a numeric literal".into(),
                    ))
                }
            };
            SqlExpr::func("PERCENTILE_CONT", vec![arg(0)?, frac])
        }
        "ATTR" => SqlExpr::func("ATTR", vec![arg(0)?]),
        other => {
            return Err(CoreError::Compile(format!(
                "no SQL lowering for aggregate {other}"
            )))
        }
    })
}

fn lower_window(name: &str, args: &[Formula], site: &dyn Site) -> Result<SqlExpr, CoreError> {
    let base_spec = site.window_spec()?;
    let needs_order = !matches!(name, "First" | "Last" | "Nth");
    if needs_order && base_spec.order_by.is_empty() {
        return Err(CoreError::Compile(format!(
            "{name} needs the level to have an ordering annotation"
        )));
    }
    let a = |i: usize| lower(&args[i], site);
    let running = WindowFrame {
        start: FrameBound::UnboundedPreceding,
        end: FrameBound::CurrentRow,
    };
    let whole = WindowFrame {
        start: FrameBound::UnboundedPreceding,
        end: FrameBound::UnboundedFollowing,
    };
    let frame_lit = |f: &Formula, what: &str| -> Result<u64, CoreError> {
        match f {
            Formula::Literal(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
            _ => Err(CoreError::Compile(format!(
                "{what} must be a non-negative integer literal"
            ))),
        }
    };
    let win = |name: &str,
               args: Vec<SqlExpr>,
               ignore_nulls: bool,
               frame: Option<WindowFrame>|
     -> SqlExpr {
        SqlExpr::WindowFunc {
            name: name.into(),
            args,
            ignore_nulls,
            spec: WindowSpec {
                partition_by: base_spec.partition_by.clone(),
                order_by: base_spec.order_by.clone(),
                frame,
            },
        }
    };
    Ok(match name {
        "RowNumber" => win("ROW_NUMBER", vec![], false, None),
        "Rank" => win("RANK", vec![], false, None),
        "DenseRank" => win("DENSE_RANK", vec![], false, None),
        "Ntile" => win("NTILE", vec![a(0)?], false, None),
        "Lag" | "Lead" => {
            let mut wargs = vec![a(0)?];
            for i in 1..args.len() {
                wargs.push(a(i)?);
            }
            win(
                if name == "Lag" { "LAG" } else { "LEAD" },
                wargs,
                false,
                None,
            )
        }
        "First" => win("FIRST_VALUE", vec![a(0)?], false, Some(whole)),
        "Last" => win("LAST_VALUE", vec![a(0)?], false, Some(whole)),
        "Nth" => win("NTH_VALUE", vec![a(0)?, a(1)?], false, Some(whole)),
        "RunningSum" => win("SUM", vec![a(0)?], false, Some(running)),
        "RunningAvg" => win("AVG", vec![a(0)?], false, Some(running)),
        "RunningMin" => win("MIN", vec![a(0)?], false, Some(running)),
        "RunningMax" => win("MAX", vec![a(0)?], false, Some(running)),
        "RunningCount" => {
            let wargs = if args.is_empty() {
                vec![SqlExpr::Star]
            } else {
                vec![a(0)?]
            };
            win("COUNT", wargs, false, Some(running))
        }
        "MovingAvg" | "MovingSum" | "MovingMin" | "MovingMax" => {
            let back = frame_lit(&args[1], "the moving-window look-back")?;
            let fwd = if args.len() > 2 {
                frame_lit(&args[2], "the moving-window look-ahead")?
            } else {
                0
            };
            let frame = WindowFrame {
                start: FrameBound::Preceding(back),
                end: if fwd == 0 {
                    FrameBound::CurrentRow
                } else {
                    FrameBound::Following(fwd)
                },
            };
            let sql_name = match name {
                "MovingAvg" => "AVG",
                "MovingSum" => "SUM",
                "MovingMin" => "MIN",
                _ => "MAX",
            };
            win(sql_name, vec![a(0)?], false, Some(frame))
        }
        "FillDown" => win("LAST_VALUE", vec![a(0)?], true, Some(running)),
        "FillUp" => {
            let frame = WindowFrame {
                start: FrameBound::CurrentRow,
                end: FrameBound::UnboundedFollowing,
            };
            win("FIRST_VALUE", vec![a(0)?], true, Some(frame))
        }
        other => {
            return Err(CoreError::Compile(format!(
                "no SQL lowering for window function {other}"
            )))
        }
    })
}

/// Lower a filter predicate over the given value expression.
pub(crate) fn filter_predicate(
    pred: &FilterPredicate,
    value: SqlExpr,
) -> Result<SqlExpr, CoreError> {
    Ok(match pred {
        FilterPredicate::OneOf(values) => SqlExpr::InList {
            expr: Box::new(value),
            list: values.iter().map(|v| SqlExpr::Literal(v.clone())).collect(),
            negated: false,
        },
        FilterPredicate::NotOneOf(values) => SqlExpr::InList {
            expr: Box::new(value),
            list: values.iter().map(|v| SqlExpr::Literal(v.clone())).collect(),
            negated: true,
        },
        FilterPredicate::Range { min, max } => {
            let mut preds = Vec::new();
            if let Some(lo) = min {
                preds.push(SqlExpr::binary(
                    SqlBinaryOp::GtEq,
                    value.clone(),
                    SqlExpr::Literal(lo.clone()),
                ));
            }
            if let Some(hi) = max {
                preds.push(SqlExpr::binary(
                    SqlBinaryOp::LtEq,
                    value.clone(),
                    SqlExpr::Literal(hi.clone()),
                ));
            }
            SqlExpr::conjunction(preds).ok_or_else(|| {
                CoreError::Document("range filter needs at least one bound".into())
            })?
        }
        FilterPredicate::Contains(text) => {
            SqlExpr::func("CONTAINS", vec![value, SqlExpr::lit(text.as_str())])
        }
        FilterPredicate::Equals(v) => SqlExpr::eq(value, SqlExpr::Literal(v.clone())),
        FilterPredicate::IsNull => SqlExpr::IsNull {
            expr: Box::new(value),
            negated: false,
        },
        FilterPredicate::IsNotNull => SqlExpr::IsNull {
            expr: Box::new(value),
            negated: true,
        },
    })
}

/// Null-safe join-key expression for structural level joins: NULL keys must
/// match each other (GROUP BY groups them), so both sides canonicalize to
/// text with a sentinel for NULL.
pub(crate) fn null_safe_key(expr: SqlExpr) -> SqlExpr {
    SqlExpr::func(
        "COALESCE",
        vec![
            SqlExpr::Cast {
                expr: Box::new(expr),
                dtype: DataType::Text,
            },
            SqlExpr::lit("\u{1}<null>"),
        ],
    )
}
