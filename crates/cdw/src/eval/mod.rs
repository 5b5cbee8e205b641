//! Physical scalar expressions and their vectorized evaluator.
//!
//! The module is layered the way modern engines (GlareDB's physical
//! expression planner, DuckDB's vectors) structure expression execution:
//!
//! * [`mod@self`] — the [`PhysExpr`] tree (column ordinals resolved by the
//!   query planner), type inference, and the public entry points
//!   [`eval`] / [`eval_sel`] / [`select`].
//! * [`planner`] — compiles a [`PhysExpr`] over a known input schema into
//!   a [`planner::CompiledExpr`]: output types resolved once, literal
//!   operands kept as scalars (never materialized into columns), LIKE
//!   patterns pre-compiled.
//! * [`kernels`] — typed columnar kernels: monomorphic `i64`/`f64`/`bool`/
//!   `str` loops with validity-bitmap null handling. Per-type dispatch
//!   happens once per batch, not once per cell.
//! * [`interp`] — the boxed-[`Value`] row-at-a-time interpreter. It is the
//!   **semantic oracle**: `tests/eval_oracle.rs` pins the vectorized
//!   engine bit-identical (float bit patterns included) to it over
//!   generated expressions and batches.
//! * [`like`] — SQL LIKE: a compiled pattern matcher for the vectorized
//!   path and the legacy backtracking matcher the oracle keeps using.
//! * `selection` — selection steps: typed predicate loops that narrow a
//!   vector of row ids in place instead of producing a Bool column.
//!
//! Selection vectors: [`eval_sel`] evaluates an expression only over the
//! row indices in a selection, gathering input columns at the leaves, so
//! `Filter → Project → Filter` chains never materialize intermediate
//! batches (see `exec.rs`). Predicates go the other way: [`select`]
//! returns the refined selection itself, and for an `AND` of
//! column-vs-literal comparisons (see `selection`) builds no Bool column
//! on the way.
//!
//! Error isolation: following the spreadsheet affordance the paper calls
//! out ("isolation of errors"), cell-level domain errors — division by
//! zero, bad casts of dirty data, invalid dates — evaluate to NULL rather
//! than failing the whole query. Structural errors (unknown columns, type
//! confusion the planner should have caught) still fail loudly. Casts come
//! in both flavors: `strict: false` (TRY_CAST semantics — what compiled
//! worksheet SQL uses) nulls unparseable cells, `strict: true` errors.

pub mod interp;
pub mod kernels;
pub mod like;
pub mod planner;
mod selection;

use std::ops::RangeInclusive;

use sigma_value::{calendar, Batch, Column, DataType, ReturnType, Value};

use crate::error::CdwError;

pub use interp::{eval_binary_value, eval_func_value, eval_interp};
pub use like::{like_match, LikePattern};
pub use planner::CompiledExpr;

/// One engine scalar: how SQL spells it, how many arguments it takes,
/// what it returns, and whether it sees NULL arguments.
#[derive(Debug)]
pub struct ScalarDef {
    pub func: ScalarFunc,
    /// Generic-dialect SQL names, matched case-insensitively.
    pub names: &'static [&'static str],
    /// Argument counts it accepts; [`VARIADIC`] ends an open range.
    pub args: RangeInclusive<usize>,
    pub ret: ReturnType,
    /// Sees NULL arguments; every other function is NULL as soon as one
    /// argument is.
    pub null_tolerant: bool,
}

/// The upper end of a variadic scalar's argument range.
pub const VARIADIC: usize = usize::MAX;

impl ScalarFunc {
    /// This function's row of [`SCALARS`].
    pub fn def(self) -> &'static ScalarDef {
        &SCALARS[self as usize]
    }
}

impl ScalarDef {
    /// Accept a call with `n` arguments, or name the function and the
    /// counts it takes in a plan error.
    pub fn check_arity(&self, n: usize) -> Result<(), CdwError> {
        if self.args.contains(&n) {
            return Ok(());
        }
        let (min, max) = (*self.args.start(), *self.args.end());
        let expected = match max {
            VARIADIC => format!("at least {min}"),
            _ if max == min => min.to_string(),
            _ => format!("{min} to {max}"),
        };
        Err(CdwError::plan(format!(
            "{} takes {expected} argument(s), got {n}",
            self.names[0]
        )))
    }
}

/// Resolve a SQL function name to its row of [`SCALARS`].
pub fn scalar(name: &str) -> Option<&'static ScalarDef> {
    SCALARS
        .iter()
        .find(|d| d.names.iter().any(|n| n.eq_ignore_ascii_case(name)))
}

/// Declares [`ScalarFunc`] and [`SCALARS`] from one list, so each engine
/// scalar is one row and the two stay in the same order.
macro_rules! scalars {
    ($($func:ident $names:expr, $args:expr, $ret:expr, $null_tolerant:expr;)*) => {
        /// Scalar functions executed by the engine.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ScalarFunc {
            $($func,)*
        }

        /// Every engine scalar, in [`ScalarFunc`] order.
        ///
        /// Adding one: its row here (names, argument counts, return
        /// type, null tolerance), an arm in
        /// [`interp::eval_func_value`] (the oracle), and a typed arm in
        /// `kernels::func` where one pays. Functions without a kernel run
        /// the row-at-a-time `eval_func_value` loop: ROUND SQRT EXP LN LOG
        /// POWER MOD GREATEST LEAST COALESCE NULLIF LPAD RPAD REPEAT
        /// MAKE_DATE, and so do CONCAT over non-text, a non-literal date
        /// unit and any operand type a kernel does not cover. A call whose
        /// arguments are all literals runs `eval_func_value` once.
        pub static SCALARS: &[ScalarDef] = {
            use DataType as T;
            use ReturnType::{ArgOr, First, Fixed, Unify, Widen};
            const N: usize = VARIADIC;
            &[$(ScalarDef {
                func: ScalarFunc::$func,
                names: $names,
                args: $args,
                ret: $ret,
                null_tolerant: $null_tolerant,
            },)*]
        };
    };
}

scalars! {
    Abs              &["ABS"],                           1..=1,  ArgOr(0, T::Float),  false;
    Round            &["ROUND"],                         1..=2,  ArgOr(0, T::Float),  false;
    Floor            &["FLOOR"],                         1..=1,  Fixed(T::Int),       false;
    Ceil             &["CEIL", "CEILING"],               1..=1,  Fixed(T::Int),       false;
    Sqrt             &["SQRT"],                          1..=1,  Fixed(T::Float),     false;
    Exp              &["EXP"],                           1..=1,  Fixed(T::Float),     false;
    Ln               &["LN"],                            1..=1,  Fixed(T::Float),     false;
    Log              &["LOG"],                           1..=2,  Fixed(T::Float),     false;
    Power            &["POWER", "POW"],                  2..=2,  Fixed(T::Float),     false;
    Mod              &["MOD"],                           2..=2,  Widen,               false;
    Sign             &["SIGN"],                          1..=1,  Fixed(T::Int),       false;
    Greatest         &["GREATEST"],                      1..=N,  Unify,               false;
    Least            &["LEAST"],                         1..=N,  Unify,               false;
    Concat           &["CONCAT"],                        1..=N,  Fixed(T::Text),      true;
    Upper            &["UPPER"],                         1..=1,  Fixed(T::Text),      false;
    Lower            &["LOWER"],                         1..=1,  Fixed(T::Text),      false;
    Trim             &["TRIM"],                          1..=1,  Fixed(T::Text),      false;
    LTrim            &["LTRIM"],                         1..=1,  Fixed(T::Text),      false;
    RTrim            &["RTRIM"],                         1..=1,  Fixed(T::Text),      false;
    Length           &["LENGTH", "LEN"],                 1..=1,  Fixed(T::Int),       false;
    Left             &["LEFT"],                          2..=2,  Fixed(T::Text),      false;
    Right            &["RIGHT"],                         2..=2,  Fixed(T::Text),      false;
    Substring        &["SUBSTRING", "SUBSTR"],           3..=3,  Fixed(T::Text),      false;
    Contains         &["CONTAINS"],                      2..=2,  Fixed(T::Bool),      false;
    StartsWith       &["STARTS_WITH", "STARTSWITH"],     2..=2,  Fixed(T::Bool),      false;
    EndsWith         &["ENDS_WITH", "ENDSWITH"],         2..=2,  Fixed(T::Bool),      false;
    Replace          &["REPLACE"],                       3..=3,  Fixed(T::Text),      false;
    SplitPart        &["SPLIT_PART"],                    3..=3,  Fixed(T::Text),      false;
    Lpad             &["LPAD"],                          2..=3,  Fixed(T::Text),      false;
    Rpad             &["RPAD"],                          2..=3,  Fixed(T::Text),      false;
    Repeat           &["REPEAT"],                        2..=2,  Fixed(T::Text),      false;
    Coalesce         &["COALESCE", "IFNULL", "NVL"],     1..=N,  Unify,               true;
    Nullif           &["NULLIF"],                        2..=2,  First,               true;
    DateTrunc        &["DATE_TRUNC"],                    2..=2,  ArgOr(1, T::Date),   false;
    DatePart         &["DATE_PART"],                     2..=2,  Fixed(T::Int),       false;
    DateAdd          &["DATEADD", "DATE_ADD"],           3..=3,  ArgOr(2, T::Date),   false;
    DateDiff         &["DATEDIFF", "DATE_DIFF"],         3..=3,  Fixed(T::Int),       false;
    MakeDate         &["MAKE_DATE", "DATE_FROM_PARTS"],  3..=3,  Fixed(T::Date),      false;
    CurrentDate      &["CURRENT_DATE"],                  0..=0,  Fixed(T::Date),      true;
    CurrentTimestamp &["CURRENT_TIMESTAMP", "NOW"],      0..=0,  Fixed(T::Timestamp), true;
}

/// Binary operators at the physical level (same set as the SQL AST).
pub use sigma_sql::SqlBinaryOp as BinOp;
pub use sigma_sql::SqlUnaryOp as UnOp;

/// A fully resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    Literal(Value),
    /// Input column ordinal.
    Col(usize),
    Unary {
        op: UnOp,
        expr: Box<PhysExpr>,
    },
    Binary {
        op: BinOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<PhysExpr>,
    },
    Case {
        operand: Option<Box<PhysExpr>>,
        whens: Vec<(PhysExpr, PhysExpr)>,
        else_: Option<Box<PhysExpr>>,
    },
    Cast {
        expr: Box<PhysExpr>,
        dtype: DataType,
        /// `true` = SQL `CAST`: an unconvertible cell is an execution
        /// error. `false` = `TRY_CAST`: unconvertible cells become NULL.
        /// Compiled worksheet SQL always plans the non-strict flavor —
        /// the paper's "isolation of errors" keeps one dirty cell from
        /// failing the whole sheet.
        strict: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Between {
        expr: Box<PhysExpr>,
        low: Box<PhysExpr>,
        high: Box<PhysExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
        negated: bool,
    },
}

impl PhysExpr {
    pub fn lit(v: impl Into<Value>) -> PhysExpr {
        PhysExpr::Literal(v.into())
    }

    /// A non-strict (TRY_CAST) cast — the flavor compiled worksheet SQL
    /// uses.
    pub fn try_cast(expr: PhysExpr, dtype: DataType) -> PhysExpr {
        PhysExpr::Cast {
            expr: Box::new(expr),
            dtype,
            strict: false,
        }
    }

    /// Collect referenced column ordinals.
    pub fn columns_used(&self, out: &mut Vec<usize>) {
        match self {
            PhysExpr::Col(i) => out.push(*i),
            _ => self.for_each_child(&mut |c| c.columns_used(out)),
        }
    }

    /// Rewrite column ordinals through a mapping (projection pruning).
    pub fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        match self {
            PhysExpr::Col(i) => *i = map(*i),
            _ => self.for_each_child_mut(&mut |c| c.remap_columns(map)),
        }
    }

    /// Visit each direct child in evaluation order (a CASE visits its
    /// operand, then each WHEN/THEN pair, then ELSE). This is the one
    /// place that lists a node's children; walkers recurse through it.
    pub fn for_each_child(&self, f: &mut dyn FnMut(&PhysExpr)) {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Col(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::Cast { expr, .. }
            | PhysExpr::IsNull { expr, .. } => f(expr),
            PhysExpr::Binary {
                left: a, right: b, ..
            }
            | PhysExpr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                f(a);
                f(b);
            }
            PhysExpr::Func { args, .. } => args.iter().for_each(f),
            PhysExpr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                else_.iter().for_each(|e| f(e));
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// [`PhysExpr::for_each_child`], mutably.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut PhysExpr)) {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Col(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::Cast { expr, .. }
            | PhysExpr::IsNull { expr, .. } => f(expr),
            PhysExpr::Binary {
                left: a, right: b, ..
            }
            | PhysExpr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                f(a);
                f(b);
            }
            PhysExpr::Func { args, .. } => args.iter_mut().for_each(f),
            PhysExpr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.iter_mut().for_each(|o| f(o));
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                else_.iter_mut().for_each(|e| f(e));
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }
}

/// Evaluation context: the session clock, so `CURRENT_DATE` is
/// deterministic and testable.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// Session "now" in microseconds since the epoch.
    pub now_micros: i64,
}

impl Default for EvalCtx {
    fn default() -> Self {
        // 2020-06-01 00:00:00 UTC: inside the paper's 1987-2020 dataset.
        EvalCtx {
            now_micros: calendar::days_from_civil(2020, 6, 1) as i64 * calendar::MICROS_PER_DAY,
        }
    }
}

// ---------------------------------------------------------------------
// type inference
// ---------------------------------------------------------------------

/// Infer the output type of an expression over the given input types.
/// `None` means "unknown / all-null" and defaults to Text at column-build
/// time.
pub fn infer_type(expr: &PhysExpr, input: &[DataType]) -> Result<Option<DataType>, CdwError> {
    use PhysExpr::*;
    match expr {
        Literal(v) => Ok(v.dtype()),
        Col(i) => input
            .get(*i)
            .copied()
            .map(Some)
            .ok_or_else(|| CdwError::plan(format!("column ordinal {i} out of range"))),
        Unary { op, expr } => {
            let t = infer_type(expr, input)?;
            Ok(match op {
                UnOp::Neg => t.or(Some(DataType::Float)),
                UnOp::Not => Some(DataType::Bool),
            })
        }
        Binary { op, left, right } => {
            let lt = infer_type(left, input)?;
            let rt = infer_type(right, input)?;
            Ok(binary_type(*op, lt, rt))
        }
        Func { func, args } => {
            let tys: Vec<Option<DataType>> = args
                .iter()
                .map(|a| infer_type(a, input))
                .collect::<Result<_, _>>()?;
            Ok(func.def().ret.resolve(&tys).unwrap_or(Some(DataType::Text)))
        }
        Case { whens, else_, .. } => {
            let mut acc: Option<DataType> = None;
            for (_, t) in whens {
                acc = unify_opt(acc, infer_type(t, input)?);
            }
            if let Some(e) = else_ {
                acc = unify_opt(acc, infer_type(e, input)?);
            }
            Ok(acc)
        }
        Cast { dtype, .. } => Ok(Some(*dtype)),
        InList { .. } | Between { .. } | IsNull { .. } | Like { .. } => Ok(Some(DataType::Bool)),
    }
}

pub(crate) fn unify_opt(a: Option<DataType>, b: Option<DataType>) -> Option<DataType> {
    match (a, b) {
        (None, t) | (t, None) => t,
        (Some(x), Some(y)) => x.unify(y).or(Some(DataType::Text)),
    }
}

pub(crate) fn binary_type(
    op: BinOp,
    lt: Option<DataType>,
    rt: Option<DataType>,
) -> Option<DataType> {
    use BinOp::*;
    match op {
        Add | Sub => match (lt, rt) {
            (Some(d), Some(DataType::Int)) if d.is_temporal() => Some(d),
            (Some(DataType::Int), Some(d)) if d.is_temporal() => Some(d),
            (Some(a), Some(b)) if a.is_temporal() && b.is_temporal() => Some(DataType::Int),
            (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
            _ => Some(DataType::Float),
        },
        Mul | Mod => match (lt, rt) {
            (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
            _ => Some(DataType::Float),
        },
        Div => Some(DataType::Float),
        Concat => Some(DataType::Text),
        Eq | NotEq | Lt | LtEq | Gt | GtEq | And | Or => Some(DataType::Bool),
    }
}

// ---------------------------------------------------------------------
// evaluation entry points
// ---------------------------------------------------------------------

/// Evaluate an expression over a whole batch, producing one column.
/// Compiles to typed kernels and evaluates column-at-a-time; semantics
/// are pinned bit-identical to the row interpreter ([`eval_interp`]).
pub fn eval(expr: &PhysExpr, batch: &Batch, ctx: &EvalCtx) -> Result<Column, CdwError> {
    eval_sel(expr, batch, None, ctx)
}

/// Evaluate an expression over the selected row indices of a batch (all
/// rows when `sel` is `None`). The output column has one slot per
/// selected row, in selection order; input columns are gathered at the
/// leaves so only surviving rows are ever touched.
pub fn eval_sel(
    expr: &PhysExpr,
    batch: &Batch,
    sel: Option<&[usize]>,
    ctx: &EvalCtx,
) -> Result<Column, CdwError> {
    CompiledExpr::compile(expr, &input_types(batch))?.eval(batch, sel, ctx)
}

/// The selected row indices of a batch (all rows when `sel` is `None`)
/// where a predicate is TRUE, in selection order — see
/// [`CompiledExpr::select`].
pub fn select(
    expr: &PhysExpr,
    batch: &Batch,
    sel: Option<&[usize]>,
    ctx: &EvalCtx,
) -> Result<Vec<usize>, CdwError> {
    CompiledExpr::compile(expr, &input_types(batch))?.select(batch, sel, ctx)
}

fn input_types(batch: &Batch) -> Vec<DataType> {
    batch.schema().fields().iter().map(|f| f.dtype).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::{Field, Schema};
    use std::sync::Arc;

    /// One expression per variant with `Col(k)` in child slot `k`: the
    /// child visitors must reach every slot, in evaluation order.
    #[test]
    fn child_visitors_reach_every_slot_in_order() {
        let c = |k| Box::new(PhysExpr::Col(k));
        let cols = |ks: std::ops::Range<usize>| ks.map(PhysExpr::Col).collect::<Vec<_>>();
        #[rustfmt::skip]
        let cases = [
            (PhysExpr::lit(1), 0),
            (PhysExpr::Col(0), 1),
            (PhysExpr::Unary { op: UnOp::Neg, expr: c(0) }, 1),
            (PhysExpr::Binary { op: BinOp::Add, left: c(0), right: c(1) }, 2),
            (PhysExpr::Func { func: ScalarFunc::Concat, args: cols(0..3) }, 3),
            (PhysExpr::Case { operand: Some(c(0)), whens: vec![(PhysExpr::Col(1), PhysExpr::Col(2)), (PhysExpr::Col(3), PhysExpr::Col(4))], else_: Some(c(5)) }, 6),
            (PhysExpr::Cast { expr: c(0), dtype: DataType::Int, strict: true }, 1),
            (PhysExpr::InList { expr: c(0), list: cols(1..3), negated: false }, 3),
            (PhysExpr::Between { expr: c(0), low: c(1), high: c(2), negated: false }, 3),
            (PhysExpr::IsNull { expr: c(0), negated: false }, 1),
            (PhysExpr::Like { expr: c(0), pattern: c(1), negated: false }, 2),
        ];
        for (mut e, slots) in cases {
            let mut used = Vec::new();
            e.columns_used(&mut used);
            assert_eq!(used, (0..slots).collect::<Vec<_>>(), "{e:?}");
            e.remap_columns(&|i| i + 100);
            used.clear();
            e.columns_used(&mut used);
            assert_eq!(used, (100..100 + slots).collect::<Vec<_>>(), "{e:?}");
        }
    }

    fn batch() -> Batch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("t", DataType::Text),
            Field::new("f", DataType::Float),
        ]));
        Batch::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_opt_ints(vec![Some(10), None, Some(30)]),
                Column::from_texts(vec!["alpha".into(), "Beta".into(), "x,y".into()]),
                Column::from_floats(vec![1.5, 2.5, -3.0]),
            ],
        )
        .unwrap()
    }

    /// Evaluate on the vectorized path AND assert the row interpreter
    /// agrees bit-for-bit — every unit test double-checks the oracle.
    fn ev(e: &PhysExpr) -> Column {
        let b = batch();
        let vectorized = eval(e, &b, &EvalCtx::default()).unwrap();
        let interp = eval_interp(e, &b, &EvalCtx::default()).unwrap();
        assert_eq!(
            sigma_value::codec::encode_batch(
                &Batch::new(
                    Arc::new(Schema::new(vec![Field::new("c", vectorized.dtype())])),
                    vec![vectorized.clone()]
                )
                .unwrap()
            ),
            sigma_value::codec::encode_batch(
                &Batch::new(
                    Arc::new(Schema::new(vec![Field::new("c", interp.dtype())])),
                    vec![interp.clone()]
                )
                .unwrap()
            ),
            "vectorized and row-interpreted results diverge for {e:?}"
        );
        vectorized
    }

    #[test]
    fn arithmetic_fast_path_and_nulls() {
        let e = PhysExpr::Binary {
            op: BinOp::Add,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::Col(1)),
        };
        let c = ev(&e);
        assert_eq!(c.value(0), Value::Int(11));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(33));
    }

    #[test]
    fn division_by_zero_isolates() {
        let e = PhysExpr::Binary {
            op: BinOp::Div,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::lit(0i64)),
        };
        let c = ev(&e);
        assert!(c.is_null(0));
    }

    #[test]
    fn three_valued_logic() {
        // null AND false = false; null AND true = null; null OR true = true.
        let null = PhysExpr::Literal(Value::Null);
        let f = PhysExpr::lit(false);
        let t = PhysExpr::lit(true);
        let and_nf = PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(null.clone()),
            right: Box::new(f),
        };
        assert_eq!(ev(&and_nf).value(0), Value::Bool(false));
        let and_nt = PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(null.clone()),
            right: Box::new(t.clone()),
        };
        assert!(ev(&and_nt).is_null(0));
        let or_nt = PhysExpr::Binary {
            op: BinOp::Or,
            left: Box::new(null),
            right: Box::new(t),
        };
        assert_eq!(ev(&or_nt).value(0), Value::Bool(true));
    }

    #[test]
    fn string_functions() {
        let upper = PhysExpr::Func {
            func: ScalarFunc::Upper,
            args: vec![PhysExpr::Col(2)],
        };
        assert_eq!(ev(&upper).value(0), Value::Text("ALPHA".into()));
        let left = PhysExpr::Func {
            func: ScalarFunc::Left,
            args: vec![PhysExpr::Col(2), PhysExpr::lit(2i64)],
        };
        assert_eq!(ev(&left).value(1), Value::Text("Be".into()));
        let split = PhysExpr::Func {
            func: ScalarFunc::SplitPart,
            args: vec![PhysExpr::Col(2), PhysExpr::lit(","), PhysExpr::lit(2i64)],
        };
        assert_eq!(ev(&split).value(2), Value::Text("y".into()));
        assert!(ev(&split).is_null(0)); // "alpha" has no second field
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("alpha", "al%"));
        assert!(like_match("alpha", "%pha"));
        assert!(like_match("alpha", "a_pha"));
        assert!(!like_match("alpha", "beta%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn like_kernel_compiles_literal_pattern() {
        let e = PhysExpr::Like {
            expr: Box::new(PhysExpr::Col(2)),
            pattern: Box::new(PhysExpr::lit("%a")),
            negated: false,
        };
        let c = ev(&e);
        assert_eq!(c.value(0), Value::Bool(true)); // alpha
        assert_eq!(c.value(1), Value::Bool(true)); // Beta
        assert_eq!(c.value(2), Value::Bool(false)); // x,y
                                                    // Null pattern literal nulls every row.
        let null_pat = PhysExpr::Like {
            expr: Box::new(PhysExpr::Col(2)),
            pattern: Box::new(PhysExpr::Literal(Value::Null)),
            negated: false,
        };
        assert_eq!(ev(&null_pat).null_count(), 3);
        // Dynamic pattern column: each row matched against its own pattern.
        let dynamic = PhysExpr::Like {
            expr: Box::new(PhysExpr::Col(2)),
            pattern: Box::new(PhysExpr::Col(2)),
            negated: false,
        };
        let d = ev(&dynamic);
        assert_eq!(d.value(0), Value::Bool(true)); // s LIKE s with no wildcards
    }

    #[test]
    fn date_functions() {
        let d = calendar::days_from_civil(2019, 8, 17);
        let trunc = PhysExpr::Func {
            func: ScalarFunc::DateTrunc,
            args: vec![PhysExpr::lit("quarter"), PhysExpr::Literal(Value::Date(d))],
        };
        let c = ev(&trunc);
        assert_eq!(
            c.value(0),
            Value::Date(calendar::days_from_civil(2019, 7, 1))
        );
        let bad = PhysExpr::Func {
            func: ScalarFunc::MakeDate,
            args: vec![
                PhysExpr::lit(2021i64),
                PhysExpr::lit(2i64),
                PhysExpr::lit(29i64),
            ],
        };
        assert!(ev(&bad).is_null(0));
    }

    #[test]
    fn try_cast_isolates_strict_cast_errors() {
        let try_cast = PhysExpr::try_cast(PhysExpr::Col(2), DataType::Int);
        // None of "alpha"/"Beta"/"x,y" parse as ints -> NULLs, not errors.
        let out = ev(&try_cast);
        assert_eq!(out.null_count(), 3);

        // The strict kernel errors on the same input...
        let strict = PhysExpr::Cast {
            expr: Box::new(PhysExpr::Col(2)),
            dtype: DataType::Int,
            strict: true,
        };
        let b = batch();
        assert!(eval(&strict, &b, &EvalCtx::default()).is_err());
        assert!(eval_interp(&strict, &b, &EvalCtx::default()).is_err());

        // ...but behaves identically to TRY_CAST when every cell converts.
        let ok = PhysExpr::Cast {
            expr: Box::new(PhysExpr::Col(0)),
            dtype: DataType::Float,
            strict: true,
        };
        let c = ev(&ok);
        assert_eq!(c.value(2), Value::Float(3.0));

        // The strict kernel round-trips text through dates and keeps NULLs.
        let text = Column::from_texts(vec!["2020-01-15".into()]);
        let dates = kernels::cast(&text, DataType::Date, true).unwrap();
        assert_eq!(dates.dtype(), DataType::Date);
        let texts = kernels::cast(&dates, DataType::Text, true).unwrap();
        assert_eq!(texts.value(0), Value::Text("2020-01-15".into()));
        let ints = Column::from_opt_ints(vec![Some(1), None]);
        let floats = kernels::cast(&ints, DataType::Float, true).unwrap();
        assert!(floats.is_null(1));
        assert_eq!(floats.value(0), Value::Float(1.0));
    }

    #[test]
    fn case_simple_and_searched() {
        let searched = PhysExpr::Case {
            operand: None,
            whens: vec![(
                PhysExpr::Binary {
                    op: BinOp::Gt,
                    left: Box::new(PhysExpr::Col(0)),
                    right: Box::new(PhysExpr::lit(1i64)),
                },
                PhysExpr::lit("big"),
            )],
            else_: Some(Box::new(PhysExpr::lit("small"))),
        };
        let c = ev(&searched);
        assert_eq!(c.value(0), Value::Text("small".into()));
        assert_eq!(c.value(2), Value::Text("big".into()));
        let simple = PhysExpr::Case {
            operand: Some(Box::new(PhysExpr::Col(0))),
            whens: vec![(PhysExpr::lit(2i64), PhysExpr::lit("two"))],
            else_: None,
        };
        let c2 = ev(&simple);
        assert!(c2.is_null(0));
        assert_eq!(c2.value(1), Value::Text("two".into()));
    }

    #[test]
    fn in_list_three_valued() {
        // 1 IN (1, NULL) = true; 2 IN (1, NULL) = NULL; 2 IN (1, 3) = false.
        let mk = |v: i64, list: Vec<PhysExpr>| PhysExpr::InList {
            expr: Box::new(PhysExpr::lit(v)),
            list,
            negated: false,
        };
        let t = mk(1, vec![PhysExpr::lit(1i64), PhysExpr::Literal(Value::Null)]);
        assert_eq!(ev(&t).value(0), Value::Bool(true));
        let n = mk(2, vec![PhysExpr::lit(1i64), PhysExpr::Literal(Value::Null)]);
        assert!(ev(&n).is_null(0));
        let f = mk(2, vec![PhysExpr::lit(1i64), PhysExpr::lit(3i64)]);
        assert_eq!(ev(&f).value(0), Value::Bool(false));
        // Column operand against a hashed literal set (the fast path).
        let col_in = PhysExpr::InList {
            expr: Box::new(PhysExpr::Col(0)),
            list: vec![PhysExpr::lit(1i64), PhysExpr::lit(3i64)],
            negated: true,
        };
        let c = ev(&col_in);
        assert_eq!(c.value(0), Value::Bool(false));
        assert_eq!(c.value(1), Value::Bool(true));
        assert_eq!(c.value(2), Value::Bool(false));
    }

    #[test]
    fn type_inference_matches_eval() {
        let input = [
            DataType::Int,
            DataType::Int,
            DataType::Text,
            DataType::Float,
        ];
        let div = PhysExpr::Binary {
            op: BinOp::Div,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::Col(1)),
        };
        assert_eq!(infer_type(&div, &input).unwrap(), Some(DataType::Float));
        assert_eq!(ev(&div).dtype(), DataType::Float);
        let concat = PhysExpr::Binary {
            op: BinOp::Concat,
            left: Box::new(PhysExpr::Col(2)),
            right: Box::new(PhysExpr::Col(0)),
        };
        assert_eq!(ev(&concat).value(0), Value::Text("alpha1".into()));
    }

    #[test]
    fn current_date_uses_session_clock() {
        let e = PhysExpr::Func {
            func: ScalarFunc::CurrentDate,
            args: vec![],
        };
        let c = eval(&e, &batch(), &EvalCtx::default()).unwrap();
        assert_eq!(
            c.value(0),
            Value::Date(calendar::days_from_civil(2020, 6, 1))
        );
    }

    #[test]
    fn selection_vector_evaluates_only_surviving_rows() {
        let b = batch();
        let e = PhysExpr::Binary {
            op: BinOp::Mul,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::lit(100i64)),
        };
        let sel = [2usize, 0];
        let c = eval_sel(&e, &b, Some(&sel), &EvalCtx::default()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int(300)); // row 2 first, selection order
        assert_eq!(c.value(1), Value::Int(100));
        // Empty selection yields an empty, correctly typed column.
        let none = eval_sel(&e, &b, Some(&[]), &EvalCtx::default()).unwrap();
        assert_eq!(none.len(), 0);
        assert_eq!(none.dtype(), DataType::Int);
    }

    /// Kernel output must be byte-identical to builder output under the
    /// spill codec — null slots hold builder defaults, never the mapped
    /// payload (`-0.0` from negating a null slot's `0.0`, `true` from
    /// inverting its `false`).
    #[test]
    fn unary_kernels_keep_builder_defaults_in_null_slots() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Bool),
        ]));
        let b = Batch::new(
            schema,
            vec![
                Column::from_opt_floats(vec![Some(1.5), None, Some(-0.0)]),
                Column::from_opt_bools(vec![Some(true), None, Some(false)]),
            ],
        )
        .unwrap();
        let bytes = |c: &Column| {
            let s = Arc::new(Schema::new(vec![Field::new("c", c.dtype())]));
            sigma_value::codec::encode_batch(&Batch::new(s, vec![c.clone()]).unwrap())
        };
        for e in [
            PhysExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(PhysExpr::Col(0)),
            },
            PhysExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(PhysExpr::Col(1)),
            },
        ] {
            let v = eval(&e, &b, &EvalCtx::default()).unwrap();
            let o = eval_interp(&e, &b, &EvalCtx::default()).unwrap();
            assert_eq!(bytes(&v), bytes(&o), "null-slot payloads diverged: {e:?}");
        }
    }

    #[test]
    fn between_kernel_matrix() {
        // Int column between int literals.
        let e = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(0)),
            low: Box::new(PhysExpr::lit(2i64)),
            high: Box::new(PhysExpr::lit(3i64)),
            negated: false,
        };
        let c = ev(&e);
        assert_eq!(c.value(0), Value::Bool(false));
        assert_eq!(c.value(1), Value::Bool(true));
        // Mixed numeric goes through the f64 kernel.
        let mixed = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(3)),
            low: Box::new(PhysExpr::lit(-10i64)),
            high: Box::new(PhysExpr::lit(2i64)),
            negated: true,
        };
        let m = ev(&mixed);
        assert_eq!(m.value(1), Value::Bool(true)); // 2.5 outside, negated
                                                   // Null bound nulls every row.
        let null_bound = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(0)),
            low: Box::new(PhysExpr::Literal(Value::Null)),
            high: Box::new(PhysExpr::lit(3i64)),
            negated: false,
        };
        assert_eq!(ev(&null_bound).null_count(), 3);
    }

    #[test]
    fn scalars_name_each_function_once() {
        for def in SCALARS {
            assert_eq!(scalar(&def.names[0].to_lowercase()).unwrap().func, def.func);
            assert!(!def.args.is_empty(), "{}", def.names[0]);
        }
        let names: Vec<&str> = SCALARS
            .iter()
            .flat_map(|d| d.names.iter().copied())
            .collect();
        for (i, a) in names.iter().enumerate() {
            assert!(
                !names[i + 1..].iter().any(|b| a.eq_ignore_ascii_case(b)),
                "{a} names two functions"
            );
        }
        assert!(scalar("NO_SUCH_FN").is_none());
    }

    /// Every scalar-function kernel against the row interpreter, bytes
    /// and errors alike, over columns with nulls, empty strings,
    /// multi-byte text and both temporal types — with literal and
    /// per-row arguments (the latter run the row fallback).
    #[test]
    fn function_kernels_match_the_interpreter() {
        use ScalarFunc::*;
        let day = sigma_value::calendar::days_from_civil(2021, 5, 17);
        let micros = day as i64 * sigma_value::calendar::MICROS_PER_DAY + 12_345_678_901;
        let text = |v: &[Option<&str>]| {
            Column::from_opt_texts(v.iter().map(|s| s.map(str::to_string)).collect())
        };
        let schema = Arc::new(Schema::new(vec![
            Field::new("s", DataType::Text),
            Field::new("p", DataType::Text),
            Field::new("d", DataType::Date),
            Field::new("t", DataType::Timestamp),
            Field::new("k", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("u", DataType::Text),
        ]));
        let b = Batch::new(
            schema,
            vec![
                text(&[
                    Some("  Grüße, Welt  "),
                    Some(""),
                    None,
                    Some("a,b,,c"),
                    Some("ΣΑΣ"),
                ]),
                text(&[Some("ß"), Some(""), Some("x"), None, Some("Σ")]),
                Column::from_opt_dates(vec![Some(day), Some(-400), None, Some(0), Some(day + 1)]),
                Column::from_opt_timestamps(vec![Some(micros), None, Some(-1), Some(0), Some(7)]),
                Column::from_opt_ints(vec![Some(2), Some(0), Some(-3), None, Some(40)]),
                Column::from_opt_floats(vec![
                    Some(-2.5),
                    Some(0.0),
                    None,
                    Some(f64::NAN),
                    Some(9.9),
                ]),
                text(&[
                    Some("month"),
                    Some("year"),
                    Some("day"),
                    Some("week"),
                    Some("bogus"),
                ]),
            ],
        )
        .unwrap();
        let col = PhysExpr::Col;
        let lit = |s: &str| PhysExpr::lit(s);
        let null = || PhysExpr::Literal(Value::Null);
        let mut calls: Vec<(ScalarFunc, Vec<PhysExpr>)> = Vec::new();
        for f in [Abs, Floor, Ceil, Sign] {
            calls.push((f, vec![col(4)]));
            calls.push((f, vec![col(5)]));
            calls.push((f, vec![col(0)])); // wrong type: same error
        }
        for f in [Upper, Lower, Trim, LTrim, RTrim, Length] {
            calls.push((f, vec![col(0)]));
            calls.push((f, vec![col(4)]));
        }
        for f in [Left, Right] {
            calls.push((f, vec![col(0), PhysExpr::lit(3i64)]));
            calls.push((f, vec![col(0), col(4)]));
            calls.push((f, vec![col(0), col(5)]));
        }
        calls.push((
            Substring,
            vec![col(0), PhysExpr::lit(3i64), PhysExpr::lit(4i64)],
        ));
        calls.push((Substring, vec![col(0), col(4), col(4)]));
        for f in [Contains, StartsWith, EndsWith] {
            calls.push((f, vec![col(0), lit("")]));
            calls.push((f, vec![col(0), col(1)]));
            calls.push((f, vec![lit("Σx"), col(1)]));
        }
        calls.push((Replace, vec![col(0), lit(","), lit("--")]));
        calls.push((Replace, vec![col(0), lit(""), lit("·")]));
        calls.push((Replace, vec![col(0), col(1), col(1)]));
        calls.push((SplitPart, vec![col(0), lit(","), PhysExpr::lit(3i64)]));
        calls.push((SplitPart, vec![col(0), col(1), col(4)]));
        calls.push((Concat, vec![col(0), lit("|"), col(1), null()]));
        calls.push((Concat, vec![col(0), col(4)]));
        for unit in ["year", "quarter", "month", "week", "day", "hour", "bogus"] {
            for temporal in [2, 3] {
                calls.push((DateTrunc, vec![lit(unit), col(temporal)]));
                calls.push((DatePart, vec![lit(unit), col(temporal)]));
                calls.push((DateAdd, vec![lit(unit), col(4), col(temporal)]));
                calls.push((DateDiff, vec![lit(unit), col(temporal), col(2)]));
                calls.push((
                    DateDiff,
                    vec![lit(unit), PhysExpr::lit(Value::Date(day)), col(temporal)],
                ));
            }
        }
        calls.push((DateTrunc, vec![col(6), col(2)])); // per-row unit
        calls.push((DateTrunc, vec![null(), col(2)]));
        calls.push((DateTrunc, vec![lit("day"), col(0)]));
        calls.push((DateAdd, vec![lit("day"), col(5), col(2)]));
        calls.push((DateDiff, vec![PhysExpr::lit(7i64), col(2), col(3)]));

        let ctx = EvalCtx::default();
        for (func, args) in calls {
            let e = PhysExpr::Func { func, args };
            let (fast, slow) = (eval(&e, &b, &ctx), eval_interp(&e, &b, &ctx));
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    // Bit-exact: type, validity, payloads (NaN included).
                    let bytes = |c: &Column| {
                        let schema = Schema::new(vec![Field::new("c", c.dtype())]);
                        let batch = Batch::new(Arc::new(schema), vec![c.clone()]).unwrap();
                        sigma_value::codec::encode_batch(&batch)
                    };
                    assert_eq!(bytes(&f), bytes(&s), "{e:?}\n{f:?}\n{s:?}");
                    // And through a selection vector.
                    let picked = eval_sel(&e, &b, Some(&[4, 0, 3]), &ctx).unwrap();
                    assert_eq!(bytes(&picked), bytes(&s.take(&[4, 0, 3])), "{e:?}");
                }
                (Err(f), Err(s)) => assert_eq!(f.to_string(), s.to_string(), "{e:?}"),
                (f, s) => panic!("{e:?}: kernel {f:?} vs interpreter {s:?}"),
            }
        }
    }
}
