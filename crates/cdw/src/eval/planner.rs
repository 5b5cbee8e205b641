//! The physical-expression planner: [`PhysExpr`] → [`CompiledExpr`].
//!
//! Compilation resolves each node's output type once against the input
//! schema (the executor compiles once per operator, not once per batch or
//! cell), pre-compiles literal LIKE patterns, and pre-hashes literal
//! IN-lists. Evaluation then walks the compiled tree producing [`CVal`]s:
//! literal operands stay **scalars** all the way into the kernels — they
//! are only materialized into columns when a node genuinely needs one
//! slot per row.
//!
//! Selection vectors: `eval` takes an optional slice of row indices.
//! Input columns are gathered at the `Col` leaves, so every kernel above
//! runs dense over exactly the surviving rows. A predicate is applied with
//! `select`, which returns the refined selection itself: an `AND` of
//! column-vs-literal comparisons narrows it one conjunct at a time,
//! reading the batch's columns through it without gathering.

use sigma_value::{column::cast_value, Batch, Column, ColumnBuilder, DataType, Value, ValueRef};

use super::interp::{eval_func_value, materialize_value};
use super::kernels::{self, FastList};
use super::like::LikePattern;
use super::selection;
use super::{infer_type, BinOp, EvalCtx, PhysExpr, ScalarFunc, UnOp};
use crate::error::CdwError;

/// An evaluated operand: a dense column (one slot per selected row) or a
/// literal scalar that kernels broadcast without materializing.
#[derive(Debug, Clone)]
pub(crate) enum CVal {
    Col(Column),
    Scalar(Value),
}

impl CVal {
    pub(crate) fn dtype(&self) -> Option<DataType> {
        match self {
            CVal::Col(c) => Some(c.dtype()),
            CVal::Scalar(v) => v.dtype(),
        }
    }

    pub(crate) fn is_null_scalar(&self) -> bool {
        matches!(self, CVal::Scalar(Value::Null))
    }

    /// Boxed value at row `i` (fallback paths only).
    pub(crate) fn value_at(&self, i: usize) -> Value {
        match self {
            CVal::Col(c) => c.value(i),
            CVal::Scalar(v) => v.clone(),
        }
    }
}

/// How a LIKE pattern operand was resolved at compile time.
#[derive(Debug, Clone)]
enum LikeSrc {
    /// Literal text pattern, compiled once.
    Compiled(LikePattern),
    /// Literal non-text pattern (including NULL): every row is NULL.
    NonText,
    /// Pattern varies per row.
    Dynamic(Box<CompiledExpr>),
}

#[derive(Debug, Clone)]
enum CKind {
    Literal(Value),
    Col(usize),
    Unary {
        op: UnOp,
        child: Box<CompiledExpr>,
    },
    Binary {
        op: BinOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<CompiledExpr>,
    },
    Case {
        operand: Option<Box<CompiledExpr>>,
        whens: Vec<(CompiledExpr, CompiledExpr)>,
        else_: Option<Box<CompiledExpr>>,
    },
    Cast {
        child: Box<CompiledExpr>,
        target: DataType,
        strict: bool,
    },
    InList {
        child: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
        fast: Option<FastList>,
    },
    Between {
        child: Box<CompiledExpr>,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
        negated: bool,
    },
    IsNull {
        child: Box<CompiledExpr>,
        negated: bool,
    },
    Like {
        child: Box<CompiledExpr>,
        pattern: LikeSrc,
        negated: bool,
    },
}

/// A [`PhysExpr`] compiled against a fixed input schema: types resolved,
/// literal patterns/sets pre-built. Reusable across any number of batches
/// (and partitions) sharing that schema.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    kind: CKind,
    /// Inferred output type (`None` = all-null, materializes as Text).
    dtype: Option<DataType>,
}

impl CompiledExpr {
    /// Compile an expression against the input column types.
    pub fn compile(expr: &PhysExpr, input: &[DataType]) -> Result<CompiledExpr, CdwError> {
        let dtype = infer_type(expr, input)?;
        let c = |e: &PhysExpr| CompiledExpr::compile(e, input).map(Box::new);
        let kind = match expr {
            PhysExpr::Literal(v) => CKind::Literal(v.clone()),
            PhysExpr::Col(i) => CKind::Col(*i),
            PhysExpr::Unary { op, expr } => CKind::Unary {
                op: *op,
                child: c(expr)?,
            },
            PhysExpr::Binary { op, left, right } => CKind::Binary {
                op: *op,
                left: c(left)?,
                right: c(right)?,
            },
            PhysExpr::Func { func, args } => CKind::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|a| CompiledExpr::compile(a, input))
                    .collect::<Result<_, _>>()?,
            },
            PhysExpr::Case {
                operand,
                whens,
                else_,
            } => CKind::Case {
                operand: operand.as_deref().map(c).transpose()?,
                whens: whens
                    .iter()
                    .map(|(w, t)| {
                        Ok::<_, CdwError>((
                            CompiledExpr::compile(w, input)?,
                            CompiledExpr::compile(t, input)?,
                        ))
                    })
                    .collect::<Result<_, _>>()?,
                else_: else_.as_deref().map(c).transpose()?,
            },
            PhysExpr::Cast {
                expr,
                dtype,
                strict,
            } => CKind::Cast {
                child: c(expr)?,
                target: *dtype,
                strict: *strict,
            },
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let child = c(expr)?;
                let list: Vec<CompiledExpr> = list
                    .iter()
                    .map(|l| CompiledExpr::compile(l, input))
                    .collect::<Result<_, _>>()?;
                let fast = build_fast_list(child.dtype, &list);
                CKind::InList {
                    child,
                    list,
                    negated: *negated,
                    fast,
                }
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => CKind::Between {
                child: c(expr)?,
                low: c(low)?,
                high: c(high)?,
                negated: *negated,
            },
            PhysExpr::IsNull { expr, negated } => CKind::IsNull {
                child: c(expr)?,
                negated: *negated,
            },
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let src = match pattern.as_ref() {
                    PhysExpr::Literal(Value::Text(p)) => LikeSrc::Compiled(LikePattern::compile(p)),
                    PhysExpr::Literal(_) => LikeSrc::NonText,
                    other => LikeSrc::Dynamic(c(other)?),
                };
                CKind::Like {
                    child: c(expr)?,
                    pattern: src,
                    negated: *negated,
                }
            }
        };
        Ok(CompiledExpr { kind, dtype })
    }

    /// The column type this expression materializes as.
    pub fn out_type(&self) -> DataType {
        self.dtype.unwrap_or(DataType::Text)
    }

    /// Evaluate over the selected rows of a batch (all rows when `sel` is
    /// `None`), producing one dense column in selection order.
    pub fn eval(
        &self,
        batch: &Batch,
        sel: Option<&[usize]>,
        ctx: &EvalCtx,
    ) -> Result<Column, CdwError> {
        let n = sel.map_or(batch.num_rows(), <[usize]>::len);
        match self.eval_cval(batch, sel, n, ctx)? {
            CVal::Col(c) => Ok(c),
            CVal::Scalar(v) => kernels::broadcast(&v, self.out_type(), n),
        }
    }

    /// The rows where this predicate is TRUE: the ids of `sel` (of every
    /// row when `None`) whose verdict is TRUE, in selection order — never
    /// a NULL or FALSE row, nor any row of a non-Bool predicate. This is
    /// the engine's one way to apply a predicate.
    ///
    /// An `AND` of column-vs-literal comparisons runs as selection steps
    /// ([`selection`]): conjunct by conjunct, left to right, each reading
    /// only the rows the ones before it kept, building no Bool column.
    /// Such a conjunction cannot raise an error, so narrowing changes no
    /// outcome. Any other predicate is evaluated whole over the incoming
    /// selection, so the same rows raise the same errors.
    pub fn select(
        &self,
        batch: &Batch,
        sel: Option<&[usize]>,
        ctx: &EvalCtx,
    ) -> Result<Vec<usize>, CdwError> {
        let mut conjuncts = Vec::new();
        self.conjuncts(&mut conjuncts);
        let steps: Option<Vec<_>> = conjuncts.iter().map(|c| c.step(batch)).collect();
        match steps {
            Some(steps) => Ok(selection::narrow(sel, batch.num_rows(), &steps)),
            None => self.select_evaluated(batch, sel, ctx),
        }
    }

    /// The conjuncts of an `AND` tree, left to right.
    fn conjuncts<'e>(&'e self, out: &mut Vec<&'e CompiledExpr>) {
        match &self.kind {
            CKind::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                left.conjuncts(out);
                right.conjuncts(out);
            }
            _ => out.push(self),
        }
    }

    /// This conjunct as a selection step, if it compares a column with a
    /// literal.
    fn step<'a>(&'a self, batch: &'a Batch) -> Option<selection::Step<'a>> {
        let CKind::Binary { op, left, right } = &self.kind else {
            return None;
        };
        if !is_comparison(*op) {
            return None;
        }
        match (&left.kind, &right.kind) {
            (CKind::Col(i), CKind::Literal(v)) => {
                selection::compare(*op, batch.column(*i), v, false)
            }
            (CKind::Literal(v), CKind::Col(i)) => {
                selection::compare(*op, batch.column(*i), v, true)
            }
            _ => None,
        }
    }

    /// The fallback leaf of [`Self::select`]: evaluate the predicate over
    /// the selection and keep the rows whose verdict is TRUE.
    fn select_evaluated(
        &self,
        batch: &Batch,
        sel: Option<&[usize]>,
        ctx: &EvalCtx,
    ) -> Result<Vec<usize>, CdwError> {
        let mask = self.eval(batch, sel, ctx)?;
        let orig = |i: usize| sel.map_or(i, |s| s[i]);
        let mut keep = Vec::new();
        match (mask.bools(), mask.validity()) {
            (Some(b), None) => keep.extend((0..b.len()).filter(|&i| b[i]).map(orig)),
            (Some(b), Some(m)) => keep.extend((0..b.len()).filter(|&i| m[i] && b[i]).map(orig)),
            // A non-bool predicate column is never TRUE.
            (None, _) => {}
        }
        Ok(keep)
    }

    /// A scalar result coerced the way storing it into this node's output
    /// column would coerce it (`Int -> Float`, `Date -> Timestamp`), so
    /// parent kernels dispatch on the same type they would see from a
    /// materialized column.
    fn coerce_scalar(&self, v: Value) -> Result<Value, CdwError> {
        materialize_value(v, self.dtype)
    }

    fn eval_cval(
        &self,
        batch: &Batch,
        sel: Option<&[usize]>,
        n: usize,
        ctx: &EvalCtx,
    ) -> Result<CVal, CdwError> {
        Ok(match &self.kind {
            CKind::Literal(v) => CVal::Scalar(v.clone()),
            CKind::Col(i) => {
                let col = batch.column(*i);
                CVal::Col(match sel {
                    Some(s) => col.take(s),
                    None => col.clone(),
                })
            }
            CKind::Unary { op, child } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                CVal::Col(kernels::unary(*op, &c, self.out_type(), n)?)
            }
            CKind::Binary { op, left, right } => {
                let l = left.eval_cval(batch, sel, n, ctx)?;
                let r = right.eval_cval(batch, sel, n, ctx)?;
                CVal::Col(kernels::binary(*op, &l, &r, self.out_type(), n)?)
            }
            CKind::Func { func, args } => {
                if n > 0 && args.iter().all(|a| matches!(a.kind, CKind::Literal(_))) {
                    // All-literal (including zero-arg) call: one evaluation,
                    // broadcast at materialization time.
                    let argv: Vec<Value> = args
                        .iter()
                        .map(|a| match &a.kind {
                            CKind::Literal(v) => v.clone(),
                            _ => unreachable!(),
                        })
                        .collect();
                    return Ok(CVal::Scalar(
                        self.coerce_scalar(eval_func_value(*func, &argv, ctx)?)?,
                    ));
                }
                if n == 0 {
                    return Ok(CVal::Col(kernels::empty(self.out_type())));
                }
                // Literal arguments stay scalars: a date unit or a search
                // string is resolved once per batch, not once per row.
                let argv: Vec<CVal> = args
                    .iter()
                    .map(|a| a.eval_cval(batch, sel, n, ctx))
                    .collect::<Result<_, _>>()?;
                if let Some(col) = kernels::func(*func, &argv, self.out_type(), n) {
                    return Ok(CVal::Col(col));
                }
                // No kernel for this function / operand types: one row at
                // a time through the scalar kernel.
                let mut b = ColumnBuilder::new(self.out_type(), n);
                let mut row: Vec<Value> = Vec::with_capacity(argv.len());
                for i in 0..n {
                    row.clear();
                    row.extend(argv.iter().map(|a| a.value_at(i)));
                    b.push(eval_func_value(*func, &row, ctx)?)
                        .map_err(CdwError::from)?;
                }
                CVal::Col(b.finish())
            }
            CKind::Case {
                operand,
                whens,
                else_,
            } => {
                // Columnar CASE evaluates every branch over all selected
                // rows and selects per row afterwards (as the engine
                // always has). Branch *values* are identical to the lazy
                // row interpreter; branch *errors* are not confined to
                // the rows that take the branch — only the strict-Cast
                // kernel can error on valid data, and compiled worksheet
                // SQL never plans it inside a CASE.
                let op_col = operand
                    .as_ref()
                    .map(|o| o.eval(batch, sel, ctx))
                    .transpose()?;
                let when_cols: Vec<(Column, Column)> = whens
                    .iter()
                    .map(|(w, t)| {
                        Ok::<_, CdwError>((w.eval(batch, sel, ctx)?, t.eval(batch, sel, ctx)?))
                    })
                    .collect::<Result<_, _>>()?;
                let else_col = else_
                    .as_ref()
                    .map(|e| e.eval(batch, sel, ctx))
                    .transpose()?;
                // Cells are read and written as borrowed scalars: a Text
                // branch copies bytes column to column, no `String` per row.
                let mut b = ColumnBuilder::new(self.out_type(), n);
                for i in 0..n {
                    let hit = when_cols.iter().find(|(w, _)| match &op_col {
                        Some(op) => {
                            let (ov, wv) = (op.value_ref(i), w.value_ref(i));
                            !ov.is_null()
                                && !wv.is_null()
                                && ov.total_cmp(wv) == std::cmp::Ordering::Equal
                        }
                        // Searched CASE: only a valid `true` takes the
                        // branch (a non-bool when-column never does).
                        None => matches!(w.value_ref(i), ValueRef::Bool(true)),
                    });
                    let result = match (hit, &else_col) {
                        (Some((_, t)), _) => t.value_ref(i),
                        (None, Some(e)) => e.value_ref(i),
                        (None, None) => ValueRef::Null,
                    };
                    b.push_ref(result).map_err(CdwError::from)?;
                }
                CVal::Col(b.finish())
            }
            CKind::Cast {
                child,
                target,
                strict,
            } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                match c {
                    CVal::Scalar(v) if n > 0 => match cast_value(v, *target) {
                        Ok(v) => CVal::Scalar(v),
                        Err(e) if *strict => return Err(CdwError::from(e)),
                        // TRY_CAST isolation: unconvertible cells are NULL.
                        Err(_) => CVal::Scalar(Value::Null),
                    },
                    CVal::Scalar(v) => CVal::Col(kernels::cast(
                        &kernels::broadcast(&v, child.out_type(), n)?,
                        *target,
                        *strict,
                    )?),
                    CVal::Col(col) => CVal::Col(kernels::cast(&col, *target, *strict)?),
                }
            }
            CKind::InList {
                child,
                list,
                negated,
                fast,
            } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                if n == 0 {
                    return Ok(CVal::Col(kernels::empty(DataType::Bool)));
                }
                if let Some(fast) = fast {
                    if let Some(col) = kernels::in_list_fast(&c, fast, *negated, n) {
                        return Ok(CVal::Col(col));
                    }
                }
                let list_vals: Vec<CVal> = list
                    .iter()
                    .map(|l| l.eval_cval(batch, sel, n, ctx))
                    .collect::<Result<_, _>>()?;
                let mut b = ColumnBuilder::new(DataType::Bool, n);
                for i in 0..n {
                    let v = c.value_at(i);
                    if v.is_null() {
                        b.push_null();
                        continue;
                    }
                    let mut found = false;
                    let mut saw_null = false;
                    for lv in &list_vals {
                        let lv = lv.value_at(i);
                        if lv.is_null() {
                            saw_null = true;
                        } else if v.sql_eq(&lv) {
                            found = true;
                            break;
                        }
                    }
                    let out = if found {
                        Some(!negated)
                    } else if saw_null {
                        None
                    } else {
                        Some(*negated)
                    };
                    match out {
                        Some(x) => b.push(Value::Bool(x)).map_err(CdwError::from)?,
                        None => b.push_null(),
                    }
                }
                CVal::Col(b.finish())
            }
            CKind::Between {
                child,
                low,
                high,
                negated,
            } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                let l = low.eval_cval(batch, sel, n, ctx)?;
                let h = high.eval_cval(batch, sel, n, ctx)?;
                CVal::Col(kernels::between(&c, &l, &h, *negated, n)?)
            }
            CKind::IsNull { child, negated } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                CVal::Col(kernels::is_null(&c, *negated, n))
            }
            CKind::Like {
                child,
                pattern,
                negated,
            } => {
                let c = child.eval_cval(batch, sel, n, ctx)?;
                if n == 0 {
                    return Ok(CVal::Col(kernels::empty(DataType::Bool)));
                }
                CVal::Col(match pattern {
                    LikeSrc::Compiled(p) => kernels::like_compiled(&c, p, *negated, n),
                    LikeSrc::NonText => Column::nulls(DataType::Bool, n),
                    LikeSrc::Dynamic(pe) => {
                        let p = pe.eval_cval(batch, sel, n, ctx)?;
                        kernels::like_dynamic(&c, &p, *negated, n)
                    }
                })
            }
        })
    }
}

fn is_comparison(op: BinOp) -> bool {
    use BinOp::*;
    matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq)
}

/// Pre-hash a literal IN-list when the operand type admits plain-equality
/// lookup (Int against all-Int literals, Text against all-Text). Mixed
/// numeric combinations fall back to `sql_eq` semantics at runtime.
fn build_fast_list(child_type: Option<DataType>, list: &[CompiledExpr]) -> Option<FastList> {
    match child_type? {
        DataType::Int => {
            let mut set = std::collections::HashSet::new();
            let mut saw_null = false;
            for item in list {
                match &item.kind {
                    CKind::Literal(Value::Int(x)) => {
                        set.insert(*x);
                    }
                    CKind::Literal(Value::Null) => saw_null = true,
                    _ => return None,
                }
            }
            Some(FastList::Ints { set, saw_null })
        }
        DataType::Text => {
            let mut set = std::collections::HashSet::new();
            let mut saw_null = false;
            for item in list {
                match &item.kind {
                    CKind::Literal(Value::Text(s)) => {
                        set.insert(s.clone());
                    }
                    CKind::Literal(Value::Null) => saw_null = true,
                    _ => return None,
                }
            }
            Some(FastList::Texts { set, saw_null })
        }
        _ => None,
    }
}
