//! Window function execution.
//!
//! Every row resolves to its partition through the row-key index, a
//! counting sort lays the rows out partition by partition in one flat
//! list, each partition's slice sorts in place by the window ordering,
//! and every call produces one value per row (scattered back to the
//! original row positions). `IGNORE NULLS` is supported for the
//! navigation functions — the engine feature behind the paper's
//! `FillDown` formula.
//!
//! Nothing here is per-row boxed: arguments are read as borrowed scalars,
//! and a call's output is **typed** (`WinOut`) — ranks, counts and
//! running sums are `Option<i64>`/`Option<f64>` vectors, navigation functions
//! (`LAG`/`LEAD`/`FIRST_VALUE`/`LAST_VALUE`/`NTH_VALUE`) emit the *source
//! row* their value comes from and the output column is one
//! [`Column::take_opt`] gather of the argument column. Only an aggregate
//! over an explicit non-running frame recomputes per row through
//! [`crate::exec::AggState`] and collects boxed results.
//!
//! `IGNORE NULLS` navigation never rescans a frame: the partition's
//! non-null argument positions are listed once and each row finds its
//! answer by binary search in that list.
//!
//! `compute_window` is the one entry point: expressions evaluate once
//! over the whole batch, and partitions sort/compute in parallel work
//! items through the executor's `par_map`, the items sized by
//! `crate::exec::ExecCtx::morsel_height` (one item of every partition
//! when execution is serial).

use std::cell::LazyCell;

use sigma_sql::{FrameBound, WindowFrame};
use sigma_value::hash::{KeyCols, KeyIndex};
use sigma_value::sort::{RowOrder, SortKey};
use sigma_value::{Batch, Column, ColumnBuilder, DataType, Value, ValueRef};

use crate::error::CdwError;
use crate::eval::{CompiledExpr, PhysExpr};
use crate::exec::pipeline::{byte_cost, InputShape};
use crate::exec::{coerce_column, eval_columns, par_map, AggState, ExecCtx, Meter};
use crate::plan::{AggFunc, WinFunc, WindowCall};

/// One work item's output, one entry per row in the item's
/// (partition-sorted) row order. Which variant a call produces is fixed
/// by its function ([`WinOut::for_call`]).
enum WinOut {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    /// The row whose argument value the output row takes (`None` = NULL).
    /// Rows `>= batch rows` address the LAG/LEAD default column.
    Src(Vec<Option<usize>>),
    /// Explicit-frame aggregates: finished [`AggState`]s.
    Boxed(Vec<Value>),
}

impl WinOut {
    fn for_call(call: &WindowCall, arg_type: Option<DataType>, rows: usize) -> WinOut {
        match &call.func {
            WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank | WinFunc::Ntile => {
                WinOut::Int(Vec::with_capacity(rows))
            }
            WinFunc::Lag
            | WinFunc::Lead
            | WinFunc::FirstValue
            | WinFunc::LastValue
            | WinFunc::NthValue => WinOut::Src(Vec::with_capacity(rows)),
            WinFunc::Agg(f) if !is_running(call, f) => WinOut::Boxed(Vec::with_capacity(rows)),
            WinFunc::Agg(AggFunc::Count | AggFunc::CountStar) => {
                WinOut::Int(Vec::with_capacity(rows))
            }
            // Running SUM keeps Int-ness over Int columns (matches the
            // planner's output type).
            WinFunc::Agg(AggFunc::Sum) if arg_type == Some(DataType::Int) => {
                WinOut::Int(Vec::with_capacity(rows))
            }
            WinFunc::Agg(_) => WinOut::Float(Vec::with_capacity(rows)),
        }
    }

    fn push_int(&mut self, v: Option<i64>) {
        let WinOut::Int(vals) = self else {
            unreachable!("window output kind is fixed per call")
        };
        vals.push(v);
    }

    fn push_float(&mut self, v: Option<f64>) {
        let WinOut::Float(vals) = self else {
            unreachable!("window output kind is fixed per call")
        };
        vals.push(v);
    }

    fn push_src(&mut self, row: Option<usize>) {
        let WinOut::Src(src) = self else {
            unreachable!("window output kind is fixed per call")
        };
        src.push(row);
    }
}

/// Rows laid out partition by partition: `flat[bounds[g]..bounds[g + 1]]`
/// are partition `g`'s rows, ascending; partitions are numbered in
/// first-seen order. No partition keys = one partition of every row.
fn partition_rows(part_cols: &[Column], rows: usize) -> (Vec<usize>, Vec<usize>) {
    if part_cols.is_empty() {
        return ((0..rows).collect(), vec![0, rows]);
    }
    let refs: Vec<&Column> = part_cols.iter().collect();
    let keys = KeyCols::new(&refs);
    let mut index = KeyIndex::new();
    let mut gids = Vec::with_capacity(rows);
    // Counting sort: sizes, then running offsets, then placement.
    let mut bounds = vec![0usize];
    for row in 0..rows {
        let (g, new) = index.intern_row(&keys, row);
        if new {
            bounds.push(0);
        }
        bounds[g + 1] += 1;
        gids.push(g);
    }
    for g in 1..bounds.len() {
        bounds[g] += bounds[g - 1];
    }
    let mut next = bounds.clone();
    let mut flat = vec![0usize; rows];
    for (row, &g) in gids.iter().enumerate() {
        flat[next[g]] = row;
        next[g] += 1;
    }
    (flat, bounds)
}

/// Compute one window call over a batch, returning the appended column.
/// The call's partition / order / argument evaluation time and its work
/// item count (as `morsels`) record into the Window operator's `meter`.
///
/// * **Expression evaluation** (partition / order / argument columns)
///   is one pass over the whole batch.
/// * **Partitioning** is one pass over those key columns
///   (`partition_rows`): first-seen partition order and ascending row
///   lists by construction.
/// * **Per-partition sort + compute** runs in parallel over work items
///   of whole consecutive partitions, each about a morsel tall (so one
///   giant partition of a skewed input is its own item), claimed largest
///   first by byte share. An item sorts its slice of the flat row list
///   in place and returns typed values in that order; they scatter into
///   disjoint row sets, so write order is irrelevant, and every value
///   comes from the same `compute_partition` sequence however the items
///   were cut.
pub(crate) fn compute_window(
    call: &WindowCall,
    batch: &Batch,
    out_type: DataType,
    ctx: &ExecCtx,
    meter: &Meter,
) -> Result<Column, CdwError> {
    let rows = batch.num_rows();
    if rows == 0 {
        // No rows, no partitions (the navigation functions read their
        // constant arguments off a partition's first row).
        return Ok(ColumnBuilder::new(out_type, 0).finish());
    }
    let types: Vec<DataType> = batch.schema().fields().iter().map(|f| f.dtype).collect();
    fn compile<'e>(
        exprs: impl Iterator<Item = &'e PhysExpr>,
        types: &[DataType],
    ) -> Result<Vec<CompiledExpr>, CdwError> {
        exprs.map(|e| CompiledExpr::compile(e, types)).collect()
    }
    let cpart = compile(call.partition.iter(), &types)?;
    let corder = compile(call.order.iter().map(|o| &o.expr), &types)?;
    let carg = compile(call.args.iter(), &types)?;

    let [part_cols, order_cols, arg_cols] = meter.timed(|| {
        let eval = |exprs: &[CompiledExpr]| eval_columns(exprs, batch, &ctx.eval);
        Ok::<_, CdwError>([eval(&cpart)?, eval(&corder)?, eval(&carg)?])
    })?;

    let (mut flat, bounds) = partition_rows(&part_cols, rows);
    let sort_keys: Vec<SortKey> = call
        .order
        .iter()
        .map(|o| SortKey {
            descending: o.descending,
            nulls_last: o.nulls_last.unwrap_or(o.descending),
        })
        .collect();
    let order_refs: Vec<&Column> = order_cols.iter().collect();
    let order = RowOrder::new(&order_refs, &sort_keys);

    // Work items: runs of whole partitions, each at least `height` rows
    // unless the partitions run out. An item carries its partitions'
    // bounds (relative to its own slice of `flat`).
    let height = ctx.morsel_height(|| InputShape::of_batches([batch]));
    let mut items: Vec<(&mut [usize], Vec<usize>)> = Vec::new();
    let mut rest = flat.as_mut_slice();
    let mut g = 0;
    while g + 1 < bounds.len() {
        let start = bounds[g];
        let mut cuts = vec![0];
        while g + 1 < bounds.len() && (cuts.len() == 1 || bounds[g] - start < height) {
            g += 1;
            cuts.push(bounds[g] - start);
        }
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(bounds[g] - start);
        items.push((head, cuts));
        rest = tail;
    }
    meter.morsels.add(items.len());
    let total_bytes = LazyCell::new(|| batch.byte_size());
    let arg_type = arg_cols.first().map(Column::dtype);
    let outputs: Vec<WinOut> = par_map(
        ctx,
        items,
        |(p, _)| byte_cost(p.len(), *total_bytes, rows),
        |(item_rows, cuts)| {
            let mut out = WinOut::for_call(call, arg_type, item_rows.len());
            let mut non_null = Vec::new();
            for w in cuts.windows(2) {
                let p = &mut item_rows[w[0]..w[1]];
                if !order_refs.is_empty() {
                    order.sort(p);
                }
                compute_partition(call, p, &arg_cols, &order, rows, &mut non_null, &mut out);
            }
            Ok(out)
        },
    )?;

    // `flat` now lists every item's rows in the order its output was
    // produced: scatter back to row positions.
    macro_rules! scattered {
        ($variant:ident, $fill:expr) => {{
            let mut all = vec![$fill; rows];
            let mut at = flat.iter();
            for out in outputs {
                let WinOut::$variant(vals) = out else {
                    unreachable!("window output kind is fixed per call")
                };
                for (v, &row) in vals.into_iter().zip(&mut at) {
                    all[row] = v;
                }
            }
            all
        }};
    }
    let col = match outputs.first() {
        Some(WinOut::Int(_)) => Column::from_opt_ints(scattered!(Int, None)),
        Some(WinOut::Float(_)) => Column::from_opt_floats(scattered!(Float, None)),
        Some(WinOut::Src(_)) => {
            let src = scattered!(Src, None);
            // LAG/LEAD with a default read it from `rows + current row`.
            let values = coerce_column(arg_cols[0].clone(), out_type)?;
            match arg_cols.get(2) {
                Some(default) if matches!(call.func, WinFunc::Lag | WinFunc::Lead) => {
                    let default = coerce_column(default.clone(), out_type)?;
                    Column::concat(&[&values, &default])?.take_opt(&src)
                }
                _ => values.take_opt(&src),
            }
        }
        Some(WinOut::Boxed(_)) => {
            let mut b = ColumnBuilder::new(out_type, rows);
            for v in scattered!(Boxed, Value::Null) {
                b.push(v).map_err(CdwError::from)?;
            }
            b.finish()
        }
        None => unreachable!("a non-empty batch has a partition"),
    };
    coerce_column(col, out_type)
}

/// Effective ROWS frame for a call: explicit, else running when ordered,
/// else the whole partition.
fn effective_frame(call: &WindowCall) -> WindowFrame {
    call.frame.unwrap_or({
        if call.order.is_empty() {
            WindowFrame {
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::UnboundedFollowing,
            }
        } else {
            WindowFrame {
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::CurrentRow,
            }
        }
    })
}

fn frame_range(frame: &WindowFrame, i: usize, n: usize) -> (usize, usize) {
    let start = match frame.start {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => i.saturating_sub(k as usize),
        FrameBound::CurrentRow => i,
        FrameBound::Following(k) => (i + k as usize).min(n),
        FrameBound::UnboundedFollowing => n,
    };
    let end = match frame.end {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => (i + 1).saturating_sub(k as usize),
        FrameBound::CurrentRow => i + 1,
        FrameBound::Following(k) => (i + 1 + k as usize).min(n),
        FrameBound::UnboundedFollowing => n,
    };
    (start.min(n), end.min(n).max(start.min(n)))
}

/// Is this aggregate call the running frame (`UNBOUNDED PRECEDING ->
/// CURRENT ROW`) of a function that accumulates incrementally?
fn is_running(call: &WindowCall, f: &AggFunc) -> bool {
    let frame = effective_frame(call);
    frame.start == FrameBound::UnboundedPreceding
        && frame.end == FrameBound::CurrentRow
        && matches!(
            f,
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count | AggFunc::CountStar
        )
}

/// Append one sorted partition's output values to `out`, in `part` order.
/// `non_null` is scratch (the partition's non-null argument positions,
/// for `IGNORE NULLS`); `rows` is the batch height.
fn compute_partition(
    call: &WindowCall,
    part: &[usize],
    arg_cols: &[Column],
    order: &RowOrder<'_>,
    rows: usize,
    non_null: &mut Vec<usize>,
    out: &mut WinOut,
) {
    let n = part.len();
    let arg = |slot: usize, pos: usize| -> ValueRef<'_> { arg_cols[slot].value_ref(part[pos]) };
    if call.ignore_nulls && !arg_cols.is_empty() {
        non_null.clear();
        non_null.extend((0..n).filter(|&j| !arg_cols[0].is_null(part[j])));
    }
    // Partition positions before `i` / below `e` holding a non-null
    // argument, as an index into `non_null`.
    let non_null_below = |e: usize| non_null.partition_point(|&j| j < e);
    match &call.func {
        WinFunc::RowNumber => {
            for i in 0..n {
                out.push_int(Some(i as i64 + 1));
            }
        }
        WinFunc::Rank | WinFunc::DenseRank => {
            let dense = matches!(call.func, WinFunc::DenseRank);
            let mut rank = 0i64;
            let mut dense_rank = 0i64;
            for i in 0..n {
                let is_peer =
                    i > 0 && order.compare(part[i - 1], part[i]) == std::cmp::Ordering::Equal;
                if !is_peer {
                    rank = i as i64 + 1;
                    dense_rank += 1;
                }
                out.push_int(Some(if dense { dense_rank } else { rank }));
            }
        }
        WinFunc::Ntile => {
            let buckets = call
                .args
                .first()
                .and_then(|_| arg(0, 0).as_i64())
                .unwrap_or(1)
                .max(1) as usize;
            // SQL NTILE: first (n % buckets) buckets get one extra row.
            let base = n / buckets;
            let extra = n % buckets;
            let mut i = 0usize;
            for b in 0..buckets {
                let size = base + usize::from(b < extra);
                for _ in 0..size {
                    if i < n {
                        out.push_int(Some(b as i64 + 1));
                        i += 1;
                    }
                }
            }
        }
        WinFunc::Lag | WinFunc::Lead => {
            let lag = matches!(call.func, WinFunc::Lag);
            let offset = if call.args.len() > 1 {
                arg(1, 0).as_i64().unwrap_or(1)
            } else {
                1
            };
            for i in 0..n {
                let pos = if call.ignore_nulls {
                    // The offset-th non-null value before/after this row
                    // (none for offsets below 1).
                    let k = usize::try_from(offset).ok().filter(|&k| k > 0);
                    k.and_then(|k| {
                        if lag {
                            non_null_below(i).checked_sub(k)
                        } else {
                            Some(non_null_below(i + 1) + k - 1)
                        }
                    })
                    .and_then(|at| non_null.get(at).copied())
                } else {
                    let target = if lag {
                        i as i64 - offset
                    } else {
                        i as i64 + offset
                    };
                    usize::try_from(target).ok().filter(|&t| t < n)
                };
                let found = pos.filter(|&pos| !arg_cols[0].is_null(part[pos]));
                out.push_src(match found {
                    Some(pos) => Some(part[pos]),
                    // NULL result: the default argument, read at this row.
                    None => (call.args.len() > 2).then_some(rows + part[i]),
                });
            }
        }
        WinFunc::FirstValue | WinFunc::LastValue | WinFunc::NthValue => {
            let frame = effective_frame(call);
            for i in 0..n {
                let (s, e) = frame_range(&frame, i, n);
                // With IGNORE NULLS the frame is its slice of `non_null`.
                let (s, e) = if call.ignore_nulls {
                    (non_null_below(s), non_null_below(e))
                } else {
                    (s, e)
                };
                let at = match call.func {
                    WinFunc::FirstValue => (s < e).then_some(s),
                    WinFunc::LastValue => (s < e).then(|| e - 1),
                    _ => {
                        let k = arg(1, i).as_i64().unwrap_or(1).max(1) as usize;
                        (s + k <= e).then(|| s + k - 1)
                    }
                };
                let pos = at.map(|at| if call.ignore_nulls { non_null[at] } else { at });
                out.push_src(pos.map(|pos| part[pos]));
            }
        }
        WinFunc::Agg(f) if is_running(call, f) => {
            // Incremental running accumulation.
            let int_sum = matches!(out, WinOut::Int(_));
            let mut sum = 0.0f64;
            let mut isum = 0i64;
            let mut count = 0i64;
            for i in 0..n {
                if matches!(f, AggFunc::CountStar) {
                    count += 1;
                } else {
                    let v = arg(0, i);
                    if !v.is_null() {
                        count += 1;
                    }
                    if let (ValueRef::Int(x), true) = (v, int_sum) {
                        isum = isum.wrapping_add(x);
                    } else if let Some(x) = v.as_f64() {
                        sum += x;
                    }
                }
                match f {
                    AggFunc::Count | AggFunc::CountStar => out.push_int(Some(count)),
                    AggFunc::Sum if int_sum => out.push_int((count > 0).then_some(isum)),
                    AggFunc::Sum => out.push_float((count > 0).then_some(sum)),
                    _ => out.push_float((count > 0).then(|| sum / count as f64)),
                }
            }
        }
        WinFunc::Agg(f) => {
            // Explicit frame: recompute per row.
            let WinOut::Boxed(vals) = out else {
                unreachable!("window output kind is fixed per call")
            };
            let frame = effective_frame(call);
            for i in 0..n {
                let (s, e) = frame_range(&frame, i, n);
                // Preserve Int-ness of SUM over Int columns (matches
                // the planner's output type).
                let mut state = AggState::new_for(f, arg_cols.first().map(|c| c.dtype()));
                for j in s..e {
                    if matches!(f, AggFunc::CountStar) {
                        state.update(ValueRef::Int(1));
                    } else {
                        state.update(arg(0, j));
                    }
                }
                vals.push(state.finish());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sigma_value::{Batch, Column, DataType, Field, Schema, Value};

    use crate::Warehouse;

    /// `IGNORE NULLS` navigation answers from the partition's non-null
    /// position list instead of rescanning the frame per row. One 20k-row
    /// partition, null except every 500th row, against the naive per-row
    /// scan — running, sliding and offset forms.
    #[test]
    fn ignore_nulls_navigation_matches_naive_scan() {
        const N: usize = 20_000;
        let vals: Vec<Option<i64>> = (0..N as i64)
            .map(|i| (i % 500 == 250).then_some(i * 10))
            .collect();
        let wh = Warehouse::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let cols = vec![
            Column::from_ints((0..N as i64).collect()),
            Column::from_opt_ints(vals.clone()),
        ];
        wh.load_table("t", Batch::new(schema, cols).unwrap())
            .unwrap();

        // Non-null values of `vals[s..e]`, in order.
        let frame = |s: usize, e: usize| vals[s..e.min(N)].iter().flatten().copied();
        type Naive<'a> = Box<dyn Fn(usize) -> Option<i64> + 'a>;
        let running = "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW";
        let sliding = "ROWS BETWEEN 600 PRECEDING AND 100 FOLLOWING";
        let cases: Vec<(String, Naive)> = vec![
            (
                format!("LAST_VALUE(v) IGNORE NULLS OVER (ORDER BY i {running})"),
                Box::new(|i| frame(0, i + 1).last()),
            ),
            (
                format!("FIRST_VALUE(v) IGNORE NULLS OVER (ORDER BY i {running})"),
                Box::new(|i| frame(0, i + 1).next()),
            ),
            (
                format!("NTH_VALUE(v, 2) IGNORE NULLS OVER (ORDER BY i {running})"),
                Box::new(|i| frame(0, i + 1).nth(1)),
            ),
            (
                format!("LAST_VALUE(v) IGNORE NULLS OVER (ORDER BY i {sliding})"),
                Box::new(|i| frame(i.saturating_sub(600), i + 101).last()),
            ),
            (
                format!("FIRST_VALUE(v) IGNORE NULLS OVER (ORDER BY i {sliding})"),
                Box::new(|i| frame(i.saturating_sub(600), i + 101).next()),
            ),
            (
                "LAG(v, 2) IGNORE NULLS OVER (ORDER BY i)".to_string(),
                Box::new(|i| vals[..i].iter().rev().flatten().copied().nth(1)),
            ),
            (
                "LEAD(v, 1) IGNORE NULLS OVER (ORDER BY i)".to_string(),
                Box::new(|i| frame(i + 1, N).next()),
            ),
        ];
        for (call, naive) in &cases {
            let sql = format!("SELECT i, {call} AS w FROM t ORDER BY i");
            let got = wh.execute_sql(&sql).unwrap().batch;
            assert_eq!(got.num_rows(), N);
            for i in 0..N {
                let want = naive(i).map_or(Value::Null, Value::Int);
                assert_eq!(got.value(i, 1), want, "{call} at row {i}");
            }
        }
    }
}
