//! Window function execution.
//!
//! Partitions are hash-built, each partition sorted by the window ordering,
//! then every call produces one value per row (placed back at the original
//! row positions). `IGNORE NULLS` is supported for the navigation functions
//! — the engine feature behind the paper's `FillDown` formula.
//!
//! [`compute_window`] is the one entry point: expressions evaluate per
//! morsel and partitions sort/compute in parallel on the executor's
//! work-stealing scheduler, with the morsel height decided by
//! [`crate::exec::ExecCtx::morsel_height`] like every other operator (one
//! whole-batch morsel when execution is serial).

use std::cell::LazyCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sigma_sql::{FrameBound, WindowFrame};
use sigma_value::{hash, sort, Batch, Column, ColumnBuilder, DataType, Value};

use crate::error::CdwError;
use crate::eval::CompiledExpr;
use crate::exec::pipeline::{byte_cost, concat_morsel_columns, range_chunks, InputShape};
use crate::exec::{par_map, timed, ExecCtx};
use crate::plan::{AggFunc, WinFunc, WindowCall};

/// Compute one window call over a batch, returning the appended column.
/// `eval_ns` accumulates the nanoseconds spent evaluating the call's
/// partition / order / argument expressions (per-operator stats).
///
/// * **Expression evaluation** (partition / order / argument columns)
///   runs per morsel on the work-stealing scheduler; the per-morsel
///   columns concatenate to the same whole-batch columns one evaluation
///   pass produces (elementwise kernels).
/// * **Partition-key groups** build per morsel; merging the per-morsel
///   groups *sequentially in morsel order* reproduces the whole-batch
///   first-seen partition order, and each partition's row list stays
///   ascending (morsels are ascending disjoint ranges).
/// * **Per-partition sort + compute** runs partition-parallel, LPT-seeded
///   by each partition's byte share so the one giant partition of a
///   skewed input starts first. Workers return `(row, value)` pairs that
///   scatter into disjoint row sets, so write order is irrelevant; every
///   value comes from the same [`compute_partition`] sequence however
///   the batch was cut.
pub fn compute_window(
    call: &WindowCall,
    batch: &Batch,
    out_type: DataType,
    ctx: &ExecCtx,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Column, CdwError> {
    let rows = batch.num_rows();
    if rows == 0 {
        // No rows, no partitions (the navigation functions read their
        // constant arguments off a partition's first row).
        return Ok(ColumnBuilder::new(out_type, 0).finish());
    }
    let types: Vec<DataType> = batch.schema().fields().iter().map(|f| f.dtype).collect();
    let cpart: Vec<CompiledExpr> = call
        .partition
        .iter()
        .map(|p| CompiledExpr::compile(p, &types))
        .collect::<Result<_, _>>()?;
    let corder: Vec<CompiledExpr> = call
        .order
        .iter()
        .map(|o| CompiledExpr::compile(&o.expr, &types))
        .collect::<Result<_, _>>()?;
    let carg: Vec<CompiledExpr> = call
        .args
        .iter()
        .map(|a| CompiledExpr::compile(a, &types))
        .collect::<Result<_, _>>()?;

    let chunks = range_chunks(rows, ctx.morsel_height(|| InputShape::of_batches([batch])));
    morsels_out.fetch_add(chunks.len(), Ordering::Relaxed);

    /// One morsel's evaluated columns plus its first-seen partition-key
    /// groups (global row ids).
    struct ChunkEval {
        order: Vec<Column>,
        args: Vec<Column>,
        groups: Vec<(Vec<u8>, Vec<usize>)>,
    }
    let total_bytes = LazyCell::new(|| batch.byte_size());
    let evaled: Vec<ChunkEval> = par_map(
        ctx,
        chunks,
        |r| byte_cost(r.len(), *total_bytes, rows),
        |r| {
            let base = r.start;
            let len = r.len();
            let sel: Option<Vec<usize>> = if r.start == 0 && r.end == rows {
                None
            } else {
                Some(r.collect())
            };
            let sel = sel.as_deref();
            type Cols = (Vec<Column>, Vec<Column>, Vec<Column>);
            let (part, order, args): Cols = timed(eval_ns, || {
                let part = cpart
                    .iter()
                    .map(|e| e.eval(batch, sel, &ctx.eval))
                    .collect::<Result<Vec<_>, _>>()?;
                let order = corder
                    .iter()
                    .map(|e| e.eval(batch, sel, &ctx.eval))
                    .collect::<Result<Vec<_>, _>>()?;
                let args = carg
                    .iter()
                    .map(|e| e.eval(batch, sel, &ctx.eval))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok::<_, CdwError>((part, order, args))
            })?;
            let mut groups: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
            if !part.is_empty() {
                let refs: Vec<&Column> = part.iter().collect();
                let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
                let mut key = Vec::new();
                for i in 0..len {
                    key.clear();
                    hash::encode_key(&refs, i, &mut key);
                    let next = groups.len();
                    let slot = *index.entry(key.clone()).or_insert(next);
                    if slot == groups.len() {
                        groups.push((key.clone(), Vec::new()));
                    }
                    groups[slot].1.push(base + i);
                }
            }
            Ok(ChunkEval {
                order,
                args,
                groups,
            })
        },
    )?;

    // Merge per-morsel partition groups sequentially in morsel order —
    // the whole-batch first-seen order, with ascending row lists.
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let (mut orders, mut args) = (Vec::new(), Vec::new());
    for ce in evaled {
        orders.push(ce.order);
        args.push(ce.args);
        for (key, grows) in ce.groups {
            let slot = *index.entry(key).or_insert(partitions.len());
            if slot == partitions.len() {
                partitions.push(grows);
            } else {
                partitions[slot].extend(grows);
            }
        }
    }
    if cpart.is_empty() {
        partitions.push((0..rows).collect());
    }
    // Per-morsel order/argument columns concatenate to whole-batch ones.
    let order_cols = concat_morsel_columns(orders)?;
    let arg_cols = concat_morsel_columns(args)?;

    let sort_keys: Vec<sort::SortKey> = call
        .order
        .iter()
        .map(|o| sort::SortKey {
            descending: o.descending,
            nulls_last: o.nulls_last.unwrap_or(o.descending),
        })
        .collect();
    let order_refs: Vec<&Column> = order_cols.iter().collect();
    let outputs: Vec<Vec<(usize, Value)>> = par_map(
        ctx,
        partitions,
        |p| byte_cost(p.len(), *total_bytes, rows),
        |mut p| {
            if !order_refs.is_empty() {
                sort::sort_subset(&order_refs, &sort_keys, &mut p);
            }
            let mut vals: Vec<(usize, Value)> = Vec::with_capacity(p.len());
            compute_partition(
                call,
                &p,
                &arg_cols,
                &order_refs,
                &sort_keys,
                &mut |row, v| vals.push((row, v)),
            )?;
            Ok(vals)
        },
    )?;
    let mut out: Vec<Value> = vec![Value::Null; rows];
    for vals in outputs {
        for (row, v) in vals {
            out[row] = v;
        }
    }
    let mut b = ColumnBuilder::new(out_type, rows);
    for v in out {
        b.push(v).map_err(CdwError::from)?;
    }
    Ok(b.finish())
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

fn compute_partition(
    call: &WindowCall,
    part: &[usize],
    arg_cols: &[Column],
    order_refs: &[&Column],
    sort_keys: &[sort::SortKey],
    emit: &mut dyn FnMut(usize, Value),
) -> Result<(), CdwError> {
    let n = part.len();
    let arg = |slot: usize, pos: usize| -> Value { arg_cols[slot].value(part[pos]) };
    match &call.func {
        WinFunc::RowNumber => {
            for (i, &row) in part.iter().enumerate() {
                emit(row, Value::Int(i as i64 + 1));
            }
        }
        WinFunc::Rank | WinFunc::DenseRank => {
            let dense = matches!(call.func, WinFunc::DenseRank);
            let mut rank = 0i64;
            let mut dense_rank = 0i64;
            for (i, &row) in part.iter().enumerate() {
                let is_peer = i > 0
                    && sort::compare_rows(order_refs, sort_keys, part[i - 1], part[i])
                        == std::cmp::Ordering::Equal;
                if !is_peer {
                    rank = i as i64 + 1;
                    dense_rank += 1;
                }
                emit(row, Value::Int(if dense { dense_rank } else { rank }));
            }
        }
        WinFunc::Ntile => {
            let buckets = call
                .args
                .first()
                .and_then(|_| arg_cols[0].value(part[0]).as_i64())
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
                        emit(part[i], Value::Int(b as i64 + 1));
                        i += 1;
                    }
                }
            }
        }
        WinFunc::Lag | WinFunc::Lead => {
            let offset = if call.args.len() > 1 {
                arg_cols[1].value(part[0]).as_i64().unwrap_or(1)
            } else {
                1
            };
            for (i, &row) in part.iter().enumerate() {
                let target = if matches!(call.func, WinFunc::Lag) {
                    i as i64 - offset
                } else {
                    i as i64 + offset
                };
                let v = if call.ignore_nulls {
                    // Nth non-null value before/after the current row.
                    let mut remaining = offset.max(0);
                    let mut found = Value::Null;
                    if matches!(call.func, WinFunc::Lag) {
                        for j in (0..i).rev() {
                            if !arg(0, j).is_null() {
                                remaining -= 1;
                                if remaining == 0 {
                                    found = arg(0, j);
                                    break;
                                }
                            }
                        }
                    } else {
                        for j in i + 1..n {
                            if !arg(0, j).is_null() {
                                remaining -= 1;
                                if remaining == 0 {
                                    found = arg(0, j);
                                    break;
                                }
                            }
                        }
                    }
                    found
                } else if target >= 0 && (target as usize) < n {
                    arg(0, target as usize)
                } else {
                    Value::Null
                };
                let v = if v.is_null() && call.args.len() > 2 {
                    arg(2, i)
                } else {
                    v
                };
                emit(row, v);
            }
        }
        WinFunc::FirstValue | WinFunc::LastValue | WinFunc::NthValue => {
            let frame = effective_frame(call);
            for (i, &row) in part.iter().enumerate() {
                let (s, e) = frame_range(&frame, i, n);
                let v = match call.func {
                    WinFunc::FirstValue => {
                        if call.ignore_nulls {
                            (s..e).map(|j| arg(0, j)).find(|v| !v.is_null())
                        } else {
                            (s < e).then(|| arg(0, s))
                        }
                    }
                    WinFunc::LastValue => {
                        if call.ignore_nulls {
                            (s..e).rev().map(|j| arg(0, j)).find(|v| !v.is_null())
                        } else {
                            (s < e).then(|| arg(0, e - 1))
                        }
                    }
                    WinFunc::NthValue => {
                        let k = arg_cols[1].value(row).as_i64().unwrap_or(1).max(1) as usize;
                        if call.ignore_nulls {
                            (s..e)
                                .map(|j| arg(0, j))
                                .filter(|v| !v.is_null())
                                .nth(k - 1)
                        } else {
                            (s + k <= e).then(|| arg(0, s + k - 1))
                        }
                    }
                    _ => unreachable!(),
                };
                emit(row, v.unwrap_or(Value::Null));
            }
        }
        WinFunc::Agg(f) => {
            let frame = effective_frame(call);
            let running = frame.start == FrameBound::UnboundedPreceding
                && frame.end == FrameBound::CurrentRow;
            if running
                && matches!(
                    f,
                    AggFunc::Sum | AggFunc::Avg | AggFunc::Count | AggFunc::CountStar
                )
            {
                // Incremental running accumulation.
                let mut sum = 0.0f64;
                let mut isum = 0i64;
                let mut count = 0i64;
                let mut any = false;
                let is_int = arg_cols
                    .first()
                    .map(|c| c.dtype() == DataType::Int)
                    .unwrap_or(false);
                for (i, &row) in part.iter().enumerate() {
                    if matches!(f, AggFunc::CountStar) {
                        count += 1;
                    } else {
                        let v = arg(0, i);
                        if !v.is_null() {
                            count += 1;
                            any = true;
                            if let Some(x) = v.as_f64() {
                                sum += x;
                            }
                            if let Some(x) = v.as_i64() {
                                isum += x;
                            }
                        }
                    }
                    emit(
                        row,
                        match f {
                            AggFunc::Count | AggFunc::CountStar => Value::Int(count),
                            AggFunc::Sum => {
                                if !any {
                                    Value::Null
                                } else if is_int {
                                    Value::Int(isum)
                                } else {
                                    Value::Float(sum)
                                }
                            }
                            AggFunc::Avg => {
                                if count == 0 {
                                    Value::Null
                                } else {
                                    Value::Float(sum / count as f64)
                                }
                            }
                            _ => unreachable!(),
                        },
                    );
                }
            } else {
                // General frame: recompute per row.
                for (i, &row) in part.iter().enumerate() {
                    let (s, e) = frame_range(&frame, i, n);
                    // Preserve Int-ness of SUM over Int columns (matches
                    // the planner's output type).
                    let mut state =
                        crate::exec::AggState::new_for(f, arg_cols.first().map(|c| c.dtype()));
                    for j in s..e {
                        if matches!(f, AggFunc::CountStar) {
                            state.update(&Value::Int(1));
                        } else {
                            state.update(&arg(0, j));
                        }
                    }
                    emit(row, state.finish());
                }
            }
        }
    }
    Ok(())
}
