//! Rule-based logical optimizer.
//!
//! Three rewrites, applied to fixpoint-ish (one bottom-up pass each, in
//! order, which suffices for the shapes the compiler emits):
//!
//! 1. **Constant folding** — column-free subexpressions evaluate at plan
//!    time (using the session clock, so `CURRENT_DATE` folds too).
//! 2. **Predicate pushdown** — filters slide through projections, sorts,
//!    unions, and into the inner side(s) of joins.
//! 3. **Projection pruning** — scans materialize only the columns the rest
//!    of the plan consumes (a narrow `Project` is inserted over the scan),
//!    and a column-selecting `Project` folds into the `Project` above it.

use std::sync::Arc;

use sigma_sql::JoinKind;
use sigma_value::{Batch, DataType, Field, Schema};

use crate::error::CdwError;
use crate::eval::{self, EvalCtx, PhysExpr};
use crate::plan::Plan;

/// Run all rules over a plan.
pub fn optimize(plan: Plan, ctx: &EvalCtx) -> Result<Plan, CdwError> {
    let plan = fold_constants_plan(plan, ctx)?;
    let plan = push_down_filters(plan)?;
    prune_scan_columns(plan)
}

// ---------------------------------------------------------------------
// constant folding
// ---------------------------------------------------------------------

fn fold_constants_plan(plan: Plan, ctx: &EvalCtx) -> Result<Plan, CdwError> {
    let mut plan = plan.map_inputs(|p| fold_constants_plan(p, ctx))?;
    plan.for_each_expr_mut(&mut |e| fold_expr(e, ctx));
    Ok(plan)
}

/// Fold an expression in place if it references no columns (and isn't
/// already a literal), else fold its children so partially constant trees
/// shrink. Folding errors are ignored — the expression stays as-is and any
/// real error surfaces at execution.
fn fold_expr(expr: &mut PhysExpr, ctx: &EvalCtx) {
    match try_fold(expr, ctx) {
        Some(lit) => *expr = lit,
        None => expr.for_each_child_mut(&mut |c| fold_expr(c, ctx)),
    }
}

fn try_fold(expr: &PhysExpr, ctx: &EvalCtx) -> Option<PhysExpr> {
    if matches!(expr, PhysExpr::Literal(_) | PhysExpr::Col(_)) {
        return None;
    }
    let mut cols = Vec::new();
    expr.columns_used(&mut cols);
    if !cols.is_empty() {
        return None;
    }
    let schema = Arc::new(Schema::new(vec![Field::new("$fold", DataType::Int)]));
    let batch = Batch::new(schema, vec![sigma_value::Column::from_ints(vec![0])]).ok()?;
    let col = eval::eval(expr, &batch, ctx).ok()?;
    Some(PhysExpr::Literal(col.value(0)))
}

// ---------------------------------------------------------------------
// predicate pushdown
// ---------------------------------------------------------------------

fn push_down_filters(plan: Plan) -> Result<Plan, CdwError> {
    match plan {
        Plan::Filter { input, predicate } => {
            push_filter_into(push_down_filters(*input)?, predicate)
        }
        other => other.map_inputs(push_down_filters),
    }
}

/// Push one predicate as deep as legal over the (already pushed-down) input.
fn push_filter_into(input: Plan, predicate: PhysExpr) -> Result<Plan, CdwError> {
    match input {
        // Filter(Project(x)) => Project(Filter'(x)) with the predicate
        // rewritten through the projection.
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            if let Some(rewritten) = substitute_through_projection(&predicate, &exprs) {
                let pushed = push_filter_into(*input, rewritten)?;
                Ok(Plan::Project {
                    input: Box::new(pushed),
                    exprs,
                    schema,
                })
            } else {
                Ok(Plan::Filter {
                    input: Box::new(Plan::Project {
                        input,
                        exprs,
                        schema,
                    }),
                    predicate,
                })
            }
        }
        // Filter(Sort(x)) => Sort(Filter(x)).
        Plan::Sort { input, keys } => {
            let pushed = push_filter_into(*input, predicate)?;
            Ok(Plan::Sort {
                input: Box::new(pushed),
                keys,
            })
        }
        // Filter(UnionAll(xs)) => UnionAll(Filter(x) for x in xs).
        Plan::UnionAll { inputs, schema } => {
            let inputs = inputs
                .into_iter()
                .map(|p| push_filter_into(p, predicate.clone()))
                .collect::<Result<_, _>>()?;
            Ok(Plan::UnionAll { inputs, schema })
        }
        // Filter(Join(l, r)): push side-local conjuncts into inner inputs.
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut conjuncts = Vec::new();
            split_phys_conjuncts(predicate, &mut conjuncts);
            let mut stay = Vec::new();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.columns_used(&mut cols);
                let all_left = cols.iter().all(|&i| i < left_width);
                let all_right = cols.iter().all(|&i| i >= left_width);
                // Pushing to the left is safe for inner and left joins;
                // pushing to the right only for inner joins.
                if all_left && matches!(kind, JoinKind::Inner | JoinKind::Left | JoinKind::Cross) {
                    to_left.push(c);
                } else if all_right && matches!(kind, JoinKind::Inner | JoinKind::Cross) {
                    let mut c = c;
                    c.remap_columns(&|i| i - left_width);
                    to_right.push(c);
                } else {
                    stay.push(c);
                }
            }
            let mut left = *left;
            for c in to_left {
                left = push_filter_into(left, c)?;
            }
            let mut right = *right;
            for c in to_right {
                right = push_filter_into(right, c)?;
            }
            let joined = Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                left_keys,
                right_keys,
                residual,
                schema,
            };
            Ok(match conjoin(stay) {
                Some(p) => Plan::Filter {
                    input: Box::new(joined),
                    predicate: p,
                },
                None => joined,
            })
        }
        // Filter(Filter(x)) => Filter(x, a AND b) — merged then re-pushed.
        Plan::Filter {
            input,
            predicate: inner,
        } => {
            let merged = PhysExpr::Binary {
                op: sigma_sql::SqlBinaryOp::And,
                left: Box::new(inner),
                right: Box::new(predicate),
            };
            push_filter_into(*input, merged)
        }
        other => Ok(Plan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

fn conjoin(preds: Vec<PhysExpr>) -> Option<PhysExpr> {
    preds.into_iter().reduce(|a, b| PhysExpr::Binary {
        op: sigma_sql::SqlBinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
    })
}

fn split_phys_conjuncts(e: PhysExpr, out: &mut Vec<PhysExpr>) {
    if let PhysExpr::Binary {
        op: sigma_sql::SqlBinaryOp::And,
        left,
        right,
    } = e
    {
        split_phys_conjuncts(*left, out);
        split_phys_conjuncts(*right, out);
    } else {
        out.push(e);
    }
}

/// Rewrite a predicate over a projection's output to one over its input by
/// inlining the projected expressions. Returns `None` if the predicate
/// references an ordinal the projection does not produce. Any projected
/// expression is inlined, however costly: below the projection the filter
/// then evaluates it again.
fn substitute_through_projection(pred: &PhysExpr, exprs: &[PhysExpr]) -> Option<PhysExpr> {
    let mut used = Vec::new();
    pred.columns_used(&mut used);
    if used.iter().any(|&i| i >= exprs.len()) {
        return None;
    }
    let mut out = pred.clone();
    substitute_cols(&mut out, exprs);
    Some(out)
}

/// Replace each `Col(i)` with `exprs[i]`.
fn substitute_cols(e: &mut PhysExpr, exprs: &[PhysExpr]) {
    match e {
        PhysExpr::Col(i) => *e = exprs[*i].clone(),
        _ => e.for_each_child_mut(&mut |c| substitute_cols(c, exprs)),
    }
}

// ---------------------------------------------------------------------
// projection pruning
// ---------------------------------------------------------------------

/// Insert narrow projections directly above scans when the plan uses only
/// a subset of the scanned columns.
///
/// Contract: `prune(plan, Some(needed))` returns a plan whose output schema
/// is the original schema restricted to `needed` (sorted, deduplicated, in
/// ascending original order); the caller is responsible for remapping its
/// own column references through that order. `prune(plan, None)` leaves the
/// output schema unchanged.
fn prune_scan_columns(plan: Plan) -> Result<Plan, CdwError> {
    prune(plan, None)
}

fn normalize(needed: &mut Vec<usize>) {
    needed.sort_unstable();
    needed.dedup();
}

/// Normalize and guarantee at least one column survives: a zero-column
/// batch cannot carry a row count, so COUNT(*)-style plans keep column 0.
fn normalize_nonempty(needed: &mut Vec<usize>, width: usize) {
    normalize(needed);
    if needed.is_empty() && width > 0 {
        needed.push(0);
    }
}

/// Wrap `plan` in a projection selecting `needed` (already normalized)
/// ordinals of its output, unless that would be a no-op.
fn narrow(plan: Plan, needed: &[usize]) -> Plan {
    let schema = plan.schema();
    if needed.len() >= schema.len() {
        return plan;
    }
    let fields: Vec<Field> = needed.iter().map(|&i| schema.field(i).clone()).collect();
    let exprs: Vec<PhysExpr> = needed.iter().map(|&i| PhysExpr::Col(i)).collect();
    Plan::Project {
        input: Box::new(plan),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    }
}

/// Every expression is a bare column reference, none repeated.
fn selects_each_once(exprs: &[PhysExpr]) -> bool {
    let mut seen = std::collections::HashSet::new();
    exprs
        .iter()
        .all(|e| matches!(e, PhysExpr::Col(i) if seen.insert(*i)))
}

/// Old-ordinal -> new-ordinal map induced by a normalized needed set.
fn remap_of(needed: &[usize]) -> std::collections::HashMap<usize, usize> {
    needed
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect()
}

fn prune(plan: Plan, needed: Option<Vec<usize>>) -> Result<Plan, CdwError> {
    let width = plan.schema().len();
    let needed = needed.map(|mut n| {
        normalize_nonempty(&mut n, width);
        n
    });
    match plan {
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            // Keep only the projected expressions the parent needs.
            let (kept_exprs, kept_fields): (Vec<PhysExpr>, Vec<Field>) = match &needed {
                Some(cols) => cols
                    .iter()
                    .map(|&i| (exprs[i].clone(), schema.field(i).clone()))
                    .unzip(),
                None => (exprs, schema.fields().to_vec()),
            };
            let mut child_need = Vec::new();
            for e in &kept_exprs {
                e.columns_used(&mut child_need);
            }
            normalize_nonempty(&mut child_need, input.schema().len());
            let narrowed = child_need.len() < input.schema().len();
            let map = remap_of(&child_need);
            let pruned = prune(*input, Some(child_need))?;
            let mut kept_exprs = kept_exprs;
            if narrowed {
                for e in &mut kept_exprs {
                    e.remap_columns(&|i| map[&i]);
                }
            }
            // Stacked projections fold into one when either only selects
            // columns: a child selection (what `narrow` puts over a
            // boundary node) is an ordinal remap, and a parent selecting
            // each child column at most once moves the child's
            // expressions unchanged, so nothing evaluates differently.
            let fold = pruned.is_column_selection()
                || (matches!(pruned, Plan::Project { .. }) && selects_each_once(&kept_exprs));
            let pruned = match pruned {
                Plan::Project { input, exprs, .. } if fold => {
                    for e in &mut kept_exprs {
                        substitute_cols(e, &exprs);
                    }
                    *input
                }
                other => other,
            };
            Ok(Plan::Project {
                input: Box::new(pruned),
                exprs: kept_exprs,
                schema: Arc::new(Schema::new(kept_fields)),
            })
        }
        Plan::Filter { input, predicate } => {
            let width = input.schema().len();
            let mut union: Vec<usize> = match &needed {
                Some(cols) => cols.clone(),
                None => (0..width).collect(),
            };
            predicate.columns_used(&mut union);
            normalize_nonempty(&mut union, width);
            let narrowed = union.len() < width;
            let map = remap_of(&union);
            let pruned = prune(*input, Some(union.clone()))?;
            let mut predicate = predicate;
            if narrowed {
                predicate.remap_columns(&|i| map[&i]);
            }
            let filtered = Plan::Filter {
                input: Box::new(pruned),
                predicate,
            };
            // If the parent wanted fewer columns than the filter needed,
            // narrow above (positions of `needed` within `union`).
            Ok(match needed {
                Some(cols) if cols.len() < union.len() => {
                    let positions: Vec<usize> = cols
                        .iter()
                        .map(|c| union.iter().position(|u| u == c).unwrap())
                        .collect();
                    narrow(filtered, &positions)
                }
                _ => filtered,
            })
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
        } => {
            let mut child_need = Vec::new();
            for g in &groups {
                g.columns_used(&mut child_need);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.columns_used(&mut child_need);
                }
            }
            normalize_nonempty(&mut child_need, input.schema().len());
            let narrowed = child_need.len() < input.schema().len();
            let map = remap_of(&child_need);
            let pruned = prune(*input, Some(child_need))?;
            let mut groups = groups;
            let mut aggs = aggs;
            if narrowed {
                for g in &mut groups {
                    g.remap_columns(&|i| map[&i]);
                }
                for a in &mut aggs {
                    if let Some(arg) = &mut a.arg {
                        arg.remap_columns(&|i| map[&i]);
                    }
                }
            }
            let agg = Plan::Aggregate {
                input: Box::new(pruned),
                groups,
                aggs,
                schema,
            };
            Ok(match needed {
                Some(cols) => narrow(agg, &cols),
                None => agg,
            })
        }
        // Every other node is a boundary: its inputs keep their full
        // schemas, and the parent's narrowing happens above the node.
        other => {
            let node = other.map_inputs(|p| prune(p, None))?;
            Ok(match needed {
                Some(cols) => narrow(node, &cols),
                None => node,
            })
        }
    }
}

// ---------------------------------------------------------------------
// pipeline decomposition (EXPLAIN PIPELINES)
// ---------------------------------------------------------------------

/// Render the morsel-pipeline decomposition of an (optimized) plan: which
/// Filter/Project chains fuse into per-morsel pipelines, where each
/// pipeline's source and sink sit, and which operators break the flow
/// (sort, window, limit, distinct and a join's build side each see their
/// whole input first). This mirrors exactly what the executor does at
/// every setting — the text is derived from the same `stream_chain`
/// decomposition it executes.
pub fn explain_pipelines(plan: &Plan) -> String {
    let mut out = String::new();
    explain_pipelines_into(plan, 0, &mut out);
    out
}

/// Execution granularity annotation: operators whose work the morsel
/// height cuts (the in-memory aggregate's fused chain and group/argument
/// evaluation, the window's partition work items) vs the ones that work
/// partition-at-a-time or on one collapsed batch (join probes, sort,
/// limit, distinct, union, scans). Stream chains annotate their own
/// pipeline line.
fn granularity(plan: &Plan) -> &'static str {
    match plan {
        Plan::Window { .. } | Plan::Aggregate { .. } => "morsel",
        _ => "partition",
    }
}

/// One pipeline's operators in execution order:
/// `source => stage => ... [=> sink]`.
fn pipeline_line(source: &Plan, chain: &[&Plan], sink: Option<&Plan>) -> String {
    let mut parts = vec![source.label()];
    for node in chain.iter().rev() {
        parts.push(node.label());
    }
    if let Some(s) = sink {
        parts.push(format!("{} [sink]", s.label()));
    }
    parts.join(" => ")
}

fn indent_by(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn explain_pipelines_into(plan: &Plan, depth: usize, out: &mut String) {
    // A maximal streaming chain is one fused pipeline; one that only
    // selects columns runs on whole partitions.
    if plan.is_streaming_stage() {
        let (chain, source) = plan.stream_chain();
        let unit = if chain.iter().all(|n| n.is_column_selection()) {
            "partition"
        } else {
            "morsel"
        };
        indent_by(out, depth);
        out.push_str(&format!(
            "pipeline: {} [{unit}]\n",
            pipeline_line(source, &chain, None)
        ));
        explain_pipelines_into(source, depth + 1, out);
        return;
    }
    match plan {
        Plan::Scan { .. } | Plan::Values { .. } => {
            indent_by(out, depth);
            out.push_str(&format!("source: {}\n", plan.label()));
        }
        Plan::Join { left, right, .. } => {
            indent_by(out, depth);
            out.push_str(&format!(
                "break: {} [build: right, probe: left] [{}]\n",
                plan.label(),
                granularity(plan)
            ));
            explain_pipelines_into(left, depth + 1, out);
            explain_pipelines_into(right, depth + 1, out);
        }
        Plan::UnionAll { inputs, .. } => {
            // Pass-through: the union keeps every input's partitions.
            indent_by(out, depth);
            out.push_str(&format!("pass: {} [{}]\n", plan.label(), granularity(plan)));
            for input in inputs {
                explain_pipelines_into(input, depth + 1, out);
            }
        }
        // An aggregate sinks the pipeline feeding it: the chain below
        // fuses with its per-partition fold.
        Plan::Aggregate { input, .. } => {
            let (chain, source) = input.stream_chain();
            indent_by(out, depth);
            out.push_str(&format!(
                "pipeline: {} [{}]\n",
                pipeline_line(source, &chain, Some(plan)),
                granularity(plan)
            ));
            explain_pipelines_into(source, depth + 1, out);
        }
        Plan::Window { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Distinct { input, .. } => {
            indent_by(out, depth);
            out.push_str(&format!(
                "break: {} [{}]\n",
                plan.label(),
                granularity(plan)
            ));
            explain_pipelines_into(input, depth + 1, out);
        }
        // Streaming nodes were handled above.
        Plan::Filter { .. } | Plan::Project { .. } => unreachable!("handled by stream_chain"),
    }
}
