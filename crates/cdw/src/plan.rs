//! The logical plan produced by the planner and consumed by the executor.

use std::sync::Arc;

use sigma_sql::{JoinKind, WindowFrame};
use sigma_value::{Batch, DataType, Schema};

use crate::eval::PhysExpr;

/// Execution phase of an [`Plan::Aggregate`] or [`Plan::Distinct`] node.
///
/// The planner always emits `Single` (one-shot over the whole input). The
/// optimizer's two-phase split rewrites `Single` nodes over
/// partition-preserving inputs into a per-partition `Partial` under a
/// merging `Final`, so the heavy hash-build work runs partition-parallel
/// and only the (much smaller) per-partition results are combined on one
/// thread. The executor realizes the split for the exact `Final`-over-
/// `Partial` pairing; any other placement degrades safely to `Single`
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// One-shot aggregation over the concatenated input.
    Single,
    /// Per-partition pre-aggregation; output keeps partition structure.
    Partial,
    /// Merge per-partition partial states into the global result.
    Final,
}

impl AggMode {
    /// Suffix used in EXPLAIN output (empty for the default mode).
    pub fn label(&self) -> &'static str {
        match self {
            AggMode::Single => "",
            AggMode::Partial => "[partial]",
            AggMode::Final => "[final]",
        }
    }
}

/// Aggregate functions the engine executes.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    Median,
    StdDev,
    Variance,
    /// Continuous percentile at the given fraction.
    Percentile(f64),
    /// The paper's virtual aggregate (§3.2): the single value if the group
    /// has exactly one distinct non-null value, else NULL.
    Attr,
}

impl AggFunc {
    /// Output type given the argument type.
    pub fn output_type(&self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Sum => match arg {
                Some(DataType::Int) => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Avg
            | AggFunc::Median
            | AggFunc::StdDev
            | AggFunc::Variance
            | AggFunc::Percentile(_) => DataType::Float,
            AggFunc::Min | AggFunc::Max | AggFunc::Attr => arg.unwrap_or(DataType::Text),
        }
    }
}

/// One aggregate slot in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` only for `CountStar`.
    pub arg: Option<PhysExpr>,
}

/// Window functions the engine executes.
#[derive(Debug, Clone, PartialEq)]
pub enum WinFunc {
    RowNumber,
    Rank,
    DenseRank,
    Ntile,
    Lag,
    Lead,
    FirstValue,
    LastValue,
    NthValue,
    /// Aggregate-as-window with an optional frame.
    Agg(AggFunc),
}

/// Sort specification used by Sort nodes and window ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    pub expr: PhysExpr,
    pub descending: bool,
    pub nulls_last: Option<bool>,
}

/// One window slot in a Window node (appends a column to its input).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCall {
    pub func: WinFunc,
    pub args: Vec<PhysExpr>,
    pub ignore_nulls: bool,
    pub partition: Vec<PhysExpr>,
    pub order: Vec<SortSpec>,
    pub frame: Option<WindowFrame>,
}

/// A logical plan node. Every node knows its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a catalog table.
    Scan { table: String, schema: Arc<Schema> },
    /// Scan a persisted result set by query id (RESULT_SCAN).
    ResultScan { id: String, schema: Arc<Schema> },
    /// Inline rows.
    Values { batch: Batch },
    Project {
        input: Box<Plan>,
        exprs: Vec<PhysExpr>,
        schema: Arc<Schema>,
    },
    Filter {
        input: Box<Plan>,
        predicate: PhysExpr,
    },
    Aggregate {
        input: Box<Plan>,
        groups: Vec<PhysExpr>,
        aggs: Vec<AggCall>,
        schema: Arc<Schema>,
        /// Two-phase placement (see [`AggMode`]). A `Partial` node carries
        /// the final output schema: partial states live in executor memory
        /// and are never materialized as columns.
        mode: AggMode,
    },
    /// Appends one column per call to the input schema.
    Window {
        input: Box<Plan>,
        calls: Vec<WindowCall>,
        schema: Arc<Schema>,
    },
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        /// Equi-join keys (`left_keys[i] = right_keys[i]`).
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        /// Non-equi residual applied after the hash match.
        residual: Option<PhysExpr>,
        schema: Arc<Schema>,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortSpec>,
    },
    Limit {
        input: Box<Plan>,
        limit: Option<u64>,
        offset: u64,
    },
    UnionAll {
        inputs: Vec<Plan>,
        schema: Arc<Schema>,
    },
    Distinct {
        input: Box<Plan>,
        /// `Partial` dedups within each partition (keeping partitions);
        /// `Final`/`Single` dedup globally to one batch.
        mode: AggMode,
    },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            Plan::Scan { schema, .. } => schema.clone(),
            Plan::ResultScan { schema, .. } => schema.clone(),
            Plan::Values { batch } => batch.schema().clone(),
            Plan::Project { schema, .. } => schema.clone(),
            Plan::Filter { input, .. } => input.schema(),
            Plan::Aggregate { schema, .. } => schema.clone(),
            Plan::Window { schema, .. } => schema.clone(),
            Plan::Join { schema, .. } => schema.clone(),
            Plan::Sort { input, .. } => input.schema(),
            Plan::Limit { input, .. } => input.schema(),
            Plan::UnionAll { schema, .. } => schema.clone(),
            Plan::Distinct { input, .. } => input.schema(),
        }
    }

    /// Number of nodes (used in optimizer tests and plan stats).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::ResultScan { .. } | Plan::Values { .. } => 0,
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input, .. } => input.node_count(),
            Plan::Join { left, right, .. } => left.node_count() + right.node_count(),
            Plan::UnionAll { inputs, .. } => inputs.iter().map(Plan::node_count).sum(),
        }
    }

    /// Streaming stages fuse into a morsel pipeline: they transform each
    /// morsel independently (no cross-row state), so a chain of them runs
    /// per-morsel without materializing between operators.
    pub fn is_streaming_stage(&self) -> bool {
        matches!(self, Plan::Filter { .. } | Plan::Project { .. })
    }

    /// Pipeline breakers must see their whole input before emitting a
    /// row, so a pipeline ends (and its output materializes) here: sorts,
    /// merging aggregates/distincts, windows, and limits. A `Join` breaks
    /// only on its build (right) side; `Partial` aggregation is a pipeline
    /// *sink* (per-partition fold), not a breaker.
    pub fn is_pipeline_breaker(&self) -> bool {
        matches!(
            self,
            Plan::Sort { .. }
                | Plan::Window { .. }
                | Plan::Limit { .. }
                | Plan::Aggregate {
                    mode: AggMode::Single | AggMode::Final,
                    ..
                }
                | Plan::Distinct {
                    mode: AggMode::Single | AggMode::Final,
                    ..
                }
        )
    }

    /// The maximal streaming chain hanging off this node: the run of
    /// Filter/Project nodes from here down (top-down order, starting with
    /// `self` when it streams — possibly empty), plus the first
    /// non-streaming descendant that feeds it (the pipeline's source).
    pub fn stream_chain(&self) -> (Vec<&Plan>, &Plan) {
        let mut chain = Vec::new();
        let mut node = self;
        loop {
            match node {
                Plan::Filter { input, .. } | Plan::Project { input, .. } => {
                    chain.push(node);
                    node = input;
                }
                _ => return (chain, node),
            }
        }
    }

    /// The inline batch a plan made of nothing but `Filter`/`Project`/
    /// `Sort` nodes reads: the shape of a filter tweak or a formula edit
    /// replayed over an already computed input. Any other operator (scan,
    /// join, aggregate, window, distinct, limit, union) gives `None`.
    pub fn chain_source(&self) -> Option<&Batch> {
        match self {
            Plan::Values { batch } => Some(batch),
            Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Sort { input, .. } => {
                input.chain_source()
            }
            _ => None,
        }
    }

    /// Render the plan as an indented tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Plan::Scan { table, .. } => out.push_str(&format!("Scan {table}\n")),
            Plan::ResultScan { id, .. } => out.push_str(&format!("ResultScan {id}\n")),
            Plan::Values { batch } => {
                out.push_str(&format!("Values ({} rows)\n", batch.num_rows()))
            }
            Plan::Project { input, exprs, .. } => {
                out.push_str(&format!("Project ({} exprs)\n", exprs.len()));
                input.explain_into(depth + 1, out);
            }
            Plan::Filter { input, .. } => {
                out.push_str("Filter\n");
                input.explain_into(depth + 1, out);
            }
            Plan::Aggregate {
                input,
                groups,
                aggs,
                mode,
                ..
            } => {
                out.push_str(&format!(
                    "Aggregate{} (groups={}, aggs={})\n",
                    mode.label(),
                    groups.len(),
                    aggs.len()
                ));
                input.explain_into(depth + 1, out);
            }
            Plan::Window { input, calls, .. } => {
                out.push_str(&format!("Window ({} calls)\n", calls.len()));
                input.explain_into(depth + 1, out);
            }
            Plan::Join {
                left,
                right,
                kind,
                left_keys,
                ..
            } => {
                out.push_str(&format!("Join {kind:?} ({} keys)\n", left_keys.len()));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::Sort { input, keys } => {
                out.push_str(&format!("Sort ({} keys)\n", keys.len()));
                input.explain_into(depth + 1, out);
            }
            Plan::Limit {
                input,
                limit,
                offset,
            } => {
                out.push_str(&format!("Limit {limit:?} offset {offset}\n"));
                input.explain_into(depth + 1, out);
            }
            Plan::UnionAll { inputs, .. } => {
                out.push_str("UnionAll\n");
                for i in inputs {
                    i.explain_into(depth + 1, out);
                }
            }
            Plan::Distinct { input, mode } => {
                out.push_str(&format!("Distinct{}\n", mode.label()));
                input.explain_into(depth + 1, out);
            }
        }
    }
}
