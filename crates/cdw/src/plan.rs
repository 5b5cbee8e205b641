//! The logical plan produced by the planner and consumed by the executor.

use std::sync::Arc;

use sigma_sql::{JoinKind, WindowFrame};
use sigma_value::{Batch, DataType, Schema};

use crate::eval::PhysExpr;
use crate::storage::StoredTable;

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
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan a catalog table: its partitions as of planning, so the
    /// executor reads no catalog.
    Scan { table: String, stored: StoredTable },
    /// Inline rows: VALUES, the FROM-less row, a bound input, or a
    /// persisted result set read by `RESULT_SCAN`.
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
        /// The rows to dedup: the first of each set of equal rows stays,
        /// in input order.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            Plan::Scan { stored, .. } => stored.schema().clone(),
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
        1 + self
            .inputs()
            .into_iter()
            .map(Plan::node_count)
            .sum::<usize>()
    }

    /// The node's direct inputs, left to right. This and
    /// [`Plan::map_inputs`] are the one place that lists a node's
    /// children; every walker that only recurses goes through them.
    pub fn inputs(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values { .. } => Vec::new(),
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Rebuild this node with each input replaced by `f(input)`, left to
    /// right; the first error aborts the rewrite.
    pub fn map_inputs<E>(mut self, mut f: impl FnMut(Plan) -> Result<Plan, E>) -> Result<Plan, E> {
        let slots: Vec<&mut Plan> = match &mut self {
            Plan::Scan { .. } | Plan::Values { .. } => Vec::new(),
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::UnionAll { inputs, .. } => inputs.iter_mut().collect(),
        };
        for slot in slots {
            // A childless stand-in holds the slot while `f` owns the input.
            let hole = Plan::UnionAll {
                inputs: Vec::new(),
                schema: Arc::new(Schema::empty()),
            };
            *slot = f(std::mem::replace(slot, hole))?;
        }
        Ok(self)
    }

    /// Visit every expression this node holds — not its inputs'. Window
    /// calls visit their args, then PARTITION BY, then ORDER BY; joins
    /// their left keys, right keys, then residual.
    pub fn for_each_expr_mut(&mut self, f: &mut dyn FnMut(&mut PhysExpr)) {
        match self {
            Plan::Scan { .. }
            | Plan::Values { .. }
            | Plan::Limit { .. }
            | Plan::UnionAll { .. }
            | Plan::Distinct { .. } => {}
            Plan::Project { exprs, .. } => exprs.iter_mut().for_each(f),
            Plan::Filter { predicate, .. } => f(predicate),
            Plan::Aggregate { groups, aggs, .. } => {
                groups.iter_mut().for_each(&mut *f);
                aggs.iter_mut().filter_map(|a| a.arg.as_mut()).for_each(f);
            }
            Plan::Window { calls, .. } => {
                for c in calls {
                    c.args.iter_mut().for_each(&mut *f);
                    c.partition.iter_mut().for_each(&mut *f);
                    c.order.iter_mut().for_each(|o| f(&mut o.expr));
                }
            }
            Plan::Join {
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                left_keys.iter_mut().for_each(&mut *f);
                right_keys.iter_mut().for_each(&mut *f);
                residual.iter_mut().for_each(f);
            }
            Plan::Sort { keys, .. } => keys.iter_mut().for_each(|k| f(&mut k.expr)),
        }
    }

    /// This node's one EXPLAIN line (no indent, no inputs). Executor
    /// stats ([`crate::OpStats::op`]) and EXPLAIN PIPELINES use it too.
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table, .. } => format!("Scan {table}"),
            Plan::Values { batch } => format!("Values ({} rows)", batch.num_rows()),
            Plan::Project { exprs, .. } => format!("Project ({} exprs)", exprs.len()),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Aggregate { groups, aggs, .. } => {
                format!("Aggregate (groups={}, aggs={})", groups.len(), aggs.len())
            }
            Plan::Window { calls, .. } => format!("Window ({} calls)", calls.len()),
            Plan::Join {
                kind, left_keys, ..
            } => format!("Join {kind:?} ({} keys)", left_keys.len()),
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::Limit { limit, offset, .. } => format!("Limit {limit:?} offset {offset}"),
            Plan::UnionAll { .. } => "UnionAll".to_string(),
            Plan::Distinct { .. } => "Distinct".to_string(),
        }
    }

    /// Streaming stages fuse into a morsel pipeline: they transform each
    /// morsel independently (no cross-row state), so a chain of them runs
    /// per-morsel without materializing between operators.
    pub fn is_streaming_stage(&self) -> bool {
        matches!(self, Plan::Filter { .. } | Plan::Project { .. })
    }

    /// A Project that only selects input columns. A streaming chain made
    /// of nothing else has no work to share, so it runs on whole
    /// partitions: uncut, its output columns are its input's.
    pub fn is_column_selection(&self) -> bool {
        matches!(self, Plan::Project { exprs, .. }
            if exprs.iter().all(|e| matches!(e, PhysExpr::Col(_))))
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
        out.push_str(&self.label());
        out.push('\n');
        for input in self.inputs() {
            input.explain_into(depth + 1, out);
        }
    }
}
