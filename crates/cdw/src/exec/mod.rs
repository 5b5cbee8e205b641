//! The vectorized executor: [`Plan`] → [`Batch`].
//!
//! Operators retain the storage partition structure wherever the plan
//! allows it, so work spreads across the persistent process-wide worker
//! pool (the `parallelism` knob the scalability experiment E8 sweeps,
//! clamped to the pool's execution budget — see [`scheduler`]).
//! There is one work-distribution engine: every operator cuts its input
//! into morsels, runs them on an LPT-seeded work-stealing queue, and
//! regroups the outputs per partition in morsel order (see [`pipeline`]
//! and [`scheduler`]). How tall a morsel is comes from one function,
//! [`pipeline::morsel_height`]; at an effective width of one worker it
//! is the whole partition, so serial execution is the same code with
//! every split, regroup and steal degenerate — not a second executor:
//!
//! * Scan → Filter → Project chains fuse into one pipeline per morsel.
//! * `UnionAll` concatenates its inputs' partitions without collapsing.
//! * Aggregation and DISTINCT run two-phase when the optimizer placed a
//!   `Partial`/`Final` split (see [`crate::plan::AggMode`]): per-partition
//!   partial states build in parallel and merge associatively, in
//!   partition-index order, on the coordinating thread — so results are
//!   bit-identical at any parallelism and morsel height.
//! * Hash joins build the right side once and share it across
//!   per-partition probe morsels running in parallel (every join kind,
//!   LEFT/FULL tails regrouped per partition), emitting one output part
//!   per probe partition.
//! * Sort generates sorted runs per morsel in parallel and k-way merges
//!   them by `(keys, row id)`; windows evaluate their expressions per
//!   morsel and sort/compute partitions in parallel, scattering values
//!   back to disjoint rows.
//!
//! Every operator records an [`OpStats`] entry (rows in/out, partitions,
//! elapsed, morsels) so `EXPLAIN`-style output and the bench harness can
//! attribute time.
//!
//! ## Memory budget & spilling
//!
//! An [`ExecMemoryTracker`] threads a per-operator byte budget through the
//! executor. The three operators whose state grows with input size —
//! aggregation hash tables, sort runs, and hash-join build tables — check
//! their (deterministic) state estimate against the budget up front and,
//! when over, switch to out-of-core variants backed by
//! [`crate::storage::SpillWriter`] files in the `sigma_value::codec` wire
//! format:
//!
//! * **Aggregate** hash-partitions input rows by group key into spilled
//!   bucket files per morsel, aggregates bucket by bucket (rebuilding the
//!   exact per-partition partial/merge structure of the in-memory fold
//!   inside each bucket), and interleaves the per-bucket groups back into
//!   global first-seen order by each group's first `(partition, row)`
//!   ([`pipeline::morsel_spilled_aggregate`]).
//! * **Sort** spills sorted runs (key columns + original row ids) in
//!   pages from parallel workers and k-way merges them by `(keys, row
//!   id)` — exactly the total order a stable in-memory sort produces.
//! * **Join** Grace-partitions the build side's key material into bucket
//!   files, builds one bucket's hash table at a time (bucket passes run
//!   on the scheduler), probes every left partition against it, then
//!   restores the in-memory output order by sorting each partition's
//!   matches by `(left row, right row)`.
//!
//! Because every spilled variant performs the *same floating-point
//! operations in the same order* as its in-memory counterpart and only
//! reorders bookkeeping, results are **bit-identical** at any budget,
//! parallelism and morsel height (pinned by `tests/spill_oracle.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_sql::JoinKind;
use sigma_value::hash::{self, KeyCols, KeyIndex};
use sigma_value::{sort, Batch, Column, ColumnBuilder, DataType, Field, Schema, Value, ValueRef};

use crate::catalog::Catalog;
use crate::error::CdwError;
use crate::eval::{eval_sel, CompiledExpr, EvalCtx, PhysExpr};
use crate::plan::{AggCall, AggFunc, AggMode, Plan};
use crate::storage::{SpillHandle, SpillReader, SpillWriter};

pub(crate) mod pipeline;
pub mod scheduler;

pub use pipeline::MorselSizing;

/// One partition flowing between operators: a batch plus an optional
/// **selection vector** — the surviving row indices, ascending. Filters
/// refine the selection instead of materializing their output; consumers
/// either evaluate expressions through the selection ([`eval_sel`] /
/// [`CompiledExpr::eval`]) or gather once via [`Part::materialize`]. A
/// `Filter → Project → Filter` chain therefore touches only surviving
/// rows and never builds an intermediate batch.
#[derive(Debug, Clone)]
pub(crate) struct Part {
    batch: Batch,
    sel: Option<Vec<usize>>,
}

impl Part {
    fn new(batch: Batch) -> Part {
        Part { batch, sel: None }
    }

    fn rows(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.num_rows(), Vec::len)
    }

    fn sel(&self) -> Option<&[usize]> {
        self.sel.as_deref()
    }

    /// Gather the surviving rows into a dense batch (no-op without a
    /// selection).
    fn materialize(self) -> Batch {
        match self.sel {
            Some(s) => self.batch.take(&s),
            None => self.batch,
        }
    }

    /// Deterministic byte-size proxy for spill decisions: the underlying
    /// batch scaled by the surviving-row fraction.
    fn est_bytes(&self) -> usize {
        match &self.sel {
            None => self.batch.byte_size(),
            Some(s) => self.batch.byte_size() * s.len() / self.batch.num_rows().max(1),
        }
    }
}

/// Accumulate the wall-clock of one expression evaluation into an
/// operator's cumulative `eval_ns` counter (atomic: partition/morsel
/// workers record concurrently). Shared with the window executor.
pub(crate) fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

/// Execution context (read access to storage plus settings).
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub results: &'a HashMap<String, Batch>,
    pub eval: EvalCtx,
    /// Worker threads for partition-parallel stages (1 = serial).
    pub parallelism: usize,
    /// How pipelines cut their input into morsels. Read only through
    /// [`ExecCtx::morsel_height`].
    pub morsel_sizing: MorselSizing,
    /// Per-operator memory budget and spill accounting.
    pub memory: ExecMemoryTracker,
    /// Per-query scheduler counters (tasks, own-queue hits, steals,
    /// unparks) recorded by every `run_stealing` call this query makes.
    pub sched: scheduler::SchedCounters,
}

impl ExecCtx<'_> {
    /// Worker slots this query can actually occupy: the configured
    /// per-query `parallelism` clamped to the process-wide pool target.
    pub fn effective_parallelism(&self) -> usize {
        scheduler::effective_workers(self.parallelism)
    }

    /// Morsel height for a pipeline over an input of `shape` — every
    /// operator asks here, nothing else looks at `morsel_sizing`.
    pub(crate) fn morsel_height(&self, shape: impl FnOnce() -> pipeline::InputShape) -> usize {
        pipeline::morsel_height(self.morsel_sizing, self.effective_parallelism(), shape)
    }
}

/// Accounts operator state against a configurable byte budget and records
/// what spilled.
///
/// The budget is **per operator instance**: each aggregation, sort, or
/// join build checks the bytes its in-memory state would need (estimated
/// from its input — deterministic, never sampled) and runs out-of-core
/// when the estimate exceeds the budget. Counters are atomics so
/// partition-parallel workers can record spills without synchronization;
/// totals are folded into [`ExecStats`] when the query completes.
#[derive(Debug, Default)]
pub struct ExecMemoryTracker {
    /// `None` = unbudgeted: all operator state stays in memory.
    budget: Option<usize>,
    spilled_bytes: AtomicUsize,
    spill_rounds: AtomicUsize,
}

/// Widest fan-out for spilling aggregation / Grace join buckets.
const MAX_SPILL_BUCKETS: usize = 64;
/// Most sorted runs an external sort will create.
const MAX_SORT_RUNS: usize = 64;

impl ExecMemoryTracker {
    pub fn new(budget: Option<usize>) -> ExecMemoryTracker {
        ExecMemoryTracker {
            budget,
            ..Default::default()
        }
    }

    /// The configured per-operator budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Would holding `estimated_state` bytes exceed the budget?
    pub fn should_spill(&self, estimated_state: usize) -> bool {
        self.budget.is_some_and(|b| estimated_state > b)
    }

    /// Hash-bucket fan-out so one bucket's state fits the budget
    /// (power of two, clamped to `[2, 64]`).
    pub fn bucket_count(&self, estimated_state: usize) -> usize {
        let budget = self.budget.unwrap_or(usize::MAX).max(1);
        let need = estimated_state.div_ceil(budget).max(2);
        need.next_power_of_two().min(MAX_SPILL_BUCKETS)
    }

    /// Sorted-run count so one run's state fits the budget (clamped to
    /// `[2, 64]` and never more than one run per row).
    pub fn run_count(&self, estimated_state: usize, rows: usize) -> usize {
        let budget = self.budget.unwrap_or(usize::MAX).max(1);
        estimated_state
            .div_ceil(budget)
            .clamp(2, MAX_SORT_RUNS)
            .min(rows.max(2))
    }

    /// Charge bytes written to spill files.
    pub fn record_spill(&self, bytes: usize) {
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count spill rounds (one per aggregation/join bucket pass or sort
    /// run).
    pub fn record_rounds(&self, rounds: usize) {
        self.spill_rounds.fetch_add(rounds, Ordering::Relaxed);
    }

    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    pub fn spill_rounds(&self) -> usize {
        self.spill_rounds.load(Ordering::Relaxed)
    }
}

/// Per-operator execution counters, recorded in plan pre-order.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// EXPLAIN-style operator label (e.g. `Aggregate[partial] (groups=1, aggs=2)`).
    pub op: String,
    /// Depth in the plan tree (0 = root), for tree rendering.
    pub depth: usize,
    /// Rows produced by this operator's immediate children.
    pub rows_in: usize,
    /// Rows this operator produced.
    pub rows_out: usize,
    /// Output partitions (1 for collapsing operators).
    pub partitions: usize,
    /// Wall-clock time inclusive of children. A node inside a fused
    /// Filter/Project chain has no wall clock of its own: it reports its
    /// source's elapsed plus the time morsels spent in it and the stages
    /// below it (summed across workers, like `eval_ns`).
    pub elapsed: Duration,
    /// Cumulative nanoseconds this operator spent evaluating scalar
    /// expressions (filter predicates, projections, group/join/sort keys,
    /// window arguments) — summed across partition workers, so it can
    /// exceed `elapsed` under parallelism. This is the counter the
    /// vectorized-expression win shows up in per query.
    pub eval_ns: u64,
    /// Morsels this operator cut its input into (an uncut partition
    /// counts as one; 0 for operators that take no morsels — scans,
    /// limits, unions, distinct).
    pub morsels: usize,
}

impl OpStats {
    fn started(op: String, depth: usize) -> OpStats {
        OpStats {
            op,
            depth,
            rows_in: 0,
            rows_out: 0,
            partitions: 0,
            elapsed: Duration::ZERO,
            eval_ns: 0,
            morsels: 0,
        }
    }
}

/// Counters accumulated during one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    pub rows_scanned: usize,
    pub partitions_scanned: usize,
    /// Per-operator breakdown in plan pre-order (root first).
    pub operators: Vec<OpStats>,
    /// The memory budget the query ran under (`None` = unbounded).
    pub memory_budget: Option<usize>,
    /// Bytes written to spill files (0 when everything stayed in memory).
    pub spilled_bytes: usize,
    /// Spill rounds taken: aggregation/join bucket passes plus sort runs.
    pub spill_rounds: usize,
    /// Parallel tasks dispatched through the worker pool (0 = all serial).
    pub sched_tasks: usize,
    /// Tasks a worker popped from its own deque (locality hits).
    pub sched_local: usize,
    /// Tasks taken from another worker's deque.
    pub sched_steals: usize,
    /// Parked pool workers woken for this query's jobs.
    pub sched_unparks: usize,
}

impl ExecStats {
    /// Fill in `rows_in` from each operator's immediate children.
    fn finalize(&mut self) {
        let n = self.operators.len();
        for i in 0..n {
            let d = self.operators[i].depth;
            let mut rows_in = 0;
            for j in i + 1..n {
                let dj = self.operators[j].depth;
                if dj <= d {
                    break;
                }
                if dj == d + 1 {
                    rows_in += self.operators[j].rows_out;
                }
            }
            self.operators[i].rows_in = rows_in;
        }
    }

    /// Render the per-operator breakdown as an indented tree
    /// (EXPLAIN ANALYZE-style), with a memory/spill footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.operators {
            for _ in 0..op.depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{}  rows_in={} rows_out={} partitions={} elapsed={:.3}ms eval_ns={}",
                op.op,
                op.rows_in,
                op.rows_out,
                op.partitions,
                op.elapsed.as_secs_f64() * 1e3,
                op.eval_ns,
            ));
            if op.morsels > 0 {
                out.push_str(&format!(" morsels={}", op.morsels));
            }
            out.push('\n');
        }
        let budget = match self.memory_budget {
            Some(b) => b.to_string(),
            None => "unbounded".to_string(),
        };
        out.push_str(&format!(
            "memory: budget={budget} spilled_bytes={} spill_rounds={}\n",
            self.spilled_bytes, self.spill_rounds,
        ));
        out.push_str(&format!(
            "scheduler: tasks={} local={} steals={} unparks={}\n",
            self.sched_tasks, self.sched_local, self.sched_steals, self.sched_unparks,
        ));
        out
    }
}

/// Execute a plan to a single batch.
pub fn execute(plan: &Plan, ctx: &ExecCtx, stats: &mut ExecStats) -> Result<Batch, CdwError> {
    let schema = plan.schema();
    let parts = execute_parts(plan, ctx, stats, 0)?;
    stats.finalize();
    stats.memory_budget = ctx.memory.budget();
    stats.spilled_bytes = ctx.memory.spilled_bytes();
    stats.spill_rounds = ctx.memory.spill_rounds();
    stats.sched_tasks = ctx.sched.tasks();
    stats.sched_local = ctx.sched.local();
    stats.sched_steals = ctx.sched.steals();
    stats.sched_unparks = ctx.sched.unparks();
    concat_parts(parts, schema)
}

/// Collapse a part list to one dense batch (an empty list yields zero
/// rows); selections are gathered here.
fn concat_parts(parts: Vec<Part>, schema: Arc<Schema>) -> Result<Batch, CdwError> {
    let mut parts: Vec<Batch> = parts.into_iter().map(Part::materialize).collect();
    match parts.len() {
        0 => Ok(Batch::empty(schema)),
        1 => Ok(parts.pop().unwrap()),
        _ => {
            let refs: Vec<&Batch> = parts.iter().collect();
            Batch::concat(&refs).map_err(CdwError::from)
        }
    }
}

/// Input column types of a plan node (what expressions compile against).
fn input_types(plan: &Plan) -> Vec<DataType> {
    plan.schema().fields().iter().map(|f| f.dtype).collect()
}

/// Operator label for stats entries (matches `Plan::explain` lines).
fn op_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, .. } => format!("Scan {table}"),
        Plan::ResultScan { id, .. } => format!("ResultScan {id}"),
        Plan::Values { .. } => "Values".to_string(),
        Plan::Project { exprs, .. } => format!("Project ({} exprs)", exprs.len()),
        Plan::Filter { .. } => "Filter".to_string(),
        Plan::Aggregate {
            mode, groups, aggs, ..
        } => format!(
            "Aggregate{} (groups={}, aggs={})",
            mode.label(),
            groups.len(),
            aggs.len()
        ),
        Plan::Window { calls, .. } => format!("Window ({} calls)", calls.len()),
        Plan::Join {
            kind, left_keys, ..
        } => format!("Join {kind:?} ({} keys)", left_keys.len()),
        Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
        Plan::Limit { .. } => "Limit".to_string(),
        Plan::UnionAll { .. } => "UnionAll".to_string(),
        Plan::Distinct { mode, .. } => format!("Distinct{}", mode.label()),
    }
}

/// Execute retaining partition structure, recording one [`OpStats`] entry.
fn execute_parts(
    plan: &Plan,
    ctx: &ExecCtx,
    stats: &mut ExecStats,
    depth: usize,
) -> Result<Vec<Part>, CdwError> {
    let slot = stats.operators.len();
    stats
        .operators
        .push(OpStats::started(op_label(plan), depth));
    let started = Instant::now();
    let eval_ns = AtomicU64::new(0);
    let morsels = AtomicUsize::new(0);
    let parts = execute_node(plan, ctx, stats, depth, &eval_ns, &morsels)?;
    let op = &mut stats.operators[slot];
    op.elapsed = started.elapsed();
    op.rows_out = parts.iter().map(Part::rows).sum();
    op.partitions = parts.len();
    op.eval_ns = eval_ns.into_inner();
    op.morsels = morsels.into_inner();
    Ok(parts)
}

fn execute_node(
    plan: &Plan,
    ctx: &ExecCtx,
    stats: &mut ExecStats,
    depth: usize,
    eval_ns: &AtomicU64,
    morsels: &AtomicUsize,
) -> Result<Vec<Part>, CdwError> {
    match plan {
        Plan::Scan { table, .. } => {
            let stored = ctx.catalog.get(table)?;
            stats.rows_scanned += stored.num_rows();
            stats.partitions_scanned += stored.partitions().len();
            Ok(stored.partitions().iter().cloned().map(Part::new).collect())
        }
        Plan::ResultScan { id, .. } => {
            let batch = ctx
                .results
                .get(id)
                .ok_or_else(|| CdwError::catalog(format!("persisted result not found: {id}")))?;
            Ok(vec![Part::new(batch.clone())])
        }
        Plan::Values { batch } => Ok(vec![Part::new(batch.clone())]),
        // The whole Filter/Project chain below this node fuses into one
        // pipeline (the chain's inner nodes never reach execute_node).
        Plan::Filter { .. } | Plan::Project { .. } => {
            pipeline::execute_chain(plan, ctx, stats, depth, eval_ns, morsels)
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode,
        } => {
            // The Final half of an optimizer-placed split fuses with its
            // Partial child: partition group tables build in parallel and
            // merge in partition-index order (deterministic at any
            // parallelism).
            if *mode == AggMode::Final {
                if let Plan::Aggregate {
                    input: pinput,
                    groups: pgroups,
                    aggs: paggs,
                    mode: AggMode::Partial,
                    ..
                } = input.as_ref()
                {
                    let pslot = stats.operators.len();
                    stats
                        .operators
                        .push(OpStats::started(op_label(input), depth + 1));
                    let pstarted = Instant::now();
                    let peval_ns = AtomicU64::new(0);
                    let pmorsels = AtomicUsize::new(0);
                    let cagg = compile_agg_exprs(pgroups, paggs, &input_types(pinput))?;
                    let global = pgroups.is_empty();
                    // Unbudgeted, the Partial fuses with the streaming
                    // chain below it. A budget needs that chain's output
                    // first: the partial tables hold keys and values
                    // derived from every input row, so total input bytes
                    // is the deterministic upper-bound state estimate.
                    let (batch, partial_rows, nparts) = if ctx.memory.budget().is_none() {
                        let tables = pipeline::execute_fused_partial(
                            pinput,
                            &cagg,
                            paggs,
                            ctx,
                            stats,
                            depth + 2,
                            &peval_ns,
                            &pmorsels,
                        )?;
                        let nparts = tables.len();
                        let (batch, rows) = merge_partials(tables, global, paggs, schema)?;
                        (batch, rows, nparts)
                    } else {
                        let parts = execute_parts(pinput, ctx, stats, depth + 2)?;
                        let est: usize = parts.iter().map(Part::est_bytes).sum();
                        let (batch, rows) = if !global && ctx.memory.should_spill(est) {
                            pipeline::morsel_spilled_aggregate(
                                &parts, &cagg, paggs, schema, ctx, est, &peval_ns, &pmorsels,
                            )?
                        } else {
                            let tables = pipeline::fold_partial(
                                &parts,
                                &Default::default(),
                                &cagg,
                                paggs,
                                ctx,
                                &peval_ns,
                                &pmorsels,
                            )?;
                            merge_partials(tables, global, paggs, schema)?
                        };
                        (batch, rows, parts.len())
                    };
                    let op = &mut stats.operators[pslot];
                    op.elapsed = pstarted.elapsed();
                    op.rows_out = partial_rows;
                    op.partitions = nparts;
                    op.eval_ns = peval_ns.into_inner();
                    op.morsels = pmorsels.into_inner();
                    return Ok(vec![Part::new(batch)]);
                }
            }
            // Single placement (or a Partial/Final the optimizer did not
            // pair): one-shot aggregation over the concatenated input. One
            // logical partition means continuous per-group accumulation
            // with no partial merge, at every morsel height.
            let parts = execute_parts(input, ctx, stats, depth + 1)?;
            let cagg = compile_agg_exprs(groups, aggs, &input_types(input))?;
            let est: usize = parts.iter().map(Part::est_bytes).sum();
            let part = [Part::new(concat_parts(parts, input.schema())?)];
            let (batch, _) = if !groups.is_empty() && ctx.memory.should_spill(est) {
                pipeline::morsel_spilled_aggregate(
                    &part, &cagg, aggs, schema, ctx, est, eval_ns, morsels,
                )?
            } else {
                let tables = pipeline::fold_partial(
                    &part,
                    &Default::default(),
                    &cagg,
                    aggs,
                    ctx,
                    eval_ns,
                    morsels,
                )?;
                merge_partials(tables, groups.is_empty(), aggs, schema)?
            };
            Ok(vec![Part::new(batch)])
        }
        Plan::Window {
            input,
            calls,
            schema,
        } => {
            let batch = concat_parts(execute_parts(input, ctx, stats, depth + 1)?, input.schema())?;
            let mut cols: Vec<Column> = batch.columns().to_vec();
            for (i, call) in calls.iter().enumerate() {
                let out_type = schema.field(batch.num_columns() + i).dtype;
                let col =
                    crate::window::compute_window(call, &batch, out_type, ctx, eval_ns, morsels)?;
                cols.push(col);
            }
            Ok(vec![Part::new(Batch::new(schema.clone(), cols)?)])
        }
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => {
            // Build side: materialized once, hash table shared across
            // probe morsels.
            let right_batch =
                concat_parts(execute_parts(right, ctx, stats, depth + 1)?, right.schema())?;
            // Probe partitions materialize here: the probe needs every
            // left column for output assembly anyway. Key expressions
            // still evaluate through the vectorized kernels.
            let lparts: Vec<Batch> = execute_parts(left, ctx, stats, depth + 1)?
                .into_iter()
                .map(Part::materialize)
                .collect();
            let keyed = *kind != JoinKind::Cross && !left_keys.is_empty();
            let rcols: Vec<Column> = if keyed {
                timed(eval_ns, || {
                    right_keys
                        .iter()
                        .map(|k| eval_sel(k, &right_batch, None, &ctx.eval))
                        .collect::<Result<_, _>>()
                })?
            } else {
                Vec::new()
            };
            // Probe keys and residual compile once per operator; the
            // residual runs over candidate batches in the join schema.
            let ltypes = input_types(left);
            let lkeys: Vec<CompiledExpr> = left_keys
                .iter()
                .map(|k| CompiledExpr::compile(k, &ltypes))
                .collect::<Result<_, _>>()?;
            let jtypes: Vec<DataType> = schema.fields().iter().map(|f| f.dtype).collect();
            let cresidual = residual
                .as_ref()
                .map(|r| CompiledExpr::compile(r, &jtypes))
                .transpose()?;
            // Build-state estimate: key material plus ~8 bytes of table
            // index per right row.
            let est =
                rcols.iter().map(Column::byte_size).sum::<usize>() + 8 * right_batch.num_rows();
            let probes = if keyed && ctx.memory.should_spill(est) {
                spilled_join(
                    &lparts,
                    &right_batch,
                    &rcols,
                    *kind,
                    &lkeys,
                    cresidual.as_ref(),
                    schema,
                    ctx,
                    est,
                    eval_ns,
                    morsels,
                )?
            } else {
                let build = build_join_table(right_batch.num_rows(), &rcols, keyed);
                pipeline::morsel_probe(
                    &lparts,
                    &right_batch,
                    build.as_ref(),
                    *kind,
                    &lkeys,
                    cresidual.as_ref(),
                    schema,
                    ctx,
                    eval_ns,
                    morsels,
                )?
            };
            let mut parts = Vec::with_capacity(probes.len() + 1);
            let mut matched_right = if *kind == JoinKind::Full {
                vec![false; right_batch.num_rows()]
            } else {
                Vec::new()
            };
            for (batch, matched) in probes {
                for ri in matched {
                    matched_right[ri] = true;
                }
                parts.push(Part::new(batch));
            }
            if *kind == JoinKind::Full {
                let unmatched: Vec<usize> = matched_right
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !**m)
                    .map(|(i, _)| i)
                    .collect();
                if !unmatched.is_empty() {
                    parts.push(Part::new(assemble_right_only(
                        &right_batch,
                        &unmatched,
                        schema,
                        left.schema().len(),
                    )?));
                }
            }
            Ok(parts)
        }
        Plan::Sort { input, keys } => {
            let batch = concat_parts(execute_parts(input, ctx, stats, depth + 1)?, input.schema())?;
            let types = input_types(input);
            let compiled: Vec<CompiledExpr> = keys
                .iter()
                .map(|k| CompiledExpr::compile(&k.expr, &types))
                .collect::<Result<_, _>>()?;
            let sort_keys: Vec<sort::SortKey> = keys
                .iter()
                .map(|k| sort::SortKey {
                    descending: k.descending,
                    nulls_last: k.nulls_last.unwrap_or(k.descending),
                })
                .collect();
            Ok(vec![Part::new(pipeline::morsel_sort(
                &batch, &compiled, &sort_keys, ctx, eval_ns, morsels,
            )?)])
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let batch = concat_parts(execute_parts(input, ctx, stats, depth + 1)?, input.schema())?;
            let start = (*offset as usize).min(batch.num_rows());
            let len = match limit {
                Some(l) => (*l as usize).min(batch.num_rows() - start),
                None => batch.num_rows() - start,
            };
            Ok(vec![Part::new(batch.slice(start, len))])
        }
        Plan::UnionAll { inputs, schema } => {
            // Keep every input's partition structure (no collapsing), so
            // two-phase operators above the union stay parallel.
            let mut parts = Vec::new();
            for input in inputs {
                for p in execute_parts(input, ctx, stats, depth + 1)? {
                    // Re-tag with the union schema (names from the first
                    // input); the selection survives re-tagging.
                    parts.push(Part {
                        batch: Batch::new(schema.clone(), p.batch.columns().to_vec())?,
                        sel: p.sel,
                    });
                }
            }
            Ok(parts)
        }
        Plan::Distinct { input, mode } => {
            let parts = execute_parts(input, ctx, stats, depth + 1)?;
            match mode {
                // Per-partition dedup, partitions retained — as a refined
                // selection, so a filtered part still never materializes.
                // Keys already deduplicated here never re-allocate in the
                // Final merge.
                AggMode::Partial => par_map(
                    ctx,
                    parts,
                    |p| p.est_bytes(),
                    |p| {
                        let keep = distinct_indices(&p.batch, p.sel(), &mut KeyIndex::new());
                        Ok(Part {
                            batch: p.batch,
                            sel: Some(keep),
                        })
                    },
                ),
                // Global dedup across parts in partition order.
                AggMode::Single | AggMode::Final => {
                    let mut seen = KeyIndex::new();
                    let mut kept = Vec::new();
                    for p in &parts {
                        let keep = distinct_indices(&p.batch, p.sel(), &mut seen);
                        if !keep.is_empty() {
                            kept.push(Part {
                                batch: p.batch.clone(),
                                sel: Some(keep),
                            });
                        }
                    }
                    Ok(vec![Part::new(concat_parts(kept, input.schema())?)])
                }
            }
        }
    }
}

/// Selected rows of `batch` whose key is not yet in `seen`, in selection
/// order, returned as original-batch indices.
fn distinct_indices(batch: &Batch, sel: Option<&[usize]>, seen: &mut KeyIndex) -> Vec<usize> {
    let refs: Vec<&Column> = batch.columns().iter().collect();
    let keys = KeyCols::new(&refs);
    let rows = sel.map_or(batch.num_rows(), <[usize]>::len);
    let mut keep = Vec::new();
    for i in 0..rows {
        let row = sel.map_or(i, |s| s[i]);
        if seen.intern_row(&keys, row).1 {
            keep.push(row);
        }
    }
    keep
}

/// Coerce an evaluated column to the declared output type (Int -> Float and
/// Date -> Timestamp widening; all-null columns adopt the target type).
pub(crate) fn coerce_column(col: Column, target: DataType) -> Result<Column, CdwError> {
    if col.dtype() == target {
        return Ok(col);
    }
    // Columns that are entirely null can be retyped freely; typed columns
    // may widen (the cast kernels handle Int->Float and Date->Timestamp).
    col.cast(target).map_err(CdwError::from)
}

/// Map over work items (partitions, spill buckets, ...) in parallel when
/// configured and worthwhile. `cost` is a deterministic size estimate
/// (bytes, rows) used to seed the LPT assignment; work stealing absorbs
/// whatever the estimate gets wrong. Output order always matches input
/// order — which worker ran an item can never change the result.
pub(crate) fn par_map<I, T, F>(
    ctx: &ExecCtx,
    parts: Vec<I>,
    cost: impl Fn(&I) -> usize,
    f: F,
) -> Result<Vec<T>, CdwError>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, CdwError> + Sync,
{
    scheduler::run_stealing(ctx.parallelism, parts, cost, f, &ctx.sched)
}

// ---------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------

/// Per-group aggregate state.
#[derive(Debug)]
pub enum AggState {
    CountStar(i64),
    Count(i64),
    /// Distinct non-null values counted so far. *Which* values were seen
    /// is not kept per group: the owning [`GroupTable`] holds one key
    /// index per COUNT(DISTINCT) slot over `(group, value)` pairs and
    /// passes each pair's first sighting here.
    CountDistinct(i64),
    SumInt {
        sum: i64,
        any: bool,
    },
    SumFloat {
        sum: f64,
        any: bool,
    },
    Avg {
        sum: f64,
        count: i64,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Collect {
        values: Vec<f64>,
        frac: f64,
        median: bool,
    },
    Welford {
        n: i64,
        mean: f64,
        m2: f64,
        variance: bool,
    },
    Attr {
        value: Option<Value>,
        conflicted: bool,
    },
}

impl AggState {
    pub fn new(func: &AggFunc) -> AggState {
        match func {
            AggFunc::CountStar => AggState::CountStar(0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(0),
            // Int-ness is decided at finish time by what was accumulated.
            AggFunc::Sum => AggState::SumFloat {
                sum: 0.0,
                any: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Median => AggState::Collect {
                values: Vec::new(),
                frac: 0.5,
                median: true,
            },
            AggFunc::Percentile(p) => AggState::Collect {
                values: Vec::new(),
                frac: *p,
                median: false,
            },
            AggFunc::StdDev => AggState::Welford {
                n: 0,
                mean: 0.0,
                m2: 0.0,
                variance: false,
            },
            AggFunc::Variance => AggState::Welford {
                n: 0,
                mean: 0.0,
                m2: 0.0,
                variance: true,
            },
            AggFunc::Attr => AggState::Attr {
                value: None,
                conflicted: false,
            },
        }
    }

    /// Sum over an Int column keeps Int output.
    pub fn new_for(func: &AggFunc, arg_type: Option<DataType>) -> AggState {
        match (func, arg_type) {
            (AggFunc::Sum, Some(DataType::Int)) => AggState::SumInt { sum: 0, any: false },
            _ => AggState::new(func),
        }
    }

    /// Fold one argument cell in. Cells arrive as borrowed scalars read
    /// straight from the argument column; only a new MIN/MAX/ATTR champion
    /// is copied out of it.
    pub fn update(&mut self, v: ValueRef<'_>) {
        /// Keep `v` in `slot`, reusing a Text champion's buffer.
        fn store(slot: &mut Option<Value>, v: ValueRef<'_>) {
            if let (Some(Value::Text(buf)), ValueRef::Text(s)) = (slot.as_mut(), v) {
                buf.clear();
                buf.push_str(s);
            } else {
                *slot = Some(v.to_value());
            }
        }
        match self {
            AggState::CountStar(n) => *n += 1,
            AggState::Count(n) | AggState::CountDistinct(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggState::SumInt { sum, any } => {
                if let Some(x) = v.as_i64() {
                    *sum = sum.wrapping_add(x);
                    *any = true;
                }
            }
            AggState::SumFloat { sum, any } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *any = true;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *count += 1;
                }
            }
            AggState::MinMax { best, is_min } => {
                if !v.is_null() {
                    let wanted = if *is_min {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    };
                    if best
                        .as_ref()
                        .is_none_or(|b| v.total_cmp(b.as_ref()) == wanted)
                    {
                        store(best, v);
                    }
                }
            }
            AggState::Collect { values, .. } => {
                if let Some(x) = v.as_f64() {
                    values.push(x);
                }
            }
            AggState::Welford { n, mean, m2, .. } => {
                if let Some(x) = v.as_f64() {
                    *n += 1;
                    let delta = x - *mean;
                    *mean += delta / *n as f64;
                    *m2 += delta * (x - *mean);
                }
            }
            AggState::Attr { value, conflicted } => {
                if !v.is_null() && !*conflicted {
                    match value {
                        None => *value = Some(v.to_value()),
                        Some(prev) => {
                            if prev.as_ref().total_cmp(v) != std::cmp::Ordering::Equal {
                                *conflicted = true;
                                *value = None;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fold another partial state of the same variant into `self`. Every
    /// combination is associative, so per-partition partials merged in
    /// partition-index order reproduce one deterministic result no matter
    /// how many threads computed them:
    ///
    /// * counts/sums add (Avg merges as sum+count, never as a quotient),
    /// * COUNT(DISTINCT) is left alone — its count is rebuilt by
    ///   [`GroupTable::merge_from`] as it unions the `(group, value)` sets,
    /// * min/max compare the partition champions,
    /// * median/percentile concatenate collected values (partitions are
    ///   row-order slices, so the concatenation preserves table order),
    /// * stddev/variance combine (n, mean, m2) via Chan's parallel update,
    /// * ATTR stays the single value iff both sides agree.
    ///
    /// Panics on mismatched variants: partitions share a schema, so the
    /// same aggregate slot always accumulates in the same representation.
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::CountStar(a), AggState::CountStar(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(_), AggState::CountDistinct(_)) => {}
            (
                AggState::SumInt { sum, any },
                AggState::SumInt {
                    sum: osum,
                    any: oany,
                },
            ) => {
                *sum = sum.wrapping_add(osum);
                *any |= oany;
            }
            (
                AggState::SumFloat { sum, any },
                AggState::SumFloat {
                    sum: osum,
                    any: oany,
                },
            ) => {
                *sum += osum;
                *any |= oany;
            }
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: osum,
                    count: ocount,
                },
            ) => {
                *sum += osum;
                *count += ocount;
            }
            (AggState::MinMax { best, is_min }, AggState::MinMax { best: obest, .. }) => {
                if let Some(v) = obest {
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            let ord = v.total_cmp(b);
                            if *is_min {
                                ord == std::cmp::Ordering::Less
                            } else {
                                ord == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (
                AggState::Collect { values, .. },
                AggState::Collect {
                    values: ovalues, ..
                },
            ) => {
                values.extend(ovalues);
            }
            (
                AggState::Welford { n, mean, m2, .. },
                AggState::Welford {
                    n: on,
                    mean: omean,
                    m2: om2,
                    ..
                },
            ) => {
                if on == 0 {
                    return;
                }
                if *n == 0 {
                    *n = on;
                    *mean = omean;
                    *m2 = om2;
                    return;
                }
                let total = *n + on;
                let delta = omean - *mean;
                *m2 += om2 + delta * delta * (*n as f64) * (on as f64) / total as f64;
                *mean += delta * on as f64 / total as f64;
                *n = total;
            }
            (
                AggState::Attr { value, conflicted },
                AggState::Attr {
                    value: ovalue,
                    conflicted: oconflicted,
                },
            ) => {
                if oconflicted {
                    *conflicted = true;
                    *value = None;
                } else if !*conflicted {
                    if let Some(v) = ovalue {
                        match value {
                            None => *value = Some(v),
                            Some(prev) => {
                                if !prev.sql_eq(&v) {
                                    *conflicted = true;
                                    *value = None;
                                }
                            }
                        }
                    }
                }
            }
            (s, o) => panic!("partial aggregate state mismatch: {s:?} vs {o:?}"),
        }
    }

    pub fn finish(self) -> Value {
        match self {
            AggState::CountStar(n) | AggState::Count(n) | AggState::CountDistinct(n) => {
                Value::Int(n)
            }
            AggState::SumInt { sum, any } => {
                if any {
                    Value::Int(sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, any } => {
                if any {
                    Value::Float(sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Collect {
                mut values, frac, ..
            } => {
                if values.is_empty() {
                    return Value::Null;
                }
                values.sort_by(f64::total_cmp);
                let rank = frac.clamp(0.0, 1.0) * (values.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let v = if lo == hi {
                    values[lo]
                } else {
                    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
                };
                Value::Float(v)
            }
            AggState::Welford {
                n, m2, variance, ..
            } => {
                if n < 2 {
                    return Value::Null;
                }
                let var = m2 / (n - 1) as f64;
                Value::Float(if variance { var } else { var.sqrt() })
            }
            AggState::Attr { value, .. } => value.unwrap_or(Value::Null),
        }
    }
}

/// A (partial) aggregation table. Groups are numbered in first-seen
/// order by `index` (which owns the encoded keys), and everything a group
/// accumulates hangs off that number in flat, group-major storage — no
/// per-group allocation besides what a state itself collects.
pub(crate) struct GroupTable {
    index: KeyIndex,
    /// Each group's GROUP BY values, one builder per expression (typed
    /// from the first evaluated chunk; empty until then).
    group_cols: Vec<ColumnBuilder>,
    /// `naggs` states per group.
    states: Vec<AggState>,
    naggs: usize,
    /// Per aggregate slot, for COUNT(DISTINCT) only: the
    /// `(group id, encoded value)` pairs seen.
    distinct: Vec<Option<KeyIndex>>,
}

impl GroupTable {
    fn new(aggs: &[AggCall]) -> GroupTable {
        GroupTable {
            index: KeyIndex::new(),
            group_cols: Vec::new(),
            states: Vec::new(),
            naggs: aggs.len(),
            distinct: aggs
                .iter()
                .map(|a| matches!(a.func, AggFunc::CountDistinct).then(KeyIndex::new))
                .collect(),
        }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Start a COUNT(DISTINCT) pair key in `key`: the group id; the
    /// caller appends the encoded value.
    fn start_pair_key(key: &mut Vec<u8>, gid: usize) {
        key.clear();
        key.extend_from_slice(&(gid as u64).to_le_bytes());
    }

    /// Fold `other`'s groups in, in its first-seen order: states of a
    /// group already here merge associatively, a new group is appended
    /// (and reported to `on_new` by its id in `other`). COUNT(DISTINCT)
    /// pair sets union, re-keyed to this table's group ids.
    fn merge_from(&mut self, other: GroupTable, mut on_new: impl FnMut(usize)) {
        let naggs = self.naggs;
        let other_groups: Vec<Column> = other
            .group_cols
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        if self.group_cols.is_empty() {
            self.group_cols = other_groups
                .iter()
                .map(|c| ColumnBuilder::new(c.dtype(), 0))
                .collect();
        }
        let mut remap = Vec::with_capacity(other.index.len());
        let mut states = other.states.into_iter();
        for og in 0..other.index.len() {
            let (gid, new) = self.index.intern(other.index.key(og));
            let group_states = states.by_ref().take(naggs);
            if new {
                for (b, c) in self.group_cols.iter_mut().zip(&other_groups) {
                    b.push_ref(c.value_ref(og))
                        .expect("partial tables share group column types");
                }
                self.states.extend(group_states.map(|st| match st {
                    // Recounted below from the pair set.
                    AggState::CountDistinct(_) => AggState::CountDistinct(0),
                    st => st,
                }));
                on_new(og);
            } else {
                let mine = &mut self.states[gid * naggs..][..naggs];
                for (d, s) in mine.iter_mut().zip(group_states) {
                    d.merge(s);
                }
            }
            remap.push(gid);
        }
        let mut key = Vec::new();
        for (slot, (mine, theirs)) in self.distinct.iter_mut().zip(other.distinct).enumerate() {
            let (Some(mine), Some(theirs)) = (mine, theirs) else {
                continue;
            };
            for pair in theirs.keys() {
                let (og, value) = pair.split_at(8);
                let og = u64::from_le_bytes(og.try_into().expect("8-byte group id")) as usize;
                GroupTable::start_pair_key(&mut key, remap[og]);
                key.extend_from_slice(value);
                if mine.intern(&key).1 {
                    // A first sighting; the state counts any non-null cell.
                    self.states[remap[og] * naggs + slot].update(ValueRef::Bool(true));
                }
            }
        }
    }
}

/// GROUP BY and aggregate-argument expressions compiled once per
/// Aggregate operator, shared across partition workers and spill passes.
struct CompiledAggExprs {
    groups: Vec<CompiledExpr>,
    args: Vec<Option<CompiledExpr>>,
}

fn compile_agg_exprs(
    groups: &[PhysExpr],
    aggs: &[AggCall],
    types: &[DataType],
) -> Result<CompiledAggExprs, CdwError> {
    Ok(CompiledAggExprs {
        groups: groups
            .iter()
            .map(|g| CompiledExpr::compile(g, types))
            .collect::<Result<_, _>>()?,
        args: aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| CompiledExpr::compile(e, types))
                    .transpose()
            })
            .collect::<Result<_, _>>()?,
    })
}

/// Evaluate the compiled GROUP BY expressions and aggregate arguments
/// over one morsel's surviving rows (dense output columns). Expressions
/// evaluate through the selection vector — a filtered partition never
/// materializes.
#[allow(clippy::type_complexity)]
fn eval_group_arg_cols(
    batch: &Batch,
    sel: Option<&[usize]>,
    compiled: &CompiledAggExprs,
    ctx: &EvalCtx,
) -> Result<(Vec<Column>, Vec<Option<Column>>), CdwError> {
    let group_cols: Vec<Column> = compiled
        .groups
        .iter()
        .map(|g| g.eval(batch, sel, ctx))
        .collect::<Result<_, _>>()?;
    let arg_cols: Vec<Option<Column>> = compiled
        .args
        .iter()
        .map(|a| a.as_ref().map(|e| e.eval(batch, sel, ctx)).transpose())
        .collect::<Result<_, _>>()?;
    Ok((group_cols, arg_cols))
}

/// Fold one chunk of pre-evaluated rows into an existing table — the
/// **only** accumulation loop in the executor, so spilled and in-memory
/// aggregation perform identical floating-point operations. Called once
/// per morsel of a partition, in morsel order, with `row_base` tracking
/// the partition-relative row offset: the per-row update sequence is the
/// same however the partition was cut. `global` forces the single
/// no-GROUP-BY entry (even over zero rows).
///
/// Two passes, neither allocating per row: first every row resolves to
/// its group id through the table's key index (new groups append their
/// key values and fresh states), then each aggregate slot folds its
/// argument column in row order — one slot at a time, so every state
/// still sees its rows in ascending order and each loop reads one typed
/// column.
///
/// `firsts` records, per group, the partition row at which that group
/// first appeared — the spilled path uses it to interleave per-bucket
/// groups back into the in-memory first-seen output order.
#[allow(clippy::too_many_arguments)]
fn accumulate_into(
    table: &mut GroupTable,
    firsts: &mut Vec<usize>,
    row_base: usize,
    group_cols: &[Column],
    arg_cols: &[Option<Column>],
    aggs: &[AggCall],
    rows: usize,
    global: bool,
) {
    let new_states = || {
        aggs.iter()
            .zip(arg_cols)
            .map(|(a, c)| AggState::new_for(&a.func, c.as_ref().map(|c| c.dtype())))
    };
    let mut gids: Vec<usize> = Vec::new();
    if global {
        if table.index.intern(&[]).1 {
            table.states.extend(new_states());
            firsts.push(0);
        }
    } else {
        if table.group_cols.is_empty() {
            table.group_cols = group_cols
                .iter()
                .map(|c| ColumnBuilder::new(c.dtype(), 0))
                .collect();
        }
        let refs: Vec<&Column> = group_cols.iter().collect();
        let keys = KeyCols::new(&refs);
        gids.reserve(rows);
        for row in 0..rows {
            let (gid, new) = table.index.intern_row(&keys, row);
            if new {
                for (b, c) in table.group_cols.iter_mut().zip(group_cols) {
                    b.push_ref(c.value_ref(row))
                        .expect("a group expression evaluates to one type");
                }
                table.states.extend(new_states());
                firsts.push(row_base + row);
            }
            gids.push(gid);
        }
    }
    let naggs = table.naggs;
    let gid = |row: usize| if global { 0 } else { gids[row] };
    let mut key = Vec::new();
    for (slot, arg) in arg_cols.iter().enumerate() {
        match (arg, &mut table.distinct[slot]) {
            (None, _) => {
                for row in 0..rows {
                    table.states[gid(row) * naggs + slot].update(ValueRef::Int(1));
                }
            }
            (Some(c), None) => {
                for row in 0..rows {
                    table.states[gid(row) * naggs + slot].update(c.value_ref(row));
                }
            }
            // COUNT(DISTINCT): only a (group, value) pair's first
            // sighting reaches the state.
            (Some(c), Some(seen)) => {
                for row in 0..rows {
                    let v = c.value_ref(row);
                    if v.is_null() {
                        continue;
                    }
                    GroupTable::start_pair_key(&mut key, gid(row));
                    hash::encode_value_ref(v, &mut key);
                    if seen.intern(&key).1 {
                        table.states[gid(row) * naggs + slot].update(v);
                    }
                }
            }
        }
    }
}

/// Merge per-partition group tables in partition-index order. `global`
/// guarantees the single no-GROUP-BY entry exists even with zero input
/// partitions (an empty table still aggregates to one row).
fn merge_group_tables(tables: Vec<GroupTable>, global: bool, aggs: &[AggCall]) -> GroupTable {
    let mut iter = tables.into_iter();
    let mut acc = iter.next().unwrap_or_else(|| GroupTable::new(aggs));
    for table in iter {
        acc.merge_from(table, |_| {});
    }
    if global && acc.index.intern(&[]).1 {
        acc.states
            .extend(aggs.iter().map(|a| AggState::new(&a.func)));
    }
    acc
}

/// Finish every group state and materialize the output batch: the group
/// key columns as accumulated, one column per aggregate slot.
fn finish_groups(table: GroupTable, schema: &Arc<Schema>) -> Result<Batch, CdwError> {
    let ngroups = table.len();
    let (group_fields, agg_fields) = schema.fields().split_at(schema.len() - table.naggs);
    let mut group_cols = table.group_cols.into_iter();
    let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
    for f in group_fields {
        // No chunk ever typed the builders: there are no groups.
        let col = group_cols
            .next()
            .map_or_else(|| Column::nulls(f.dtype, 0), ColumnBuilder::finish);
        columns.push(coerce_column(col, f.dtype)?);
    }
    let mut builders: Vec<ColumnBuilder> = agg_fields
        .iter()
        .map(|f| ColumnBuilder::new(f.dtype, ngroups))
        .collect();
    for (i, state) in table.states.into_iter().enumerate() {
        builders[i % table.naggs]
            .push(state.finish())
            .map_err(CdwError::from)?;
    }
    columns.extend(builders.into_iter().map(ColumnBuilder::finish));
    Batch::new(schema.clone(), columns).map_err(CdwError::from)
}

/// Merge per-partition partial tables and finish them. Returns the
/// batch plus the total partial-group count (the Partial operator's
/// `rows_out`) — the same pair the spilling aggregate returns.
fn merge_partials(
    tables: Vec<GroupTable>,
    global: bool,
    aggs: &[AggCall],
    schema: &Arc<Schema>,
) -> Result<(Batch, usize), CdwError> {
    let partial_rows = tables.iter().map(GroupTable::len).sum();
    let merged = merge_group_tables(tables, global, aggs);
    Ok((finish_groups(merged, schema)?, partial_rows))
}

// ---------------------------------------------------------------------
// spilling
// ---------------------------------------------------------------------

/// FNV-1a over an encoded group/join key, reduced to a bucket index. The
/// same function routes build and probe rows, so equal keys always meet
/// in the same bucket.
fn key_bucket(key: &[u8], nbuckets: usize) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % nbuckets as u64) as usize
}

/// One run's read state during the k-way merge: a streaming reader plus
/// the current page. Only one page per run is resident at a time.
struct RunCursor {
    reader: SpillReader,
    page: Option<Batch>,
    pos: usize,
}

impl RunCursor {
    fn open(handle: &SpillHandle) -> Result<RunCursor, CdwError> {
        let mut cursor = RunCursor {
            reader: handle.reader()?,
            page: None,
            pos: 0,
        };
        cursor.load_next_page()?;
        Ok(cursor)
    }

    fn load_next_page(&mut self) -> Result<(), CdwError> {
        self.pos = 0;
        // Skip zero-row pages defensively (none are written in practice).
        loop {
            self.page = self.reader.next_batch()?;
            match &self.page {
                Some(p) if p.num_rows() == 0 => continue,
                _ => return Ok(()),
            }
        }
    }

    fn advance(&mut self) -> Result<(), CdwError> {
        self.pos += 1;
        if let Some(p) = &self.page {
            if self.pos >= p.num_rows() {
                self.load_next_page()?;
            }
        }
        Ok(())
    }

    /// Original row id of the cursor's current row (the merge tiebreak).
    fn row_id(&self, kw: usize) -> i64 {
        let page = self.page.as_ref().expect("live cursor");
        page.column(kw).ints().expect("row-id column")[self.pos]
    }
}

/// Merge comparator: `(sort keys, original row id)`. Runs cover disjoint
/// ascending row ranges and each run is sorted stably, so this total
/// order is exactly what a stable in-memory sort of the whole input
/// produces. Compares key column by key column on the stack — this runs
/// once per (output row × live run), so it must not allocate.
fn cursor_cmp(
    a: &RunCursor,
    b: &RunCursor,
    kw: usize,
    keys: &[sort::SortKey],
) -> std::cmp::Ordering {
    let pa = a.page.as_ref().expect("live cursor");
    let pb = b.page.as_ref().expect("live cursor");
    for (k, key) in keys.iter().enumerate() {
        let ord = sort::compare_rows_pair(
            &[&pa.columns()[k]],
            a.pos,
            &[&pb.columns()[k]],
            b.pos,
            std::slice::from_ref(key),
        );
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.row_id(kw).cmp(&b.row_id(kw))
}

/// K-way merge spilled sorted runs into the output permutation: run
/// order and the `(keys, row id)` comparator fix the permutation,
/// whichever worker generated which run.
fn merge_spilled_runs(
    handles: &[SpillHandle],
    kw: usize,
    sort_keys: &[sort::SortKey],
    rows: usize,
) -> Result<Vec<usize>, CdwError> {
    let mut cursors: Vec<RunCursor> = handles
        .iter()
        .map(RunCursor::open)
        .collect::<Result<_, _>>()?;
    let mut merged: Vec<usize> = Vec::with_capacity(rows);
    loop {
        let mut best: Option<usize> = None;
        for i in 0..cursors.len() {
            if cursors[i].page.is_none() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(j) => {
                    if cursor_cmp(&cursors[i], &cursors[j], kw, sort_keys)
                        == std::cmp::Ordering::Less
                    {
                        i
                    } else {
                        j
                    }
                }
            });
        }
        let Some(i) = best else { break };
        merged.push(cursors[i].row_id(kw) as usize);
        cursors[i].advance()?;
    }
    debug_assert_eq!(merged.len(), rows);
    Ok(merged)
}

// ---------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------

/// Key → the rows holding it, ascending, in first-seen key order: a hash
/// join's build side (constructed once over the whole right input, then
/// probed concurrently by left morsels) and one Grace bucket's.
#[derive(Default)]
struct KeyRows {
    index: KeyIndex,
    rows: Vec<Vec<usize>>,
}

impl KeyRows {
    /// Record that `row` holds `key`. Only a key's first row stores it.
    fn push(&mut self, key: &[u8], row: usize) {
        let (id, new) = self.index.intern(key);
        if new {
            self.rows.push(Vec::new());
        }
        self.rows[id].push(row);
    }

    fn get(&self, key: &[u8]) -> &[usize] {
        self.index.find(key).map_or(&[], |id| &self.rows[id])
    }
}

/// Build the in-memory hash table over pre-evaluated right key columns —
/// `None` for cross/keyless joins, which probe the full right batch per
/// left row.
fn build_join_table(right_rows: usize, rcols: &[Column], keyed: bool) -> Option<KeyRows> {
    if !keyed {
        return None;
    }
    let rrefs: Vec<&Column> = rcols.iter().collect();
    let keys = KeyCols::new(&rrefs);
    let mut table = KeyRows::default();
    let mut key = Vec::new();
    for ri in 0..right_rows {
        // SQL join keys never match on NULL.
        if keys.any_null(ri) {
            continue;
        }
        table.push(keys.key(ri, &mut key), ri);
    }
    Some(table)
}

/// Candidate `(left, right)` pairs for one probe unit — a whole left
/// partition or a morsel slice of one. Hash probes visit left rows in
/// ascending order (per-key right matches accumulate in build order), and
/// keyless/cross joins emit the full cartesian product, so splitting a
/// partition into morsels concatenates to exactly the whole-partition
/// pair sequence.
fn probe_pairs(
    left: &Batch,
    rrows: usize,
    build: Option<&KeyRows>,
    left_keys: &[CompiledExpr],
    ctx: &EvalCtx,
    eval_ns: &AtomicU64,
) -> Result<Vec<(usize, usize)>, CdwError> {
    let lrows = left.num_rows();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    match build {
        None => {
            for li in 0..lrows {
                for ri in 0..rrows {
                    pairs.push((li, ri));
                }
            }
        }
        Some(table) => {
            let lcols: Vec<Column> = timed(eval_ns, || {
                left_keys
                    .iter()
                    .map(|k| k.eval(left, None, ctx))
                    .collect::<Result<_, _>>()
            })?;
            let lrefs: Vec<&Column> = lcols.iter().collect();
            let keys = KeyCols::new(&lrefs);
            let mut key = Vec::new();
            for li in 0..lrows {
                if keys.any_null(li) {
                    continue;
                }
                let matches = table.get(keys.key(li, &mut key));
                pairs.extend(matches.iter().map(|&ri| (li, ri)));
            }
        }
    }
    Ok(pairs)
}

/// Drop candidate pairs whose residual predicate is not TRUE (by
/// [`CompiledExpr::select`], the Filter operator's own definition). The
/// predicate applies row by row over the candidate rows stacked in the
/// join schema, so the verdict for a pair cannot depend on which probe
/// unit (partition or morsel) carried it.
#[allow(clippy::too_many_arguments)]
fn filter_residual_pairs(
    pairs: Vec<(usize, usize)>,
    left: &Batch,
    right: &Batch,
    residual: Option<&CompiledExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalCtx,
    eval_ns: &AtomicU64,
) -> Result<Vec<(usize, usize)>, CdwError> {
    let Some(pred) = residual else {
        return Ok(pairs);
    };
    if pairs.is_empty() {
        return Ok(pairs);
    }
    let lidx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let ridx: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    let candidate = hstack(schema, &left.take(&lidx), &right.take(&ridx))?;
    let kept = timed(eval_ns, || pred.select(&candidate, None, ctx))?;
    Ok(kept.into_iter().map(|i| pairs[i]).collect())
}

/// Gather join output columns for `(left idx, optional right idx)` rows;
/// a `None` right index null-extends the right half (LEFT/FULL).
///
/// Assembly is a vectorized gather per column ([`Column::take`] /
/// [`Column::take_opt`]), not a per-cell `Value` push — the old builder
/// loop allocated a `String` for every Text cell, and that malloc churn
/// (multiplied across probe workers) was what made parallel LEFT-join
/// probes slower than serial. `take_opt` writes builder-default payloads
/// into null slots, so the output stays byte-identical to the builder
/// loop it replaces.
fn assemble_join_columns(
    left: &Batch,
    right: &Batch,
    lidx: &[usize],
    ridx: &[Option<usize>],
    schema: &Arc<Schema>,
) -> Result<Batch, CdwError> {
    let lwidth = left.num_columns();
    let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
    for (c, field) in schema.fields().iter().enumerate() {
        let col = if c < lwidth {
            left.column(c).take(lidx)
        } else {
            right.column(c - lwidth).take_opt(ridx)
        };
        columns.push(coerce_column(col, field.dtype)?);
    }
    Batch::new(schema.clone(), columns).map_err(CdwError::from)
}

/// Turn one probe unit's candidate `(left, right)` pairs (ascending left
/// row) into output: residual filtering, LEFT/FULL null-extension of
/// unmatched left rows, and column assembly. Returns the matches, the
/// null-extended unmatched-left tail, and the matched right rows (FULL's
/// unmatched-right sweep needs only their union across units).
///
/// An uncut partition emits all matches followed by all unmatched lefts
/// (both ascending). A unit that is the `lone` one of its partition
/// gathers exactly that in one batch (no tail). Otherwise the tail stays
/// **separate**, so the per-partition regroup — every morsel's matches
/// in morsel order, then every morsel's tail in morsel order —
/// concatenates to the same bytes. The Grace join feeds whole-partition
/// pairs sorted into probe order through the `lone` form.
#[allow(clippy::too_many_arguments)]
fn assemble_probe_output(
    left: &Batch,
    right: &Batch,
    pairs: Vec<(usize, usize)>,
    kind: JoinKind,
    residual: Option<&CompiledExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalCtx,
    eval_ns: &AtomicU64,
    lone: bool,
) -> Result<(Batch, Option<Batch>, Vec<usize>), CdwError> {
    let pairs = filter_residual_pairs(pairs, left, right, residual, schema, ctx, eval_ns)?;
    let matched_right: Vec<usize> = if kind == JoinKind::Full {
        pairs.iter().map(|p| p.1).collect()
    } else {
        Vec::new()
    };
    let mut lidx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let mut ridx: Vec<Option<usize>> = pairs.iter().map(|p| Some(p.1)).collect();
    let mut tail = None;
    if matches!(kind, JoinKind::Left | JoinKind::Full) {
        let mut matched_left = vec![false; left.num_rows()];
        for &(li, _) in &pairs {
            matched_left[li] = true;
        }
        let unmatched = (0..left.num_rows()).filter(|&li| !matched_left[li]);
        if lone {
            lidx.extend(unmatched);
            ridx.resize(lidx.len(), None);
        } else {
            let t_lidx: Vec<usize> = unmatched.collect();
            if !t_lidx.is_empty() {
                let t_ridx = vec![None; t_lidx.len()];
                tail = Some(assemble_join_columns(
                    left, right, &t_lidx, &t_ridx, schema,
                )?);
            }
        }
    }
    let matches = assemble_join_columns(left, right, &lidx, &ridx, schema)?;
    Ok((matches, tail, matched_right))
}

/// FULL OUTER tail: right rows no probe partition matched, null-extended
/// on the left.
fn assemble_right_only(
    right: &Batch,
    unmatched: &[usize],
    schema: &Arc<Schema>,
    lwidth: usize,
) -> Result<Batch, CdwError> {
    let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
    for (c, field) in schema.fields().iter().enumerate() {
        if c < lwidth {
            columns.push(Column::nulls(field.dtype, unmatched.len()));
        } else {
            let col = right.column(c - lwidth).take(unmatched);
            columns.push(coerce_column(col, field.dtype)?);
        }
    }
    Batch::new(schema.clone(), columns).map_err(CdwError::from)
}

/// Horizontally stack two equal-length batches under the join schema.
fn hstack(schema: &Arc<Schema>, left: &Batch, right: &Batch) -> Result<Batch, CdwError> {
    let mut cols = left.columns().to_vec();
    cols.extend(right.columns().iter().cloned());
    Batch::new(schema.clone(), cols).map_err(CdwError::from)
}

/// Row-page size for Grace bucket routing (bounds the transient per-page
/// bucket index lists, not correctness).
const GRACE_PAGE_ROWS: usize = 8192;

/// Route one side's key material into per-bucket spill files. Each record
/// holds the key columns plus the global row index (and, when `part` is
/// given, a constant partition-id column for the probe side). Rows whose
/// key contains NULL are skipped — they can never match, and the
/// LEFT/FULL unmatched sweeps pick them up downstream exactly as in the
/// in-memory path.
fn spill_key_material(
    writers: &mut [SpillWriter],
    key_cols: &[Column],
    rows: usize,
    spill_schema: &Arc<Schema>,
    part: Option<usize>,
    ctx: &ExecCtx,
) -> Result<(), CdwError> {
    let nbuckets = writers.len();
    let refs: Vec<&Column> = key_cols.iter().collect();
    let keys = KeyCols::new(&refs);
    let mut key = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + GRACE_PAGE_ROWS).min(rows);
        let mut route: Vec<Vec<usize>> = vec![Vec::new(); nbuckets];
        for row in start..end {
            if keys.any_null(row) {
                continue;
            }
            route[key_bucket(keys.key(row, &mut key), nbuckets)].push(row);
        }
        for (b, idx) in route.iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let mut cols: Vec<Column> = key_cols.iter().map(|c| c.take(idx)).collect();
            cols.push(Column::from_ints(idx.iter().map(|&r| r as i64).collect()));
            if let Some(p) = part {
                cols.push(Column::from_ints(vec![p as i64; idx.len()]));
            }
            let bytes = writers[b].append(&Batch::new(spill_schema.clone(), cols)?)?;
            ctx.memory.record_spill(bytes);
        }
        start = end;
    }
    Ok(())
}

/// One Grace bucket pass: rebuild the bucket's hash table from its
/// spilled build records, probe its spilled probe records, and return the
/// global `(left, right)` pairs it matched, grouped by probe partition.
/// Pairs are unique across buckets (a pair's key lives in exactly one
/// bucket), so bucket passes commute — the caller's per-partition
/// `(left row, right row)` sort restores one canonical order no matter
/// how (or in what order) buckets ran.
fn grace_bucket_pairs(
    bh: &SpillHandle,
    ph: &SpillHandle,
    kw: usize,
    nparts: usize,
) -> Result<Vec<Vec<(usize, usize)>>, CdwError> {
    let mut pairs_per_part: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nparts];
    let mut table = KeyRows::default();
    let mut key = Vec::new();
    let mut reader = bh.reader()?;
    while let Some(rec) = reader.next_batch()? {
        let refs: Vec<&Column> = rec.columns()[..kw].iter().collect();
        let keys = KeyCols::new(&refs);
        let idx = rec.column(kw).ints().expect("__idx column");
        for (row, &ri) in idx.iter().enumerate() {
            table.push(keys.key(row, &mut key), ri as usize);
        }
    }
    let mut reader = ph.reader()?;
    while let Some(rec) = reader.next_batch()? {
        let refs: Vec<&Column> = rec.columns()[..kw].iter().collect();
        let keys = KeyCols::new(&refs);
        let idx = rec.column(kw).ints().expect("__idx column");
        let parts = rec.column(kw + 1).ints().expect("__part column");
        for (row, &li) in idx.iter().enumerate() {
            let matches = table.get(keys.key(row, &mut key));
            pairs_per_part[parts[row] as usize].extend(matches.iter().map(|&ri| (li as usize, ri)));
        }
    }
    Ok(pairs_per_part)
}

/// Grace-style memory-budgeted hash join: both sides' key material is
/// hash-partitioned into spilled bucket files; one bucket's build table
/// is resident at a time. Matched pairs carry global row indices, so
/// sorting each probe partition's pairs by `(left row, right row)`
/// restores exactly the order the in-memory probe emits (per-key right
/// matches accumulate in ascending right-row order on both paths), and
/// the shared [`assemble_probe_output`] does the rest. Returns one
/// `(batch, matched right rows)` per left partition, like the in-memory
/// probe fan-out.
///
/// The two hot phases parallelize without touching the spilled layout:
/// probe-side key expressions evaluate per morsel (the concatenated
/// columns — and therefore the bucket files — are the same at every
/// morsel height), and bucket passes run on the work-stealing scheduler
/// (byte-seeded), commuting as documented on [`grace_bucket_pairs`].
#[allow(clippy::too_many_arguments)]
fn spilled_join(
    lparts: &[Batch],
    right: &Batch,
    rcols: &[Column],
    kind: JoinKind,
    left_keys: &[CompiledExpr],
    residual: Option<&CompiledExpr>,
    schema: &Arc<Schema>,
    ctx: &ExecCtx,
    estimate: usize,
    eval_ns: &AtomicU64,
    morsels: &AtomicUsize,
) -> Result<Vec<(Batch, Vec<usize>)>, CdwError> {
    let nbuckets = ctx.memory.bucket_count(estimate);
    ctx.memory.record_rounds(nbuckets);
    let kw = rcols.len();

    // Build-side files: [key cols..., __idx].
    let mut bfields: Vec<Field> = rcols
        .iter()
        .enumerate()
        .map(|(i, c)| Field::new(format!("k{i}"), c.dtype()))
        .collect();
    bfields.push(Field::new("__idx", DataType::Int));
    let bschema = Arc::new(Schema::new(bfields.clone()));
    let mut bwriters: Vec<SpillWriter> = (0..nbuckets)
        .map(|_| SpillWriter::create())
        .collect::<Result<_, _>>()?;
    spill_key_material(&mut bwriters, rcols, right.num_rows(), &bschema, None, ctx)?;
    let bhandles: Vec<SpillHandle> = bwriters
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;

    // Probe-side files: [key cols..., __idx, __part], appended in
    // partition order.
    let mut pwriters: Vec<SpillWriter> = (0..nbuckets)
        .map(|_| SpillWriter::create())
        .collect::<Result<_, _>>()?;
    for (p, left) in lparts.iter().enumerate() {
        let lcols = pipeline::morsel_eval_columns(left, left_keys, ctx, eval_ns, morsels)?;
        let mut pfields: Vec<Field> = lcols
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("k{i}"), c.dtype()))
            .collect();
        pfields.push(Field::new("__idx", DataType::Int));
        pfields.push(Field::new("__part", DataType::Int));
        let pschema = Arc::new(Schema::new(pfields));
        spill_key_material(
            &mut pwriters,
            &lcols,
            left.num_rows(),
            &pschema,
            Some(p),
            ctx,
        )?;
    }
    let phandles: Vec<SpillHandle> = pwriters
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;

    // Bucket passes: rebuild one bucket's hash table, probe its spilled
    // probe rows, collect global (left, right) pairs per partition.
    let nparts = lparts.len();
    let per_bucket: Vec<Vec<Vec<(usize, usize)>>> = par_map(
        ctx,
        bhandles.iter().zip(&phandles).collect(),
        |(bh, ph)| (bh.bytes() + ph.bytes()) as usize,
        |(bh, ph)| grace_bucket_pairs(bh, ph, kw, nparts),
    )?;
    let mut pairs_per_part: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nparts];
    for bucket in per_bucket {
        for (p, pairs) in bucket.into_iter().enumerate() {
            pairs_per_part[p].extend(pairs);
        }
    }

    // Restore in-memory probe order, then assemble (parallel across
    // partitions, like the in-memory fan-out).
    let items: Vec<(Batch, Vec<(usize, usize)>)> = lparts
        .iter()
        .cloned()
        .zip(pairs_per_part.into_iter().map(|mut pairs| {
            pairs.sort_unstable();
            pairs
        }))
        .collect();
    par_map(
        ctx,
        items,
        |(left, pairs)| left.byte_size() + 16 * pairs.len(),
        |(left, pairs)| {
            let (batch, _, matched_right) = assemble_probe_output(
                &left, right, pairs, kind, residual, schema, &ctx.eval, eval_ns, true,
            )?;
            Ok((batch, matched_right))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sigma_value::Field;

    fn int_parts(n: usize) -> Vec<Batch> {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        (0..n)
            .map(|i| Batch::new(schema.clone(), vec![Column::from_ints(vec![i as i64])]).unwrap())
            .collect()
    }

    /// `par_map` must actually distribute work across worker threads (the
    /// wall-clock benches can't prove this on a single-core machine;
    /// thread identity can). Under work stealing one worker *could* drain
    /// the queue before the others start, so the tasks hold a latch open
    /// until a second thread arrives, bounded by a deadline.
    #[test]
    fn par_map_distributes_across_threads() {
        scheduler::grow_worker_pool_target(4);
        let catalog = Catalog::new();
        let results = HashMap::new();
        let ctx = ExecCtx {
            catalog: &catalog,
            results: &results,
            eval: EvalCtx::default(),
            parallelism: 4,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            sched: scheduler::SchedCounters::default(),
        };
        let seen = Mutex::new(std::collections::HashSet::new());
        let out = par_map(
            &ctx,
            int_parts(8),
            |_| 1,
            |b| {
                seen.lock().insert(std::thread::current().id());
                let deadline = Instant::now() + Duration::from_secs(2);
                while seen.lock().len() < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                Ok(b.num_rows())
            },
        )
        .unwrap();
        assert_eq!(out, vec![1; 8]);
        assert!(seen.lock().len() >= 2, "expected multiple worker threads");
    }

    /// Serial mode must not spawn workers at all.
    #[test]
    fn par_map_serial_stays_on_caller_thread() {
        let catalog = Catalog::new();
        let results = HashMap::new();
        let ctx = ExecCtx {
            catalog: &catalog,
            results: &results,
            eval: EvalCtx::default(),
            parallelism: 1,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            sched: scheduler::SchedCounters::default(),
        };
        let caller = std::thread::current().id();
        par_map(
            &ctx,
            int_parts(4),
            |_| 1,
            |_| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(())
            },
        )
        .unwrap();
    }

    fn test_ctx<'a>(
        catalog: &'a Catalog,
        results: &'a HashMap<String, Batch>,
        parallelism: usize,
    ) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            results,
            eval: EvalCtx::default(),
            parallelism,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            sched: scheduler::SchedCounters::default(),
        }
    }

    fn sealed_spill_files(n: usize) -> Vec<SpillHandle> {
        int_parts(n)
            .into_iter()
            .map(|b| {
                let mut w = SpillWriter::create().unwrap();
                w.append(&b).unwrap();
                w.finish().unwrap()
            })
            .collect()
    }

    /// Fault injection for the spilling operators: their per-bucket passes
    /// hand sealed [`SpillHandle`]s to `par_map` workers. Killing one
    /// worker mid-pass must surface as a single exec error AND leave the
    /// process spill directory empty — the handle held by the dying worker
    /// drops during its unwind, and every unclaimed handle drops when the
    /// scheduler's slots unwind out of `run_stealing`.
    #[test]
    fn killed_spill_worker_leaves_no_temp_files() {
        scheduler::grow_worker_pool_target(4);
        let _guard = crate::storage::spill_test_support::lock();
        let catalog = Catalog::new();
        let results = HashMap::new();
        let ctx = test_ctx(&catalog, &results, 4);
        let items: Vec<(usize, SpillHandle)> =
            sealed_spill_files(4).into_iter().enumerate().collect();
        assert_eq!(
            crate::storage::spill_test_support::live_spill_files().len(),
            4
        );
        let err = par_map(
            &ctx,
            items,
            |(_, h)| h.bytes() as usize,
            |(i, h)| {
                if i == 1 {
                    panic!("worker killed mid-spill");
                }
                Ok(h.read_all()?.len())
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("parallel worker panicked"),
            "unexpected error: {err}"
        );
        assert!(
            crate::storage::spill_test_support::live_spill_files().is_empty(),
            "killed worker leaked spill files"
        );
        assert!(crate::storage::spill_test_support::spill_dir_reclaimed());
    }

    /// Same exit path, error return instead of panic: a worker's
    /// `Err` must propagate verbatim while all spill files (in-flight and
    /// never-claimed) are removed.
    #[test]
    fn spill_worker_error_propagates_and_cleans_up() {
        scheduler::grow_worker_pool_target(4);
        let _guard = crate::storage::spill_test_support::lock();
        let catalog = Catalog::new();
        let results = HashMap::new();
        let ctx = test_ctx(&catalog, &results, 4);
        let items: Vec<(usize, SpillHandle)> =
            sealed_spill_files(6).into_iter().enumerate().collect();
        let err = par_map(
            &ctx,
            items,
            |(_, h)| h.bytes() as usize,
            |(i, h)| {
                let _ = h.read_all()?;
                if i >= 2 {
                    return Err(CdwError::exec("injected disk failure"));
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("injected disk failure"),
            "unexpected error: {err}"
        );
        assert!(
            crate::storage::spill_test_support::live_spill_files().is_empty(),
            "failed worker leaked spill files"
        );
        assert!(crate::storage::spill_test_support::spill_dir_reclaimed());
    }

    /// Partial-state merging is associative for the FP-sensitive states:
    /// merging per-partition Welford states in partition order matches a
    /// deterministic left fold, and Avg merges as sum+count.
    #[test]
    fn agg_state_merge_matches_fold() {
        let chunks: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[10.0], &[4.0, -2.5, 0.0, 7.5]];
        let mut merged = AggState::new(&AggFunc::Variance);
        for chunk in chunks {
            let mut partial = AggState::new(&AggFunc::Variance);
            for &x in chunk {
                partial.update(ValueRef::Float(x));
            }
            merged.merge(partial);
        }
        let mut serial = AggState::new(&AggFunc::Variance);
        for chunk in chunks {
            for &x in chunk {
                serial.update(ValueRef::Float(x));
            }
        }
        // Chan's combination is not bit-equal to streaming Welford, but it
        // must agree to fp tolerance — and be deterministic.
        let (Value::Float(m), Value::Float(s)) = (merged.finish(), serial.finish()) else {
            panic!("variance yields floats");
        };
        assert!((m - s).abs() < 1e-9, "{m} vs {s}");

        let mut avg = AggState::new(&AggFunc::Avg);
        avg.update(ValueRef::Float(1.0));
        let mut other = AggState::new(&AggFunc::Avg);
        other.update(ValueRef::Float(2.0));
        other.update(ValueRef::Float(6.0));
        avg.merge(other);
        assert_eq!(avg.finish(), Value::Float(3.0));
    }
}
