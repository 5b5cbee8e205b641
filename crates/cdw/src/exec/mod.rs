//! The vectorized executor: [`Plan`] → [`Batch`].
//!
//! Operators retain the storage partition structure wherever the plan
//! allows it, so work spreads across the persistent process-wide worker
//! pool (the `parallelism` knob the scaling bench sweeps,
//! clamped to the pool's execution budget — see [`scheduler`]).
//! There is one work-distribution engine: every parallel step runs its
//! items from one cost-ordered claim queue (see [`scheduler`]). Only a
//! pipeline's streaming chain cuts partitions into morsels and regroups
//! the outputs per partition in morsel order (see `pipeline`); every
//! breaker works on whole partitions. How tall a morsel is comes from
//! one function, `pipeline::morsel_height`; at an effective width of one
//! worker it is the whole partition, so serial execution is the same
//! code with every split, regroup and claim degenerate — not a second
//! executor:
//!
//! * Scan → Filter → Project chains fuse into one pipeline per morsel.
//! * `UnionAll` concatenates its inputs' partitions without collapsing.
//! * Aggregation folds each input partition into its own group table in
//!   parallel (fused with the streaming chain below it), and the tables
//!   merge associatively, in partition-index order, on the coordinating
//!   thread — so results are bit-identical at any parallelism and morsel
//!   height. DISTINCT dedups each partition in parallel, then the
//!   survivors once more across partitions, in partition order.
//! * Hash joins build the right side once and share it across the left
//!   partitions, each probed once in parallel (every join kind); each
//!   partition's matched pairs then assemble once, emitting one output
//!   part per probe partition.
//! * Sort is one stable sort of its input by the key columns; windows
//!   evaluate their expressions once and sort/compute partitions in
//!   parallel work items, scattering values back to disjoint rows.
//!
//! ## One meter per operator, one ledger per query
//!
//! Each counter is recorded once, where it happens. An operator's work
//! records into its `Meter` (expression time, morsels, and for a fused
//! chain stage its rows out and own time) from whichever worker runs it;
//! `ExecStats::close` turns the meter into the operator's [`OpStats`]
//! entry. Everything query-wide — rows and partitions scanned, spilled
//! bytes and rounds, scheduler tasks and unparks —
//! is recorded straight into the query's ledger, [`ExecCtx::stats`].
//! `ResultSet` and `explain_analyze` both read that ledger; nothing is
//! copied on the way.
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
//!   bucket files per partition, aggregates bucket by bucket (rebuilding the
//!   exact per-partition fold and ordered merge of the in-memory path
//!   inside each bucket), and interleaves the per-bucket groups back into
//!   global first-seen order by each group's first `(partition, row)`
//!   (`pipeline::spilled_aggregate`).
//! * **Sort** spills sorted runs (key columns + original row ids) in
//!   pages from parallel workers and k-way merges them by `(keys, row
//!   id)` — exactly the total order a stable in-memory sort produces.
//! * **Join** Grace-partitions the build side's key material into bucket
//!   files, builds one bucket's hash table at a time (bucket passes run
//!   on the scheduler), probes every left partition against it, then
//!   restores the in-memory probe order by sorting each partition's
//!   pairs by `(left row, right row)` and hands them to the same
//!   per-partition assembly.
//!
//! Because every spilled variant performs the *same floating-point
//! operations in the same order* as its in-memory counterpart and only
//! reorders bookkeeping, results are **bit-identical** at any budget,
//! parallelism and morsel height (pinned by `tests/spill_oracle.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sigma_sql::JoinKind;
use sigma_value::hash::{self, KeyCols, KeyIndex};
use sigma_value::{sort, Batch, Column, ColumnBuilder, DataType, Field, Schema, Value, ValueRef};

use crate::error::CdwError;
use crate::eval::{eval_sel, CompiledExpr, EvalCtx, PhysExpr};
use crate::plan::{AggCall, AggFunc, Plan};
use crate::storage::{SpillHandle, SpillReader, SpillWriter};

pub(crate) mod pipeline;
pub mod scheduler;
pub(crate) use scheduler::par_map;

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

/// A count the executor bumps from any worker. Relaxed: totals are read
/// only after the work that records them has joined.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicUsize);

impl Counter {
    pub(crate) fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// What one operator's work records while it runs, from any worker;
/// [`ExecStats::close`] turns it into the operator's [`OpStats`] entry.
#[derive(Debug, Default)]
pub(crate) struct Meter {
    /// Nanoseconds spent evaluating scalar expressions.
    pub(crate) eval_ns: Counter,
    /// Work units the operator ran (see [`OpStats::morsels`]).
    pub(crate) morsels: Counter,
    /// Rows the operator emitted.
    pub(crate) rows_out: Counter,
    /// Fused chain stages only: the time morsels spent inside the stage
    /// (evaluation plus selection / batch assembly), which stands in for
    /// the wall clock such a stage does not have.
    pub(crate) wall_ns: Counter,
}

impl Meter {
    /// Time one expression evaluation into `eval_ns`.
    pub(crate) fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.eval_ns.add(started.elapsed().as_nanos() as usize);
        out
    }
}

/// Execution context: settings plus the query's ledger. It borrows no
/// store — a plan carries every batch it reads (see
/// [`crate::planner::Planner`]), so no lock is held while a query runs.
pub struct ExecCtx {
    pub eval: EvalCtx,
    /// Worker threads for partition-parallel stages (1 = serial).
    pub parallelism: usize,
    /// How pipelines cut their input into morsels. Read only through
    /// `ExecCtx::morsel_height`.
    pub morsel_sizing: MorselSizing,
    /// The per-operator memory budget policy.
    pub memory: ExecMemoryTracker,
    /// The query's ledger: every operator, scan, spill and scheduler
    /// call records into it.
    pub stats: ExecStats,
}

impl ExecCtx {
    /// Worker slots this query can actually occupy: the configured
    /// per-query `parallelism` clamped to the process-wide pool target.
    pub fn effective_parallelism(&self) -> usize {
        scheduler::effective_workers(self.parallelism)
    }

    /// Morsel height for a pipeline over an input of `shape` — every
    /// caller (streaming chains, the fused aggregate fold, window
    /// items) asks here, nothing else looks at `morsel_sizing`.
    pub(crate) fn morsel_height(&self, shape: impl FnOnce() -> pipeline::InputShape) -> usize {
        pipeline::morsel_height(self.morsel_sizing, self.effective_parallelism(), shape)
    }
}

/// The per-operator byte budget and what it implies for an operator's
/// out-of-core plan.
///
/// The budget is **per operator instance**: each aggregation, sort, or
/// join build checks the bytes its in-memory state would need (estimated
/// from its input — deterministic, never sampled) and runs out-of-core
/// when the estimate exceeds the budget. What spilled is recorded in the
/// query's [`ExecStats`].
#[derive(Debug)]
pub struct ExecMemoryTracker {
    /// `None` = unbudgeted: all operator state stays in memory.
    budget: Option<usize>,
}

/// Widest fan-out for spilling aggregation / Grace join buckets.
const MAX_SPILL_BUCKETS: usize = 64;
/// Most sorted runs an external sort will create.
const MAX_SORT_RUNS: usize = 64;

impl ExecMemoryTracker {
    pub fn new(budget: Option<usize>) -> ExecMemoryTracker {
        ExecMemoryTracker { budget }
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
}

/// Per-operator execution counters, recorded in plan pre-order except
/// that a join records its build (right) input before its probe (left).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// The operator's [`Plan::label`], its line in [`Plan::explain`]
    /// (e.g. `Aggregate (groups=1, aggs=2)`).
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
    /// Work units this operator ran: the morsels a streaming stage or
    /// an aggregate cut its input into (an uncut partition counts
    /// as one), one per left partition for a join, one for a sort, a
    /// window's work items; 0 for scans, limits, unions, distinct.
    pub morsels: usize,
}

/// One query's ledger: its per-operator entries and its query-wide
/// counters, each recorded once where it happens (see the module docs).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Per-operator breakdown in plan pre-order (root first), opened and
    /// closed by [`ExecStats::open`] / [`ExecStats::close`].
    operators: Mutex<Vec<OpStats>>,
    pub(crate) rows_scanned: Counter,
    pub(crate) partitions_scanned: Counter,
    /// The memory budget the query ran under (`None` = unbounded).
    memory_budget: Option<usize>,
    /// Bytes written to spill files (0 when everything stayed in memory).
    pub(crate) spilled_bytes: Counter,
    /// Spill rounds taken: aggregation/join bucket passes plus sort runs.
    pub(crate) spill_rounds: Counter,
    /// Parallel tasks dispatched through the worker pool, serial inline
    /// runs included.
    pub(crate) sched_tasks: Counter,
    /// Parked pool workers woken for this query's jobs.
    pub(crate) sched_unparks: Counter,
}

impl ExecStats {
    /// An empty ledger for a query running under `memory_budget`.
    pub fn new(memory_budget: Option<usize>) -> ExecStats {
        ExecStats {
            memory_budget,
            ..ExecStats::default()
        }
    }

    /// The per-operator breakdown, in plan pre-order.
    pub fn into_operators(self) -> Vec<OpStats> {
        self.operators.into_inner()
    }

    /// Open `plan`'s entry at `depth` and return its slot. Called before
    /// anything below the operator records, so entries stay in plan
    /// pre-order.
    fn open(&self, plan: &Plan, depth: usize) -> usize {
        let mut ops = self.operators.lock();
        ops.push(OpStats {
            op: plan.label(),
            depth,
            rows_in: 0,
            rows_out: 0,
            partitions: 0,
            elapsed: Duration::ZERO,
            eval_ns: 0,
            morsels: 0,
        });
        ops.len() - 1
    }

    /// Close the entry at `slot` from its operator's meter. Every child
    /// closed before it, so `rows_in` sums their final `rows_out`.
    fn close(&self, slot: usize, meter: &Meter, elapsed: Duration, partitions: usize) {
        let mut ops = self.operators.lock();
        let depth = ops[slot].depth;
        let rows_in = ops[slot + 1..]
            .iter()
            .take_while(|o| o.depth > depth)
            .filter(|o| o.depth == depth + 1)
            .map(|o| o.rows_out)
            .sum();
        let op = &mut ops[slot];
        op.rows_in = rows_in;
        op.rows_out = meter.rows_out.get();
        op.partitions = partitions;
        op.elapsed = elapsed;
        op.eval_ns = meter.eval_ns.get() as u64;
        op.morsels = meter.morsels.get();
    }

    /// A closed entry's elapsed time.
    fn elapsed(&self, slot: usize) -> Duration {
        self.operators.lock()[slot].elapsed
    }

    /// Render the per-operator breakdown as an indented tree
    /// (EXPLAIN ANALYZE-style), with memory and scheduler footers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in self.operators.lock().iter() {
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
            self.spilled_bytes.get(),
            self.spill_rounds.get(),
        ));
        out.push_str(&format!(
            "scheduler: tasks={} unparks={}\n",
            self.sched_tasks.get(),
            self.sched_unparks.get(),
        ));
        out
    }
}

/// Execute a plan to a single batch, recording into `ctx.stats`.
pub fn execute(plan: &Plan, ctx: &ExecCtx) -> Result<Batch, CdwError> {
    let parts = execute_parts(plan, ctx, 0)?;
    concat_parts(parts, plan.schema())
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

/// Record one operator: open its entry, run `body` on a fresh meter, and
/// close the entry from the meter with the body's wall clock. `body`
/// records the rows it emits into the meter and returns its output
/// partition count with its output.
fn metered<T>(
    ctx: &ExecCtx,
    plan: &Plan,
    depth: usize,
    body: impl FnOnce(&Meter) -> Result<(usize, T), CdwError>,
) -> Result<T, CdwError> {
    let slot = ctx.stats.open(plan, depth);
    let started = Instant::now();
    let meter = Meter::default();
    let (partitions, out) = body(&meter)?;
    ctx.stats.close(slot, &meter, started.elapsed(), partitions);
    Ok(out)
}

/// Execute retaining partition structure, recording `plan`'s entry (a
/// fused chain records one per node).
fn execute_parts(plan: &Plan, ctx: &ExecCtx, depth: usize) -> Result<Vec<Part>, CdwError> {
    match plan {
        // The whole Filter/Project chain below this node fuses into one
        // pipeline, which records every chain node's entry.
        Plan::Filter { .. } | Plan::Project { .. } => pipeline::execute_chain(plan, ctx, depth),
        _ => metered(ctx, plan, depth, |meter| {
            let parts = execute_node(plan, ctx, depth, meter)?;
            meter.rows_out.add(parts.iter().map(Part::rows).sum());
            Ok((parts.len(), parts))
        }),
    }
}

fn execute_node(
    plan: &Plan,
    ctx: &ExecCtx,
    depth: usize,
    meter: &Meter,
) -> Result<Vec<Part>, CdwError> {
    match plan {
        Plan::Scan { stored, .. } => {
            ctx.stats.rows_scanned.add(stored.num_rows());
            ctx.stats.partitions_scanned.add(stored.partitions().len());
            Ok(stored.partitions().iter().cloned().map(Part::new).collect())
        }
        Plan::Values { batch } => Ok(vec![Part::new(batch.clone())]),
        Plan::Filter { .. } | Plan::Project { .. } => {
            unreachable!("execute_parts runs a chain through pipeline::execute_chain")
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
        } => {
            // Each input part folds into its own group table, the parts
            // in parallel; the tables merge in part order (deterministic
            // at any parallelism).
            let cagg = compile_agg_exprs(groups, aggs, &input_types(input))?;
            let global = groups.is_empty();
            // Unbudgeted, the fold fuses with the streaming chain below
            // it. A budget needs that chain's output first: the group
            // tables hold keys and values derived from every input row,
            // so total input bytes is the deterministic upper-bound state
            // estimate.
            let batch = if ctx.memory.budget().is_none() {
                let tables =
                    pipeline::execute_fused_partial(input, &cagg, aggs, ctx, depth + 1, meter)?;
                finish_groups(merge_group_tables(tables, global, aggs), schema)?
            } else {
                let parts = execute_parts(input, ctx, depth + 1)?;
                let est: usize = parts.iter().map(Part::est_bytes).sum();
                if !global && ctx.memory.should_spill(est) {
                    pipeline::spilled_aggregate(&parts, &cagg, aggs, schema, ctx, est, meter)?
                } else {
                    let tables = pipeline::fold_partial(
                        &parts,
                        &Default::default(),
                        &cagg,
                        aggs,
                        ctx,
                        meter,
                    )?;
                    finish_groups(merge_group_tables(tables, global, aggs), schema)?
                }
            };
            Ok(vec![Part::new(batch)])
        }
        Plan::Window {
            input,
            calls,
            schema,
        } => {
            let batch = concat_parts(execute_parts(input, ctx, depth + 1)?, input.schema())?;
            let mut cols: Vec<Column> = batch.columns().to_vec();
            for (i, call) in calls.iter().enumerate() {
                let out_type = schema.field(batch.num_columns() + i).dtype;
                let col = crate::window::compute_window(call, &batch, out_type, ctx, meter)?;
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
            // the left partitions' probes.
            let right_batch = concat_parts(execute_parts(right, ctx, depth + 1)?, right.schema())?;
            // Probe partitions materialize here: the probe needs every
            // left column for output assembly anyway. Key expressions
            // still evaluate through the vectorized kernels.
            let lparts: Vec<Batch> = execute_parts(left, ctx, depth + 1)?
                .into_iter()
                .map(Part::materialize)
                .collect();
            let keyed = *kind != JoinKind::Cross && !left_keys.is_empty();
            let rcols: Vec<Column> = if keyed {
                meter.timed(|| {
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
            let rrows = right_batch.num_rows();
            // Either path pairs each left partition whole.
            meter.morsels.add(lparts.len());
            let pairs = if keyed && ctx.memory.should_spill(est) {
                spilled_join(&lparts, &rcols, rrows, &lkeys, ctx, est, meter)?
            } else {
                let build = build_join_table(rrows, &rcols, keyed);
                par_map(
                    ctx,
                    lparts.iter().collect(),
                    |left| left.byte_size(),
                    |left| probe_pairs(left, rrows, build.as_ref(), &lkeys, &ctx.eval, meter),
                )?
            };
            // Either path's pairs assemble once per left partition, the
            // partitions in parallel.
            let probes = par_map(
                ctx,
                lparts.iter().zip(pairs).collect(),
                |(left, pairs)| left.byte_size() + 16 * pairs.len(),
                |(left, pairs)| {
                    assemble_probe_output(
                        left,
                        &right_batch,
                        pairs,
                        *kind,
                        cresidual.as_ref(),
                        schema,
                        &ctx.eval,
                        meter,
                    )
                },
            )?;
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
            let batch = concat_parts(execute_parts(input, ctx, depth + 1)?, input.schema())?;
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
            Ok(vec![Part::new(pipeline::sort_batch(
                &batch, &compiled, &sort_keys, ctx, meter,
            )?)])
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let batch = concat_parts(execute_parts(input, ctx, depth + 1)?, input.schema())?;
            let start = (*offset as usize).min(batch.num_rows());
            let len = match limit {
                Some(l) => (*l as usize).min(batch.num_rows() - start),
                None => batch.num_rows() - start,
            };
            Ok(vec![Part::new(batch.slice(start, len))])
        }
        Plan::UnionAll { inputs, schema } => {
            // Keep every input's partition structure (no collapsing), so
            // an aggregate or distinct above the union stays parallel.
            let mut parts = Vec::new();
            for input in inputs {
                for p in execute_parts(input, ctx, depth + 1)? {
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
        Plan::Distinct { input } => {
            // Each part dedups in parallel, as a refined selection, so a
            // filtered part never materializes; with more than one part
            // the survivors then dedup globally, in part order.
            let parts = par_map(
                ctx,
                execute_parts(input, ctx, depth + 1)?,
                |p| p.est_bytes(),
                |p| {
                    let keep = distinct_indices(&p.batch, p.sel(), &mut KeyIndex::new());
                    Ok(Part {
                        batch: p.batch,
                        sel: Some(keep),
                    })
                },
            )?;
            let parts = if parts.len() > 1 {
                let mut seen = KeyIndex::new();
                parts
                    .into_iter()
                    .map(|p| {
                        let keep = distinct_indices(&p.batch, p.sel(), &mut seen);
                        Part {
                            batch: p.batch,
                            sel: Some(keep),
                        }
                    })
                    .collect()
            } else {
                parts
            };
            Ok(vec![Part::new(concat_parts(parts, input.schema())?)])
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
    crate::eval::kernels::cast(&col, target, true)
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
    /// is not kept per group: the owning `GroupTable` holds one key
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
    ///   `GroupTable::merge_from` as it unions the `(group, value)` sets,
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

/// Evaluate `exprs` over every row of `batch`.
pub(crate) fn eval_columns(
    exprs: &[CompiledExpr],
    batch: &Batch,
    ctx: &EvalCtx,
) -> Result<Vec<Column>, CdwError> {
    exprs.iter().map(|e| e.eval(batch, None, ctx)).collect()
}

/// Evaluate the compiled GROUP BY expressions and aggregate arguments
/// over one morsel's or partition's surviving rows (dense output
/// columns). Expressions evaluate through the selection vector — a
/// filtered partition never materializes.
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
/// same however the partition was cut (the spilled path calls it once
/// per partition's bucket record). `global` forces the single
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
/// probed concurrently by the left partitions) and one Grace bucket's.
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

/// Candidate `(left, right)` pairs for one left partition, in partition
/// coordinates. Hash probes visit left rows in ascending order (per-key
/// right matches accumulate in build order), and keyless/cross joins
/// emit the full cartesian product.
fn probe_pairs(
    left: &Batch,
    rrows: usize,
    build: Option<&KeyRows>,
    left_keys: &[CompiledExpr],
    ctx: &EvalCtx,
    meter: &Meter,
) -> Result<Vec<(usize, usize)>, CdwError> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    match build {
        None => {
            for li in 0..left.num_rows() {
                for ri in 0..rrows {
                    pairs.push((li, ri));
                }
            }
        }
        Some(table) => {
            let lcols = meter.timed(|| eval_columns(left_keys, left, ctx))?;
            let lrefs: Vec<&Column> = lcols.iter().collect();
            let keys = KeyCols::new(&lrefs);
            let mut key = Vec::new();
            for li in 0..left.num_rows() {
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

/// One left partition's join output from its candidate `(left, right)`
/// pairs in probe order (ascending left row, partition coordinates): the
/// one assembly both the in-memory probe and the Grace join end in.
///
/// It drops pairs whose residual is not TRUE (by
/// [`CompiledExpr::select`], the Filter operator's own definition, row by
/// row over the candidates stacked in the join schema), appends the
/// null-extended unmatched left rows (ascending) for LEFT/FULL, and
/// gathers every output column once. It also returns the matched right
/// rows: FULL's unmatched-right sweep needs only their union across
/// partitions.
///
/// The gather is vectorized per column ([`Column::take`] /
/// [`Column::take_opt`]), not a per-cell `Value` push — the old builder
/// loop allocated a `String` for every Text cell, and that malloc churn
/// (multiplied across probe workers) was what made parallel LEFT-join
/// probes slower than serial. `take_opt` writes builder-default payloads
/// into null slots, so the output stays byte-identical to the builder
/// loop it replaced.
#[allow(clippy::too_many_arguments)]
fn assemble_probe_output(
    left: &Batch,
    right: &Batch,
    mut pairs: Vec<(usize, usize)>,
    kind: JoinKind,
    residual: Option<&CompiledExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalCtx,
    meter: &Meter,
) -> Result<(Batch, Vec<usize>), CdwError> {
    if let Some(pred) = residual.filter(|_| !pairs.is_empty()) {
        let lidx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let ridx: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let candidate = hstack(schema, &left.take(&lidx), &right.take(&ridx))?;
        let kept = meter.timed(|| pred.select(&candidate, None, ctx))?;
        pairs = kept.iter().map(|&i| pairs[i]).collect();
    }
    let matched_right: Vec<usize> = if kind == JoinKind::Full {
        pairs.iter().map(|p| p.1).collect()
    } else {
        Vec::new()
    };
    let mut lidx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let mut ridx: Vec<Option<usize>> = pairs.iter().map(|p| Some(p.1)).collect();
    if matches!(kind, JoinKind::Left | JoinKind::Full) {
        let mut matched_left = vec![false; left.num_rows()];
        for &li in &lidx {
            matched_left[li] = true;
        }
        lidx.extend((0..left.num_rows()).filter(|&li| !matched_left[li]));
        ridx.resize(lidx.len(), None);
    }
    let lwidth = left.num_columns();
    let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
    for (c, field) in schema.fields().iter().enumerate() {
        let col = if c < lwidth {
            left.column(c).take(&lidx)
        } else {
            right.column(c - lwidth).take_opt(&ridx)
        };
        columns.push(coerce_column(col, field.dtype)?);
    }
    Ok((Batch::new(schema.clone(), columns)?, matched_right))
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
            ctx.stats.spilled_bytes.add(bytes);
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

/// Grace-style memory-budgeted hash join pairing: both sides' key
/// material is hash-partitioned into spilled bucket files; one bucket's
/// build table is resident at a time. Matched pairs carry partition row
/// indices, so sorting each left partition's pairs by `(left row, right
/// row)` restores exactly the order the in-memory probe emits (per-key
/// right matches accumulate in ascending right-row order on both paths).
/// Returns those pairs per left partition, like the in-memory
/// [`probe_pairs`], for the shared [`assemble_probe_output`].
///
/// Probe-side key expressions evaluate once per left partition; bucket
/// passes run through `par_map`, largest bucket first, commuting as
/// documented on [`grace_bucket_pairs`].
fn spilled_join(
    lparts: &[Batch],
    rcols: &[Column],
    rrows: usize,
    left_keys: &[CompiledExpr],
    ctx: &ExecCtx,
    estimate: usize,
    meter: &Meter,
) -> Result<Vec<Vec<(usize, usize)>>, CdwError> {
    let nbuckets = ctx.memory.bucket_count(estimate);
    ctx.stats.spill_rounds.add(nbuckets);
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
    spill_key_material(&mut bwriters, rcols, rrows, &bschema, None, ctx)?;
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
        let lcols = meter.timed(|| eval_columns(left_keys, left, &ctx.eval))?;
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
    // Restore in-memory probe order.
    for pairs in &mut pairs_per_part {
        pairs.sort_unstable();
    }
    Ok(pairs_per_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::Field;

    fn int_parts(n: usize) -> Vec<Batch> {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        (0..n)
            .map(|i| Batch::new(schema.clone(), vec![Column::from_ints(vec![i as i64])]).unwrap())
            .collect()
    }

    /// `par_map` must actually distribute work across worker threads (the
    /// wall-clock benches can't prove this on a single-core machine;
    /// thread identity can). With one shared cursor one worker *could* drain
    /// the queue before the others start, so the tasks hold a latch open
    /// until a second thread arrives, bounded by a deadline.
    #[test]
    fn par_map_distributes_across_threads() {
        scheduler::grow_worker_pool_target(4);
        let ctx = ExecCtx {
            eval: EvalCtx::default(),
            parallelism: 4,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            stats: ExecStats::default(),
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
        let ctx = ExecCtx {
            eval: EvalCtx::default(),
            parallelism: 1,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            stats: ExecStats::default(),
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

    fn test_ctx(parallelism: usize) -> ExecCtx {
        ExecCtx {
            eval: EvalCtx::default(),
            parallelism,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            stats: ExecStats::default(),
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
    /// scheduler's slots unwind out of `par_map`.
    #[test]
    fn killed_spill_worker_leaves_no_temp_files() {
        scheduler::grow_worker_pool_target(4);
        let _guard = crate::storage::spill_test_support::lock();
        let ctx = test_ctx(4);
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
        let ctx = test_ctx(4);
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
