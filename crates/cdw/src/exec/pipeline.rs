//! Push-based morsel pipelines over the selection-vector kernels — the
//! executor's only work-distribution engine.
//!
//! A physical plan decomposes into pipelines broken only at the operators
//! that must see their whole input (sort, merging aggregate/distinct,
//! window, limit, and a join's build side — see
//! [`Plan::is_pipeline_breaker`]). Inside a pipeline, the maximal
//! Filter/Project chain ([`Plan::stream_chain`]) compiles once and runs
//! **fused per morsel**: each slice of a source partition flows through
//! every stage while hot, filters refining a selection vector over the
//! shared partition batch without copying.
//!
//! ## One engine, one height function
//!
//! How tall a morsel is — and therefore whether a partition is cut at
//! all — is decided in exactly one place, [`morsel_height`], from the
//! configured [`MorselSizing`], the *effective* worker width (the
//! per-query `parallelism` clamped to the pool budget) and the
//! pipeline's input shape. No operator branches on a mode:
//!
//! * At effective width 1 the height is "whole partition" for every
//!   sizing: with nobody to steal, cutting is pure overhead. Each
//!   partition is then one whole-batch morsel ([`Morsel::initial_sel`]
//!   is `None`, so the kernels take their no-selection path), every
//!   regroup is the identity ([`merge_partition`] returns a lone output
//!   untouched) and [`scheduler::run_stealing`] runs inline on the
//!   caller. This is what every default-configured warehouse executes.
//! * Wider, `Derived` cuts by byte target and stealable-unit count,
//!   `Fixed(n)` cuts every `n` rows (the oracle sweeps force 3-row
//!   morsels), and `WholePartition` never cuts.
//!
//! Morsels are distributed by the LPT-seeded work-stealing scheduler
//! ([`super::scheduler`]), so one oversized partition does not serialize
//! a query: its morsels spread across all workers.
//!
//! ## Why cutting and stealing can't change results
//!
//! Execution order is free; *merge* order is pinned. Every morsel is
//! tagged by `(partition, morsel index)` at creation, results land in
//! per-morsel slots, and outputs regroup per partition in morsel order —
//! a pure function of the input, independent of which worker ran what
//! when. Three sinks consume morsels:
//!
//! * **Collect** (generic consumers): a partition's morsel outputs merge
//!   back into one part per source partition — filter chains by
//!   concatenating the (disjoint, ascending) per-morsel selections over
//!   the original batch, projected chains by concatenating the dense
//!   morsel batches. Downstream operators therefore see the *identical
//!   partition structure* at every height, which the two-phase aggregate
//!   merge relies on for bit-identical floats.
//! * **Partial aggregation**: group/argument expressions evaluate per
//!   morsel in parallel, but each partition's pre-evaluated morsels fold
//!   *sequentially in morsel order* into one group table — the same
//!   row-visit order (and therefore the same FP accumulation sequence)
//!   as one whole-partition pass. Partials still merge in
//!   partition-index order.
//! * **Join probe** (every kind): left-partition morsels probe the
//!   shared build table independently; per-partition outputs
//!   re-concatenate in morsel order, exactly the left-row-ascending
//!   order an uncut probe emits. LEFT/FULL morsels keep their
//!   null-extended unmatched tails separate so the regroup emits all of
//!   a partition's matches first, then its tails, both in morsel order
//!   (see [`morsel_probe`]).
//!
//! Sort and window run through [`morsel_sort`] and
//! [`crate::window::compute_window`]: per-morsel key/expression
//! evaluation in parallel, then stable k-way merges / partition-parallel
//! compute pinned to the `(keys, row id)` total order.
//!
//! Under a memory budget the sinks spill **per pipeline**: budgeted
//! aggregation routes and spills bucket records per morsel
//! ([`morsel_spilled_aggregate`]), budgeted sorts generate their
//! budget-derived runs on parallel workers, and the Grace join's key
//! evaluation and bucket passes distribute via the same scheduler.
//!
//! The equivalence oracles compare a cut schedule against the uncut one
//! (`parallelism = 1`, [`MorselSizing::WholePartition`]): same engine,
//! every split/regroup/steal step degenerate. What they pin is that
//! cutting, regrouping, stealing, pooling and spilling never change a
//! byte; what a query *means* is pinned independently by `sql_exec`,
//! `eval_oracle`, the scenario suites and sigma-e2e's flattened-SQL check.

use std::cell::LazyCell;

use super::*;

/// How a pipeline's input is cut into morsels. A test/bench pin, not a
/// product knob: results are bit-identical at every value, and no
/// product caller sets it. The oracles need `Fixed(3)` to force
/// multi-morsel regrouping on tiny inputs and `WholePartition` for the
/// uncut reference lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MorselSizing {
    /// Derive each pipeline's height from its input shape and the
    /// effective worker width (see [`morsel_height`]).
    #[default]
    Derived,
    /// Cut every `n` rows (clamped to at least 1).
    Fixed(usize),
    /// Never split a partition: one morsel per partition.
    WholePartition,
}

/// Floor for derived morsel heights: below this the per-morsel dispatch
/// and selection bookkeeping dominate the kernel work.
const MIN_MORSEL_ROWS: usize = 256;
/// Ceiling for derived morsel heights: above this a skewed partition
/// yields too few stealable units to balance.
const MAX_MORSEL_ROWS: usize = 64 * 1024;
/// Bytes one derived morsel should cover — roughly cache-resident for a
/// handful of columns, amortizing dispatch without evicting the working
/// set between fused stages.
const MORSEL_TARGET_BYTES: usize = 256 * 1024;

/// A morsel height no partition exceeds: one morsel per partition.
const WHOLE_PARTITION: usize = usize::MAX;

/// What [`morsel_height`] derives from: a pipeline input's surviving
/// rows, byte estimate, and largest partition.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InputShape {
    pub rows: usize,
    pub bytes: usize,
    pub largest: usize,
}

impl InputShape {
    fn add(&mut self, rows: usize, bytes: usize) {
        self.rows += rows;
        self.bytes += bytes;
        self.largest = self.largest.max(rows);
    }

    fn of_parts(parts: &[Part]) -> InputShape {
        let mut shape = InputShape::default();
        for p in parts {
            shape.add(p.rows(), p.est_bytes());
        }
        shape
    }

    /// Shape of whole-batch partitions (probe sides, sort/window inputs).
    pub(crate) fn of_batches<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> InputShape {
        let mut shape = InputShape::default();
        for b in batches {
            shape.add(b.num_rows(), b.byte_size());
        }
        shape
    }
}

/// The one place morsel height is decided, and the only interpreter of
/// [`MorselSizing`]. `workers` is the **effective** width — the
/// per-query `parallelism` clamped to the pool budget
/// ([`ExecCtx::effective_parallelism`]), never the requested one.
///
/// At width 1 the answer is [`WHOLE_PARTITION`] for every sizing — with
/// nobody to steal, cutting buys nothing. `shape` is only measured when
/// deriving.
///
/// `Derived` picks a height small enough that [`MORSEL_TARGET_BYTES`] of
/// input fit in one morsel *and* that the largest partition splits into
/// at least four stealable units per worker (so one oversized partition
/// cannot serialize the tail of a query), clamped to
/// `[MIN_MORSEL_ROWS, MAX_MORSEL_ROWS]`. Purely a scheduling choice:
/// every sink merges per-morsel outputs in morsel order, so results are
/// bit-identical at any height (the equivalence oracles sweep explicit
/// sizes to prove it).
pub(crate) fn morsel_height(
    sizing: MorselSizing,
    workers: usize,
    shape: impl FnOnce() -> InputShape,
) -> usize {
    if workers <= 1 {
        return WHOLE_PARTITION;
    }
    match sizing {
        MorselSizing::WholePartition => WHOLE_PARTITION,
        MorselSizing::Fixed(n) => n.max(1),
        MorselSizing::Derived => {
            let shape = shape();
            let bytes_per_row = (shape.bytes / shape.rows.max(1)).max(1);
            let by_bytes = (MORSEL_TARGET_BYTES / bytes_per_row).max(1);
            let by_split = shape.largest.div_ceil(4 * workers).max(1);
            by_bytes
                .min(by_split)
                .clamp(MIN_MORSEL_ROWS, MAX_MORSEL_ROWS)
        }
    }
}

/// Per-item cost for LPT seeding: `rows`' share of an input of
/// `total_bytes` over `total_rows`. Sorted runs, window partitions, and
/// probe morsels seed with real byte estimates — not bare row counts —
/// so one giant item can't land last on an already-loaded worker.
pub(crate) fn byte_cost(rows: usize, total_bytes: usize, total_rows: usize) -> usize {
    rows.saturating_mul((total_bytes / total_rows.max(1)).max(1))
        .max(1)
}

/// Split `0..rows` into ranges of at most `chunk` rows (at least one
/// range, even for zero rows).
pub(crate) fn range_chunks(rows: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(rows.div_ceil(chunk).max(1));
    let mut start = 0;
    loop {
        let end = chunk.saturating_add(start).min(rows);
        out.push(start..end);
        start = end;
        if start >= rows {
            break;
        }
    }
    out
}

/// One unit of pipeline work: a slice of one source partition's
/// surviving rows (all of them when the partition fits the morsel
/// height), borrowing the partition batch from the coordinator (no
/// per-morsel copy).
struct Morsel<'a> {
    batch: &'a Batch,
    rows: MorselRows<'a>,
}

enum MorselRows<'a> {
    /// Dense batch rows `start..end` (source part had no selection).
    Range(std::ops::Range<usize>),
    /// A slice of the source part's selection vector (original-batch
    /// coordinates).
    Chunk(&'a [usize]),
}

impl Morsel<'_> {
    fn len(&self) -> usize {
        match &self.rows {
            MorselRows::Range(r) => r.len(),
            MorselRows::Chunk(c) => c.len(),
        }
    }

    /// Initial selection state: `None` iff the morsel covers the whole
    /// batch densely, so an uncut partition takes the kernels'
    /// no-selection path.
    fn initial_sel(&self) -> Option<Vec<usize>> {
        match &self.rows {
            MorselRows::Range(r) if r.start == 0 && r.end == self.batch.num_rows() => None,
            MorselRows::Range(r) => Some(r.clone().collect()),
            MorselRows::Chunk(c) => Some(c.to_vec()),
        }
    }
}

/// Split source parts into morsels, partition-major. Also returns the
/// morsel count per partition for regrouping. Every partition emits at
/// least one morsel — empty partitions must stay represented so the
/// output keeps the source partition structure.
fn morselize(parts: &[Part], morsel_rows: usize) -> (Vec<Morsel<'_>>, Vec<usize>) {
    let morsel_rows = morsel_rows.max(1);
    let mut morsels = Vec::new();
    let mut counts = Vec::with_capacity(parts.len());
    for part in parts {
        let before = morsels.len();
        match part.sel() {
            Some([]) => morsels.push(Morsel {
                batch: &part.batch,
                rows: MorselRows::Chunk(&[]),
            }),
            Some(sel) => {
                for chunk in sel.chunks(morsel_rows) {
                    morsels.push(Morsel {
                        batch: &part.batch,
                        rows: MorselRows::Chunk(chunk),
                    });
                }
            }
            None => {
                for range in range_chunks(part.batch.num_rows(), morsel_rows) {
                    morsels.push(Morsel {
                        batch: &part.batch,
                        rows: MorselRows::Range(range),
                    });
                }
            }
        }
        counts.push(morsels.len() - before);
    }
    (morsels, counts)
}

/// One compiled streaming stage.
enum Stage {
    Filter(CompiledExpr),
    Project {
        exprs: Vec<CompiledExpr>,
        schema: Arc<Schema>,
    },
}

/// Per-stage counters, accumulated concurrently by morsel workers.
#[derive(Default)]
struct StageCounters {
    rows_out: AtomicUsize,
    eval_ns: AtomicU64,
    /// Time morsels spent inside this stage (evaluation plus selection /
    /// batch assembly) — what the fused chain's nodes report as their
    /// own share of `elapsed`.
    wall_ns: AtomicU64,
}

/// A Filter/Project chain compiled once for fused per-morsel execution.
/// `stages` is in execution order — source side first, the reverse of
/// the top-down plan order `Plan::stream_chain` returns. The default
/// (empty) chain passes morsels through unchanged.
#[derive(Default)]
pub(super) struct CompiledChain {
    stages: Vec<Stage>,
    counters: Vec<StageCounters>,
}

fn compile_chain(chain: &[&Plan]) -> Result<CompiledChain, CdwError> {
    let mut stages = Vec::with_capacity(chain.len());
    for node in chain.iter().rev() {
        stages.push(match node {
            Plan::Filter { input, predicate } => {
                Stage::Filter(CompiledExpr::compile(predicate, &input_types(input))?)
            }
            Plan::Project {
                input,
                exprs,
                schema,
            } => Stage::Project {
                exprs: exprs
                    .iter()
                    .map(|e| CompiledExpr::compile(e, &input_types(input)))
                    .collect::<Result<_, _>>()?,
                schema: schema.clone(),
            },
            other => {
                return Err(CdwError::exec(format!(
                    "not a streaming stage: {}",
                    op_label(other)
                )))
            }
        });
    }
    let counters = (0..stages.len())
        .map(|_| StageCounters::default())
        .collect();
    Ok(CompiledChain { stages, counters })
}

/// A morsel mid-pipeline: either still a selection over the source
/// partition batch (original coordinates — filters refine it without
/// copying) or an owned dense batch once a Project materialized.
enum MorselState<'a> {
    Source {
        batch: &'a Batch,
        sel: Option<Vec<usize>>,
    },
    Owned(Part),
}

impl MorselState<'_> {
    fn rows(&self) -> usize {
        match self {
            MorselState::Source { batch, sel } => sel.as_ref().map_or(batch.num_rows(), Vec::len),
            MorselState::Owned(p) => p.rows(),
        }
    }

    fn batch_and_sel(&self) -> (&Batch, Option<&[usize]>) {
        match self {
            MorselState::Source { batch, sel } => (batch, sel.as_deref()),
            MorselState::Owned(p) => (&p.batch, p.sel()),
        }
    }
}

/// Run one morsel through every stage of the chain while hot.
fn apply_stages<'a>(
    chain: &CompiledChain,
    m: &Morsel<'a>,
    ctx: &ExecCtx,
) -> Result<MorselState<'a>, CdwError> {
    let mut state = MorselState::Source {
        batch: m.batch,
        sel: m.initial_sel(),
    };
    for (stage, counters) in chain.stages.iter().zip(&chain.counters) {
        let entered = Instant::now();
        state = match stage {
            Stage::Filter(pred) => {
                let keep = {
                    let (batch, sel) = state.batch_and_sel();
                    timed(&counters.eval_ns, || pred.select(batch, sel, &ctx.eval))?
                };
                counters.rows_out.fetch_add(keep.len(), Ordering::Relaxed);
                match state {
                    MorselState::Source { batch, .. } => MorselState::Source {
                        batch,
                        sel: Some(keep),
                    },
                    MorselState::Owned(p) => MorselState::Owned(Part {
                        batch: p.batch,
                        sel: Some(keep),
                    }),
                }
            }
            Stage::Project { exprs, schema } => {
                let (batch, sel) = state.batch_and_sel();
                let cols: Vec<Column> = exprs
                    .iter()
                    .zip(schema.fields())
                    .map(|(e, f)| {
                        let col = timed(&counters.eval_ns, || e.eval(batch, sel, &ctx.eval))?;
                        coerce_column(col, f.dtype)
                    })
                    .collect::<Result<_, _>>()?;
                let out = Part::new(Batch::new(schema.clone(), cols)?);
                counters.rows_out.fetch_add(out.rows(), Ordering::Relaxed);
                MorselState::Owned(out)
            }
        };
        let ns = entered.elapsed().as_nanos() as u64;
        counters.wall_ns.fetch_add(ns, Ordering::Relaxed);
    }
    Ok(state)
}

/// Owned per-morsel chain output (borrows on the source parts released).
enum OutData {
    /// Refined selection over the source partition batch.
    Sel(Vec<usize>),
    /// Owned dense (possibly re-filtered) batch.
    Part(Part),
}

/// Merge one partition's morsel outputs (in morsel order) back into one
/// part, the same shape at every morsel height: filter-only chains keep
/// the original batch plus the concatenated selection, projected chains
/// concatenate the dense morsel batches. A lone output (an uncut
/// partition) passes through untouched.
fn merge_partition(source: Part, mut outs: Vec<OutData>) -> Result<Part, CdwError> {
    if outs.len() == 1 {
        return Ok(match outs.pop().expect("one output") {
            OutData::Sel(sel) => Part {
                batch: source.batch,
                sel: Some(sel),
            },
            OutData::Part(p) => p,
        });
    }
    match outs.first() {
        Some(OutData::Sel(_)) | None => {
            // Morsels cover disjoint ascending row ranges, so their
            // selections concatenate into one ascending selection.
            let mut sel = Vec::new();
            for o in outs {
                match o {
                    OutData::Sel(s) => sel.extend(s),
                    OutData::Part(_) => unreachable!("chain output representation is uniform"),
                }
            }
            Ok(Part {
                batch: source.batch,
                sel: Some(sel),
            })
        }
        Some(OutData::Part(_)) => {
            let batches: Vec<Batch> = outs
                .into_iter()
                .map(|o| match o {
                    OutData::Part(p) => p.materialize(),
                    OutData::Sel(_) => unreachable!("chain output representation is uniform"),
                })
                .collect();
            let refs: Vec<&Batch> = batches.iter().collect();
            Ok(Part::new(Batch::concat(&refs)?))
        }
    }
}

/// Execute the maximal streaming chain rooted at `plan` as one fused
/// morsel pipeline, returning one part per source partition.
///
/// Called from the executor's Filter/Project arm: the caller's wrapper
/// already pushed `plan`'s own stats entry (fed through `eval_ns` /
/// `morsels_out`); entries for the deeper chain nodes are pushed here in
/// pre-order, then the source executes below them, so the stats tree
/// mirrors the plan tree.
pub(super) fn execute_chain(
    plan: &Plan,
    ctx: &ExecCtx,
    stats: &mut ExecStats,
    depth: usize,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Vec<Part>, CdwError> {
    let (chain, source) = plan.stream_chain();
    let inner_slots = push_chain_stats(&chain[1..], stats, depth + 1);
    let parts = execute_parts(source, ctx, stats, depth + chain.len())?;
    let nparts = parts.len();
    let compiled = compile_chain(&chain)?;

    let (morsels, counts) = morselize(&parts, ctx.morsel_height(|| InputShape::of_parts(&parts)));
    let outs: Vec<OutData> = par_map(
        ctx,
        morsels,
        |m| m.len().max(1),
        |m| apply_stages(&compiled, &m, ctx),
    )?
    .into_iter()
    .map(|state| match state {
        MorselState::Source { batch, sel } => {
            OutData::Sel(sel.unwrap_or_else(|| (0..batch.num_rows()).collect()))
        }
        MorselState::Owned(p) => OutData::Part(p),
    })
    .collect();
    let nmorsels = outs.len();
    morsels_out.fetch_add(nmorsels, Ordering::Relaxed);

    let mut out_parts = Vec::with_capacity(nparts);
    let mut it = outs.into_iter();
    for (part, count) in parts.into_iter().zip(counts) {
        let group: Vec<OutData> = it.by_ref().take(count).collect();
        out_parts.push(merge_partition(part, group)?);
    }

    // The top node (the last stage) feeds the caller's entry.
    compiled.record_stats(inner_slots, stats, nparts, nmorsels);
    let top = compiled.counters.last().expect("chain has a top node");
    eval_ns.fetch_add(top.eval_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    Ok(out_parts)
}

/// Push one pending stats entry per chain node (top-down, pre-order) and
/// return their slots; the chain's source lands in the slot after them.
fn push_chain_stats(
    chain: &[&Plan],
    stats: &mut ExecStats,
    depth: usize,
) -> std::ops::Range<usize> {
    let first = stats.operators.len();
    for (i, node) in chain.iter().enumerate() {
        stats
            .operators
            .push(OpStats::started(op_label(node), depth + i));
    }
    first..stats.operators.len()
}

impl CompiledChain {
    /// Fill the stats entries at `slots` — the chain's deepest
    /// `slots.len()` nodes, top-down, the source's entry right after
    /// them — from the per-stage counters. A fused node has no wall
    /// clock of its own: its `elapsed` is the source's plus the time
    /// morsels spent in it and the stages below it, so each node's own
    /// share (elapsed minus child) is its stage time.
    fn record_stats(
        &self,
        slots: std::ops::Range<usize>,
        stats: &mut ExecStats,
        nparts: usize,
        nmorsels: usize,
    ) {
        let mut elapsed = stats.operators[slots.end].elapsed;
        for (slot, c) in slots.rev().zip(&self.counters) {
            elapsed += Duration::from_nanos(c.wall_ns.load(Ordering::Relaxed));
            let op = &mut stats.operators[slot];
            op.rows_out = c.rows_out.load(Ordering::Relaxed);
            op.partitions = nparts;
            op.elapsed = elapsed;
            op.eval_ns = c.eval_ns.load(Ordering::Relaxed);
            op.morsels = nmorsels;
        }
    }
}

/// Run the Partial half of a two-phase aggregate fused with the
/// streaming chain below it (`pinput`): one pipeline from the chain's
/// source to the per-partition group tables, no materialized chain
/// output. Only usable without a memory budget — a budgeted aggregate
/// needs the chain's output first to estimate its state, then calls
/// [`fold_partial`] (or spills) over those parts.
#[allow(clippy::too_many_arguments)]
pub(super) fn execute_fused_partial(
    pinput: &Plan,
    cagg: &CompiledAggExprs,
    aggs: &[AggCall],
    ctx: &ExecCtx,
    stats: &mut ExecStats,
    depth: usize,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Vec<GroupTable>, CdwError> {
    let (chain, source) = pinput.stream_chain();
    // Chain node stats are all pushed here — the Partial's own entry is
    // the caller's.
    let slots = push_chain_stats(&chain, stats, depth);
    let parts = execute_parts(source, ctx, stats, depth + chain.len())?;
    let compiled = compile_chain(&chain)?;
    let before = morsels_out.load(Ordering::Relaxed);
    let tables = fold_partial(&parts, &compiled, cagg, aggs, ctx, eval_ns, morsels_out)?;
    let nmorsels = morsels_out.load(Ordering::Relaxed) - before;
    compiled.record_stats(slots, stats, parts.len(), nmorsels);
    Ok(tables)
}

/// Aggregate `parts` into one group table per partition: the chain
/// stages *and* the group/argument expressions — the expensive
/// vectorized work — evaluate per morsel in parallel, then each
/// partition's pre-evaluated morsels fold sequentially in morsel order
/// into one table. The fold visits rows in exactly the order one
/// whole-partition pass would, so every FP accumulation (`AVG` partial
/// sums, Welford updates) is the same operation sequence at every morsel
/// height; partitions fold in parallel and the caller merges them in
/// partition-index order.
pub(super) fn fold_partial(
    parts: &[Part],
    chain: &CompiledChain,
    cagg: &CompiledAggExprs,
    aggs: &[AggCall],
    ctx: &ExecCtx,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Vec<GroupTable>, CdwError> {
    /// One morsel's pre-evaluated aggregation inputs.
    struct EvaledMorsel {
        groups: Vec<Column>,
        args: Vec<Option<Column>>,
        rows: usize,
    }
    let (morsels, counts) = morselize(parts, ctx.morsel_height(|| InputShape::of_parts(parts)));
    morsels_out.fetch_add(morsels.len(), Ordering::Relaxed);
    let evaled: Vec<EvaledMorsel> = par_map(
        ctx,
        morsels,
        |m| m.len().max(1),
        |m| {
            let state = apply_stages(chain, &m, ctx)?;
            let rows = state.rows();
            let (batch, sel) = state.batch_and_sel();
            let (groups, args) =
                timed(eval_ns, || eval_group_arg_cols(batch, sel, cagg, &ctx.eval))?;
            Ok(EvaledMorsel { groups, args, rows })
        },
    )?;

    // Sequential per-partition fold in morsel order, partitions in
    // parallel.
    let mut grouped: Vec<Vec<EvaledMorsel>> = Vec::with_capacity(parts.len());
    let mut it = evaled.into_iter();
    for count in counts {
        grouped.push(it.by_ref().take(count).collect());
    }
    let global = cagg.groups.is_empty();
    par_map(
        ctx,
        grouped,
        |ms| ms.iter().map(|m| m.rows).sum::<usize>().max(1),
        |ms| {
            let mut table = GroupTable::new(aggs);
            let mut firsts = Vec::new();
            let mut base = 0usize;
            for m in ms {
                accumulate_into(
                    &mut table,
                    &mut firsts,
                    base,
                    &m.groups,
                    &m.args,
                    aggs,
                    m.rows,
                    global,
                );
                base += m.rows;
            }
            Ok(table)
        },
    )
}

/// Probe for hash joins of every kind: each left partition splits into
/// dense row-range morsels probed independently (stealing absorbs a
/// skewed build of probe work), and per-partition outputs re-concatenate
/// in morsel order — exactly the left-row-ascending order an uncut probe
/// emits, so downstream operators see one output part per left partition
/// at every morsel height.
///
/// LEFT/FULL: an uncut probe emits all matches (ascending left row) then
/// the partition's null-extended unmatched lefts (ascending). A morsel
/// that is only part of its partition therefore keeps its unmatched tail
/// **separate** from its matches ([`assemble_probe_output`]); regrouping
/// concatenates every morsel's matches first, then every morsel's tail,
/// both in morsel order — reproducing the uncut order exactly. A morsel
/// covering its whole partition assembles matches and tail in one gather
/// and skips the regroup. FULL's matched-right sets union across a
/// partition's morsels for the caller's unmatched-right sweep.
#[allow(clippy::too_many_arguments)]
pub(super) fn morsel_probe(
    lparts: &[Batch],
    right: &Batch,
    build: Option<&KeyRows>,
    kind: JoinKind,
    left_keys: &[CompiledExpr],
    residual: Option<&CompiledExpr>,
    schema: &Arc<Schema>,
    ctx: &ExecCtx,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Vec<(Batch, Vec<usize>)>, CdwError> {
    let mrows = ctx.morsel_height(|| InputShape::of_batches(lparts));
    struct ProbeMorsel<'a> {
        batch: &'a Batch,
        /// `None` = probe the whole partition batch (no slice copy).
        range: Option<std::ops::Range<usize>>,
    }
    let mut morsels = Vec::new();
    let mut counts = Vec::with_capacity(lparts.len());
    for lb in lparts {
        let before = morsels.len();
        let rows = lb.num_rows();
        if rows <= mrows {
            morsels.push(ProbeMorsel {
                batch: lb,
                range: None,
            });
        } else {
            for range in range_chunks(rows, mrows) {
                morsels.push(ProbeMorsel {
                    batch: lb,
                    range: Some(range),
                });
            }
        }
        counts.push(morsels.len() - before);
    }
    morsels_out.fetch_add(morsels.len(), Ordering::Relaxed);

    let probes = par_map(
        ctx,
        morsels,
        // Byte-seeded LPT: probe work scales with the morsel's share of
        // its partition's bytes, not just its row count.
        |m| {
            let rows = m.batch.num_rows();
            let len = m.range.as_ref().map_or(rows, |r| r.len());
            byte_cost(len, m.batch.byte_size(), rows)
        },
        |m| {
            let sliced;
            let lb = match &m.range {
                Some(r) => {
                    sliced = m.batch.slice(r.start, r.len());
                    &sliced
                }
                None => m.batch,
            };
            // Right-row indices are global, but unmatched-left indices
            // are slice-local and never escape (the tail batch is
            // assembled here).
            let pairs = probe_pairs(lb, right.num_rows(), build, left_keys, &ctx.eval, eval_ns)?;
            let lone = m.range.is_none();
            assemble_probe_output(
                lb, right, pairs, kind, residual, schema, &ctx.eval, eval_ns, lone,
            )
        },
    )?;

    let mut out = Vec::with_capacity(lparts.len());
    let mut it = probes.into_iter();
    for count in counts {
        let mut group = it.by_ref().take(count);
        if count == 1 {
            // An uncut partition: its tail is already inside the batch.
            let (batch, _, matched) = group.next().expect("one probe per morsel");
            out.push((batch, matched));
            continue;
        }
        let mut matched = Vec::new();
        let mut batches: Vec<Batch> = Vec::with_capacity(count);
        let mut tails: Vec<Batch> = Vec::new();
        for (b, tail, m) in group {
            matched.extend(m);
            batches.push(b);
            tails.extend(tail);
        }
        // Uncut order: all matches (morsel order), then all
        // null-extended unmatched-left tails (morsel order).
        batches.extend(tails);
        let refs: Vec<&Batch> = batches.iter().collect();
        out.push((Batch::concat(&refs)?, matched));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// spilling aggregation
// ---------------------------------------------------------------------

/// Memory-budgeted aggregation: hash-partition input rows by group key
/// into spilled bucket files, aggregate one bucket at a time, and
/// interleave the per-bucket groups back into first-seen order.
///
/// `parts` carries the partition structure the in-memory fold would
/// aggregate (the caller passes the concatenated input as one
/// "partition" for `AggMode::Single`, and the chain's output parts for a
/// `Final`-over-`Partial` pair). Phase 1 — the hot phase — runs per
/// morsel on the work-stealing scheduler: each morsel evaluates its
/// group and argument expressions, routes its rows to buckets by
/// group-key hash, and builds its per-bucket spill records (tagged with
/// the partition-relative row id and the partition index); only the file
/// appends run sequentially, in `(partition, morsel)` order. Phase 2
/// aggregates buckets in parallel: inside a bucket, each partition's
/// records fold **in morsel order into one continuing group table** —
/// the identical row-visit (and FP accumulation) sequence of the
/// in-memory fold restricted to the bucket's groups — then partition
/// tables merge in partition order and buckets interleave back into
/// first-seen order by each group's first `(partition, row)`, which is
/// exactly the order the in-memory merge emits.
///
/// Spilled byte/record totals depend on the morsel height (records are
/// per morsel); group values and output order do not, which is what
/// `spill_oracle` pins.
///
/// Returns the finished batch plus the total partial-group count (the
/// `rows_out` of the Partial operator in two-phase stats).
#[allow(clippy::too_many_arguments)]
pub(super) fn morsel_spilled_aggregate(
    parts: &[Part],
    cagg: &CompiledAggExprs,
    aggs: &[AggCall],
    schema: &Arc<Schema>,
    ctx: &ExecCtx,
    estimate: usize,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<(Batch, usize), CdwError> {
    let nbuckets = ctx.memory.bucket_count(estimate);
    ctx.memory.record_rounds(nbuckets);
    let gw = cagg.groups.len();
    // Spill-record column layout: group cols, present agg args, row id,
    // partition id.
    let mut arg_slots: Vec<Option<usize>> = Vec::with_capacity(aggs.len());
    let mut next_slot = gw;
    for a in aggs {
        if a.arg.is_some() {
            arg_slots.push(Some(next_slot));
            next_slot += 1;
        } else {
            arg_slots.push(None);
        }
    }
    let row_slot = next_slot;
    let part_slot = row_slot + 1;

    // Tag every morsel with its partition index and its dense row offset
    // within that partition's surviving rows (the `__row` coordinates).
    let (morsels, counts) = morselize(parts, ctx.morsel_height(|| InputShape::of_parts(parts)));
    morsels_out.fetch_add(morsels.len(), Ordering::Relaxed);
    let mut meta: Vec<(usize, usize)> = Vec::with_capacity(morsels.len());
    {
        let mut mi = 0;
        for (p, &count) in counts.iter().enumerate() {
            let mut base = 0usize;
            for _ in 0..count {
                meta.push((p, base));
                base += morsels[mi].len();
                mi += 1;
            }
        }
    }
    let items: Vec<(Morsel<'_>, (usize, usize))> = morsels.into_iter().zip(meta).collect();

    // Phase 1 (parallel per morsel): evaluate, route, build records.
    let routed: Vec<Vec<Option<Batch>>> = par_map(
        ctx,
        items,
        |(m, _)| byte_cost(m.len(), m.batch.byte_size(), m.batch.num_rows()),
        |(m, (pidx, base))| {
            let sel = m.initial_sel();
            let (group_cols, arg_cols) = timed(eval_ns, || {
                eval_group_arg_cols(m.batch, sel.as_deref(), cagg, &ctx.eval)
            })?;
            let mut fields: Vec<Field> = group_cols
                .iter()
                .enumerate()
                .map(|(i, c)| Field::new(format!("g{i}"), c.dtype()))
                .collect();
            let mut spill_cols: Vec<Column> = group_cols.clone();
            for (j, c) in arg_cols.iter().enumerate() {
                if let Some(c) = c {
                    fields.push(Field::new(format!("a{j}"), c.dtype()));
                    spill_cols.push(c.clone());
                }
            }
            fields.push(Field::new("__row", DataType::Int));
            fields.push(Field::new("__part", DataType::Int));
            let spill_schema = Arc::new(Schema::new(fields));

            let refs: Vec<&Column> = group_cols.iter().collect();
            let keys = KeyCols::new(&refs);
            let mut route: Vec<Vec<usize>> = vec![Vec::new(); nbuckets];
            let mut key = Vec::new();
            for row in 0..m.len() {
                route[key_bucket(keys.key(row, &mut key), nbuckets)].push(row);
            }
            let mut per_bucket: Vec<Option<Batch>> = Vec::with_capacity(nbuckets);
            for rows in &route {
                if rows.is_empty() {
                    per_bucket.push(None);
                    continue;
                }
                let mut cols: Vec<Column> = spill_cols.iter().map(|c| c.take(rows)).collect();
                cols.push(Column::from_ints(
                    rows.iter().map(|&r| (base + r) as i64).collect(),
                ));
                cols.push(Column::from_ints(vec![pidx as i64; rows.len()]));
                per_bucket.push(Some(Batch::new(spill_schema.clone(), cols)?));
            }
            Ok(per_bucket)
        },
    )?;

    // Sequential appends in (partition, morsel) order, so each bucket
    // file's per-partition record subsequence stays in morsel order.
    let mut writers: Vec<SpillWriter> = (0..nbuckets)
        .map(|_| SpillWriter::create())
        .collect::<Result<_, _>>()?;
    for per_bucket in routed {
        for (b, rec) in per_bucket.into_iter().enumerate() {
            if let Some(rec) = rec {
                let bytes = writers[b].append(&rec)?;
                ctx.memory.record_spill(bytes);
            }
        }
    }
    let handles: Vec<SpillHandle> = writers
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;

    // Phase 2 (parallel across buckets): fold each partition's records in
    // morsel order into one continuing table, then merge partitions in
    // partition order — the in-memory fold's exact arithmetic structure.
    // A bucket yields its finished groups plus, per group, the
    // `(partition, row)` where the group first appeared.
    type BucketGroups = (Batch, Vec<(usize, i64)>, usize);
    let arg_slots = &arg_slots;
    let nparts = parts.len();
    let per_bucket: Vec<BucketGroups> = par_map(
        ctx,
        handles,
        |h| h.bytes() as usize,
        |handle| {
            // Per partition: continuing table, firsts (in concatenated
            // record coordinates), and the concatenated `__row` ids that
            // map those coordinates back to partition rows.
            let mut ptables: Vec<(GroupTable, Vec<usize>, Vec<i64>)> = (0..nparts)
                .map(|_| (GroupTable::new(aggs), Vec::new(), Vec::new()))
                .collect();
            for rec in handle.read_all()? {
                let p = rec.column(part_slot).ints().expect("__part column")[0] as usize;
                let group_cols = rec.columns()[..gw].to_vec();
                let arg_cols: Vec<Option<Column>> = arg_slots
                    .iter()
                    .map(|s| s.map(|i| rec.column(i).clone()))
                    .collect();
                let (table, firsts, row_ids) = &mut ptables[p];
                accumulate_into(
                    table,
                    firsts,
                    row_ids.len(),
                    &group_cols,
                    &arg_cols,
                    aggs,
                    rec.num_rows(),
                    false,
                );
                row_ids.extend(rec.column(row_slot).ints().expect("row-id column"));
            }
            let mut acc = GroupTable::new(aggs);
            let mut first_seen: Vec<(usize, i64)> = Vec::new();
            let mut partial_rows = 0usize;
            for (p, (table, firsts, row_ids)) in ptables.into_iter().enumerate() {
                partial_rows += table.len();
                acc.merge_from(table, |g| first_seen.push((p, row_ids[firsts[g]])));
            }
            Ok((finish_groups(acc, schema)?, first_seen, partial_rows))
        },
    )?;

    // Interleave buckets back into global first-seen order: stack the
    // bucket outputs, then gather by each group's first `(partition, row)`.
    let partial_rows = per_bucket.iter().map(|(_, _, n)| n).sum();
    let mut order: Vec<((usize, i64), usize)> = per_bucket
        .iter()
        .flat_map(|(_, first_seen, _)| first_seen.iter().copied())
        .zip(0..)
        .collect();
    order.sort_unstable();
    let stacked: Vec<&Batch> = per_bucket.iter().map(|(b, _, _)| b).collect();
    let gather: Vec<usize> = order.into_iter().map(|(_, at)| at).collect();
    Ok((Batch::concat(&stacked)?.take(&gather), partial_rows))
}

// ---------------------------------------------------------------------
// sort
// ---------------------------------------------------------------------

/// Evaluate `compiled` expressions over `batch` per morsel in parallel
/// and concatenate to whole-batch columns — identical to one whole-batch
/// evaluation pass (the kernels are elementwise). The shared first phase
/// of the sort and the Grace join's probe-side key spill.
pub(crate) fn morsel_eval_columns(
    batch: &Batch,
    compiled: &[CompiledExpr],
    ctx: &ExecCtx,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Vec<Column>, CdwError> {
    let rows = batch.num_rows();
    let chunks = range_chunks(rows, ctx.morsel_height(|| InputShape::of_batches([batch])));
    morsels_out.fetch_add(chunks.len(), Ordering::Relaxed);
    let total_bytes = LazyCell::new(|| batch.byte_size());
    let per_chunk: Vec<Vec<Column>> = par_map(
        ctx,
        chunks,
        |r| byte_cost(r.len(), *total_bytes, rows),
        |r| {
            let sel: Option<Vec<usize>> = if r.start == 0 && r.end == rows {
                None
            } else {
                Some(r.collect())
            };
            timed(eval_ns, || {
                compiled
                    .iter()
                    .map(|k| k.eval(batch, sel.as_deref(), &ctx.eval))
                    .collect::<Result<Vec<_>, _>>()
            })
        },
    )?;
    concat_morsel_columns(per_chunk)
}

/// Concatenate per-morsel column sets (one `Vec<Column>` per morsel, in
/// morsel order) into whole-input columns. A lone morsel's columns pass
/// through uncopied.
pub(crate) fn concat_morsel_columns(
    mut per_morsel: Vec<Vec<Column>>,
) -> Result<Vec<Column>, CdwError> {
    if per_morsel.len() == 1 {
        return Ok(per_morsel.pop().expect("one morsel"));
    }
    let width = per_morsel.first().map_or(0, Vec::len);
    (0..width)
        .map(|k| {
            let refs: Vec<&Column> = per_morsel.iter().map(|c| &c[k]).collect();
            Column::concat(&refs).map_err(CdwError::from)
        })
        .collect()
}

/// Sort over the concatenated input. Run generation — the hot phase —
/// spreads across workers:
///
/// * **Key evaluation** happens per morsel in parallel; the per-morsel
///   key columns concatenate to the same whole-input columns (and the
///   same spill estimate) one whole-batch evaluation produces, since the
///   kernels are elementwise.
/// * **In memory**: each morsel-sized run sorts stably in parallel, then
///   a k-way heap merge by `(keys, row id)` — a *unique* total order, so
///   the merged permutation equals the stable whole-input sort (ties
///   keep ascending row id) however the input was cut. A single run *is*
///   that sort and skips the merge.
/// * **Budgeted**: run boundaries come from `run_count` — *not* from the
///   morsel height, so the spilled run/page layout is the same at every
///   height — the runs sort and spill in parallel, then the
///   [`merge_spilled_runs`] cursor merge finishes the job.
pub(super) fn morsel_sort(
    batch: &Batch,
    compiled_keys: &[CompiledExpr],
    sort_keys: &[sort::SortKey],
    ctx: &ExecCtx,
    eval_ns: &AtomicU64,
    morsels_out: &AtomicUsize,
) -> Result<Batch, CdwError> {
    let rows = batch.num_rows();
    let key_cols = morsel_eval_columns(batch, compiled_keys, ctx, eval_ns, morsels_out)?;
    // Sort-state estimate: key columns plus the 8-byte index per row the
    // permutation holds.
    let est = key_cols.iter().map(Column::byte_size).sum::<usize>() + 8 * rows;
    let refs: Vec<&Column> = key_cols.iter().collect();
    // The comparator resolves its key columns once for every run and the
    // merge.
    let order = sort::RowOrder::new(&refs, sort_keys);

    if rows > 1 && ctx.memory.should_spill(est) {
        // Spill sorted runs of (key columns, row id) in pages; each run
        // sorts and spills itself on a worker.
        let nruns = ctx.memory.run_count(est, rows);
        let run_len = rows.div_ceil(nruns);
        let page_rows = run_len.div_ceil(4).max(1);
        let mut fields: Vec<Field> = key_cols
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("k{i}"), c.dtype()))
            .collect();
        fields.push(Field::new("__row", DataType::Int));
        let spill_schema = Arc::new(Schema::new(fields));

        let handles: Vec<SpillHandle> = par_map(
            ctx,
            range_chunks(rows, run_len),
            |r| byte_cost(r.len(), est, rows),
            |r| {
                let mut idx: Vec<usize> = r.collect();
                // Stable within the run; runs are disjoint ascending
                // ranges.
                order.sort(&mut idx);
                let mut writer = SpillWriter::create()?;
                for chunk in idx.chunks(page_rows) {
                    let mut cols: Vec<Column> = key_cols.iter().map(|c| c.take(chunk)).collect();
                    cols.push(Column::from_ints(chunk.iter().map(|&r| r as i64).collect()));
                    let bytes = writer.append(&Batch::new(spill_schema.clone(), cols)?)?;
                    ctx.memory.record_spill(bytes);
                }
                ctx.memory.record_rounds(1);
                writer.finish()
            },
        )?;
        let merged = merge_spilled_runs(&handles, key_cols.len(), sort_keys, rows)?;
        return Ok(batch.take(&merged));
    }

    // In-memory: sort each morsel-run in parallel, then heap-merge.
    let mut runs: Vec<Vec<usize>> = par_map(
        ctx,
        range_chunks(rows, ctx.morsel_height(|| InputShape::of_batches([batch]))),
        |r| byte_cost(r.len(), est, rows),
        |r| {
            let mut idx: Vec<usize> = r.collect();
            order.sort(&mut idx);
            Ok(idx)
        },
    )?;
    let merged = if runs.len() == 1 {
        runs.pop().expect("one run")
    } else {
        kway_merge_runs(&runs, &order, rows)
    };
    Ok(batch.take(&merged))
}

/// Merge disjoint sorted runs of row indices into one permutation with a
/// binary min-heap keyed by `(sort keys, row id)`. Row ids are distinct,
/// so the comparator is a unique total order and the result equals the
/// stable whole-input sort's permutation no matter how the input was cut
/// into runs.
fn kway_merge_runs(runs: &[Vec<usize>], order: &sort::RowOrder<'_>, rows: usize) -> Vec<usize> {
    let less = |a: usize, b: usize| -> bool {
        match order.compare(a, b) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b,
        }
    };
    // Heap entries are (current row, run index), ordered by row.
    fn sift_down(heap: &mut [(usize, usize)], mut i: usize, less: &impl Fn(usize, usize) -> bool) {
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < heap.len() && less(heap[l].0, heap[m].0) {
                m = l;
            }
            if r < heap.len() && less(heap[r].0, heap[m].0) {
                m = r;
            }
            if m == i {
                return;
            }
            heap.swap(i, m);
            i = m;
        }
    }
    let mut pos = vec![0usize; runs.len()];
    let mut heap: Vec<(usize, usize)> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| (r[0], i))
        .collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i, &less);
    }
    let mut merged = Vec::with_capacity(rows);
    while let Some(&(row, run)) = heap.first() {
        merged.push(row);
        pos[run] += 1;
        if pos[run] < runs[run].len() {
            heap[0] = (runs[run][pos[run]], run);
        } else {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        sift_down(&mut heap, 0, &less);
    }
    debug_assert_eq!(merged.len(), rows);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(rows: usize, bytes: usize, largest: usize) -> InputShape {
        InputShape {
            rows,
            bytes,
            largest,
        }
    }

    /// Derived sizing tracks input shape: wide rows shrink the morsel
    /// toward the byte target, a dominant partition shrinks it so every
    /// worker sees at least four stealable units of it, and the result
    /// always lands inside the `[MIN, MAX]` clamp. Width 1 never cuts,
    /// whatever the sizing.
    #[test]
    fn adaptive_morsel_rows_tracks_input_shape() {
        let derived = |workers, rows, bytes, largest| {
            morsel_height(MorselSizing::Derived, workers, || {
                shape(rows, bytes, largest)
            })
        };
        // 8-byte rows, 1M rows in one partition, 4 workers: the byte
        // target (256 KiB / 8 B = 32K rows) beats the split bound
        // (1M / 16 = 64K rows).
        assert_eq!(derived(4, 1 << 20, 8 << 20, 1 << 20), 32_768);
        // Narrow 1-byte rows push the byte bound past MAX — the clamp
        // wins.
        assert_eq!(derived(2, 1 << 20, 1 << 20, 1 << 20), MAX_MORSEL_ROWS);
        // 1 KiB rows: the byte target caps at 256 rows (== MIN clamp).
        assert_eq!(
            derived(4, 100_000, 100_000 * 1024, 100_000),
            MIN_MORSEL_ROWS
        );
        // 16-byte rows, largest partition 40_000 rows, 4 workers: the
        // split bound 40_000 / 16 = 2_500 beats the 16K byte bound.
        assert_eq!(derived(4, 100_000, 1_600_000, 40_000), 2_500);
        // Tiny inputs clamp up to MIN (one morsel per partition).
        assert_eq!(derived(4, 10, 80, 10), MIN_MORSEL_ROWS);
        // Degenerate zero-row / zero-byte inputs never panic and yield a
        // usable (nonzero) height at every width and sizing.
        for workers in [1, 4] {
            for sizing in [
                MorselSizing::Derived,
                MorselSizing::Fixed(0),
                MorselSizing::WholePartition,
            ] {
                assert!(morsel_height(sizing, workers, || shape(0, 0, 0)) >= 1);
            }
        }

        // Width 1 never cuts — and never pays for measuring the input;
        // wider, the explicit sizings mean what they say.
        let skewed = || shape(100_000, 1_600_000, 40_000);
        for sizing in [
            MorselSizing::Derived,
            MorselSizing::Fixed(3),
            MorselSizing::WholePartition,
        ] {
            let unmeasured = || -> InputShape { panic!("width 1 measured its input") };
            assert_eq!(morsel_height(sizing, 1, unmeasured), WHOLE_PARTITION);
        }
        assert_eq!(morsel_height(MorselSizing::Fixed(3), 4, skewed), 3);
        assert_eq!(
            morsel_height(MorselSizing::WholePartition, 4, skewed),
            WHOLE_PARTITION
        );

        // The width is the *effective* one: `parallelism = 16` on a
        // 4-slot pool must size like 4 workers (2_500 rows, four
        // stealable units each), not like 16 (625). Asking for more
        // threads than any pool has resolves to the pool target.
        assert_eq!(derived(16, 100_000, 1_600_000, 40_000), 625);
        let catalog = Catalog::new();
        let results = HashMap::new();
        let ctx = ExecCtx {
            catalog: &catalog,
            results: &results,
            eval: EvalCtx::default(),
            parallelism: usize::MAX,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            sched: scheduler::SchedCounters::default(),
        };
        loop {
            // Other tests in this binary may grow the pool target
            // concurrently; compare against a target that held still.
            let target = scheduler::worker_pool_target();
            let got = ctx.morsel_height(skewed);
            if scheduler::worker_pool_target() == target {
                assert_eq!(got, morsel_height(MorselSizing::Derived, target, skewed));
                break;
            }
        }
    }

    /// The scheduler cost-seeding satellite: a run covering most of the
    /// input must cost proportionally more than a 1-row tail, and costs
    /// never degenerate to zero.
    #[test]
    fn byte_cost_scales_with_row_share() {
        let total_bytes = 1 << 20;
        let total_rows = 1000;
        let big = byte_cost(900, total_bytes, total_rows);
        let tail = byte_cost(1, total_bytes, total_rows);
        assert!(big >= 900 * tail, "{big} vs {tail}");
        assert!(byte_cost(0, 0, 0) >= 1);
        assert!(byte_cost(5, 0, 1000) >= 1);
    }

    #[test]
    fn range_chunks_cover_everything_once() {
        for (rows, chunk) in [(0usize, 3usize), (1, 3), (3, 3), (10, 3), (10, 4096)] {
            let chunks = range_chunks(rows, chunk);
            assert!(!chunks.is_empty());
            let mut next = 0;
            for r in &chunks {
                assert_eq!(r.start, next);
                assert!(r.end <= rows || rows == 0);
                next = r.end;
            }
            assert_eq!(next, rows);
        }
    }

    /// The k-way heap merge must equal the stable whole-input sort for
    /// arbitrary run boundaries, including duplicate keys (row-id
    /// tiebreak) and empty runs.
    #[test]
    fn kway_merge_equals_stable_sort() {
        let keys = Column::from_ints(vec![3, 1, 3, 2, 1, 3, 2, 1, 0, 3]);
        let refs = vec![&keys];
        let sort_keys = vec![sort::SortKey {
            descending: false,
            nulls_last: false,
        }];
        let expected = sort::sort_indices(&refs, &sort_keys);
        for cuts in [vec![0usize, 10], vec![0, 3, 10], vec![0, 3, 3, 7, 10]] {
            let order = sort::RowOrder::new(&refs, &sort_keys);
            let mut runs: Vec<Vec<usize>> = Vec::new();
            for w in cuts.windows(2) {
                let mut idx: Vec<usize> = (w[0]..w[1]).collect();
                order.sort(&mut idx);
                runs.push(idx);
            }
            assert_eq!(kway_merge_runs(&runs, &order, 10), expected);
        }
    }
}
