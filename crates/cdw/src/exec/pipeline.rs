//! Push-based morsel pipelines over the selection-vector kernels, and
//! the whole-partition sinks that end them.
//!
//! A physical plan decomposes into pipelines broken only at the operators
//! that must see their whole input (sort, aggregate, distinct, window,
//! limit, and a join's build side). Inside a pipeline, the maximal
//! Filter/Project chain ([`Plan::stream_chain`]) compiles once and runs
//! **fused per morsel**: each slice of a source partition flows through
//! every stage while hot, filters refining a selection vector over the
//! shared partition batch without copying.
//!
//! ## Only the streaming chain cuts
//!
//! A partition is cut into morsels only where the cut measured a gain:
//! the chain's stages ([`execute_chain`]) and, when an aggregate sinks
//! the chain, the chain plus the group/argument evaluation feeding it
//! ([`fold_partial`]). A chain that only selects columns is not cut:
//! uncut it copies nothing. Every breaker works on whole partitions: a join
//! probes each left partition once, a sort is one stable sort over its
//! input, a window evaluates its expressions once (only its partition
//! work items take their size from the morsel height, see
//! [`crate::window::compute_window`]), and a spilling aggregate writes
//! one record set per partition.
//!
//! How tall a morsel is comes from one function, [`morsel_height`], given
//! the configured [`MorselSizing`], the *effective* worker width (the
//! per-query `parallelism` clamped to the pool budget) and the
//! pipeline's input shape:
//!
//! * At effective width 1 the height is "whole partition" for every
//!   sizing: with nobody to share with, cutting is pure overhead. Each
//!   partition is then one whole-batch morsel ([`Morsel::initial_sel`]
//!   is `None`, so the kernels take their no-selection path), every
//!   regroup is the identity ([`merge_partition`] returns a lone output
//!   untouched) and [`scheduler::par_map`] runs inline on the
//!   caller. This is what every default-configured warehouse executes.
//! * Wider, `Derived` cuts by byte target and morsels per worker,
//!   `Fixed(n)` cuts every `n` rows (the oracle sweeps force 3-row
//!   morsels), and `WholePartition` never cuts.
//!
//! Morsels are claimed from one cost-ordered queue ([`super::scheduler`]),
//! so one oversized partition does not serialize a streaming chain: its
//! morsels spread across all workers.
//!
//! ## Why cutting and claim order can't change results
//!
//! Execution order is free; *merge* order is pinned. Every morsel is
//! tagged by `(partition, morsel index)` at creation, results land in
//! per-morsel slots, and outputs regroup per partition in morsel order —
//! a pure function of the input, independent of which worker ran what
//! when. Two sinks consume morsels:
//!
//! * **Collect** (generic consumers): a partition's morsel outputs merge
//!   back into one part per source partition — filter chains by
//!   concatenating the (disjoint, ascending) per-morsel selections over
//!   the original batch, projected chains by concatenating the dense
//!   morsel batches. Downstream operators therefore see the *identical
//!   partition structure* at every height, which the aggregate's
//!   ordered merge relies on for bit-identical floats.
//! * **Aggregation**: group/argument expressions evaluate per morsel in
//!   parallel, but each partition's pre-evaluated morsels fold
//!   *sequentially in morsel order* into one group table — the same
//!   row-visit order (and therefore the same FP accumulation sequence)
//!   as one whole-partition pass. The per-partition tables merge in
//!   partition-index order.
//!
//! The breakers never see a morsel, so the height cannot reach their
//! results: join pairs come from one probe per left partition, sort and
//! window order rows by `(keys, row id)` over whole-batch key columns,
//! and spill records carry partition coordinates.
//!
//! Under a memory budget the sinks spill **per pipeline**: budgeted
//! aggregation routes and spills bucket records per partition
//! ([`spilled_aggregate`]), budgeted sorts generate their
//! budget-derived runs on parallel workers, and the Grace join's bucket
//! passes distribute via the same scheduler.
//!
//! The equivalence oracles compare a cut schedule against the uncut one
//! (`parallelism = 1`, [`MorselSizing::WholePartition`]): same engine,
//! every split/regroup/claim step degenerate. What they pin is that
//! cutting, regrouping, claim order, pooling and spilling never change a
//! byte; what a query *means* is pinned independently by `sql_exec`,
//! `eval_oracle`, the scenario suites and sigma-e2e's flattened-SQL check.

use super::*;

/// How a pipeline's input is cut into morsels. A test/bench pin, not a
/// product knob: results are bit-identical at every value, and no
/// product caller sets it. The oracles need `Fixed(3)` to force
/// multi-morsel regrouping on tiny inputs and `WholePartition` for the
/// uncut reference lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MorselSizing {
    /// Derive each pipeline's height from its input shape and the
    /// effective worker width (see `morsel_height`).
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
/// yields too few morsels to balance.
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
/// nobody to share with, cutting buys nothing. `shape` is only measured
/// when deriving.
///
/// `Derived` picks a height small enough that [`MORSEL_TARGET_BYTES`] of
/// input fit in one morsel *and* that the largest partition splits into
/// at least four morsels per worker (so one oversized partition
/// cannot serialize the tail of a query), clamped to
/// `[MIN_MORSEL_ROWS, MAX_MORSEL_ROWS]`. Purely a scheduling choice:
/// both morsel sinks merge per-morsel outputs in morsel order, and the
/// window's work items scatter to disjoint rows, so results are
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

/// Per-item cost for the claim order: `rows`' share of an input of
/// `total_bytes` over `total_rows`. Spilled sort runs and window items
/// are ordered by real byte estimates — not bare row counts — so one
/// giant item is claimed early, not last.
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

/// A Filter/Project chain compiled once for fused per-morsel execution,
/// each stage with the meter its node's entry closes from. `stages` is in
/// execution order — source side first, the reverse of the top-down plan
/// order `Plan::stream_chain` returns. The default (empty) chain passes
/// morsels through unchanged.
#[derive(Default)]
pub(super) struct CompiledChain {
    stages: Vec<(Stage, Meter)>,
    /// The top node's entry; the deeper nodes' entries follow it.
    top: usize,
}

impl CompiledChain {
    /// Open an entry per node of `chain` (top-down, the top at `depth`)
    /// and compile the nodes into stages.
    fn open(chain: &[&Plan], ctx: &ExecCtx, depth: usize) -> Result<CompiledChain, CdwError> {
        let mut top = 0;
        for (i, node) in chain.iter().enumerate() {
            let slot = ctx.stats.open(node, depth + i);
            if i == 0 {
                top = slot;
            }
        }
        let mut stages = Vec::with_capacity(chain.len());
        for node in chain.iter().rev() {
            let stage = match node {
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
                        other.label()
                    )))
                }
            };
            stages.push((stage, Meter::default()));
        }
        Ok(CompiledChain { stages, top })
    }

    /// Cut `parts` into morsels ([`morselize`]) — one per partition
    /// unless `cut` — counting them on every stage.
    fn morselize<'p>(
        &self,
        parts: &'p [Part],
        ctx: &ExecCtx,
        cut: bool,
    ) -> (Vec<Morsel<'p>>, Vec<usize>) {
        let height = if cut {
            ctx.morsel_height(|| InputShape::of_parts(parts))
        } else {
            WHOLE_PARTITION
        };
        let (morsels, counts) = morselize(parts, height);
        for (_, meter) in &self.stages {
            meter.morsels.add(morsels.len());
        }
        (morsels, counts)
    }

    /// Close every node's entry from its stage's meter. A fused node has
    /// no wall clock of its own: its elapsed is the source's (the entry
    /// right after the chain's) plus the time morsels spent in it and the
    /// stages below it, so each node's own share (elapsed minus child) is
    /// its stage time. A chain that is a pipeline's top passes its wall
    /// clock as `top_elapsed`.
    fn close(self, ctx: &ExecCtx, partitions: usize, top_elapsed: Option<Duration>) {
        let n = self.stages.len();
        if n == 0 {
            return;
        }
        let mut elapsed = ctx.stats.elapsed(self.top + n);
        for (i, (_, meter)) in self.stages.iter().enumerate() {
            elapsed += Duration::from_nanos(meter.wall_ns.get() as u64);
            let slot = self.top + n - 1 - i;
            let elapsed = match top_elapsed {
                Some(wall) if slot == self.top => wall,
                _ => elapsed,
            };
            ctx.stats.close(slot, meter, elapsed, partitions);
        }
    }
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
    for (stage, meter) in &chain.stages {
        let entered = Instant::now();
        state = match stage {
            Stage::Filter(pred) => {
                let keep = {
                    let (batch, sel) = state.batch_and_sel();
                    meter.timed(|| pred.select(batch, sel, &ctx.eval))?
                };
                meter.rows_out.add(keep.len());
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
                        let col = meter.timed(|| e.eval(batch, sel, &ctx.eval))?;
                        coerce_column(col, f.dtype)
                    })
                    .collect::<Result<_, _>>()?;
                let out = Part::new(Batch::new(schema.clone(), cols)?);
                meter.rows_out.add(out.rows());
                MorselState::Owned(out)
            }
        };
        meter.wall_ns.add(entered.elapsed().as_nanos() as usize);
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
/// Every chain node's entry opens here in pre-order, then the source
/// executes below them, so the stats tree mirrors the plan tree. The top
/// node keeps its wall clock; the nodes below it report derived times
/// (see [`CompiledChain::close`]).
pub(super) fn execute_chain(
    plan: &Plan,
    ctx: &ExecCtx,
    depth: usize,
) -> Result<Vec<Part>, CdwError> {
    let started = Instant::now();
    let (nodes, source) = plan.stream_chain();
    let chain = CompiledChain::open(&nodes, ctx, depth)?;
    let parts = execute_parts(source, ctx, depth + nodes.len())?;
    let nparts = parts.len();

    // Cut, a column selection would gather every morsel and concatenate
    // the morsels again.
    let cut = !nodes.iter().all(|n| n.is_column_selection());
    let (morsels, counts) = chain.morselize(&parts, ctx, cut);
    let outs: Vec<OutData> = par_map(
        ctx,
        morsels,
        |m| m.len().max(1),
        |m| apply_stages(&chain, &m, ctx),
    )?
    .into_iter()
    .map(|state| match state {
        MorselState::Source { batch, sel } => {
            OutData::Sel(sel.unwrap_or_else(|| (0..batch.num_rows()).collect()))
        }
        MorselState::Owned(p) => OutData::Part(p),
    })
    .collect();

    let mut out_parts = Vec::with_capacity(nparts);
    let mut it = outs.into_iter();
    for (part, count) in parts.into_iter().zip(counts) {
        let group: Vec<OutData> = it.by_ref().take(count).collect();
        out_parts.push(merge_partition(part, group)?);
    }
    chain.close(ctx, nparts, Some(started.elapsed()));
    Ok(out_parts)
}

/// Run an aggregate's per-partition fold fused with the streaming chain
/// below it (`input`; an empty chain when the input is no Filter or
/// Project): one pipeline from the chain's source to the per-partition
/// group tables, no materialized chain output. Only usable without a
/// memory budget — a budgeted aggregate needs the chain's output first
/// to estimate its state, then calls [`fold_partial`] (or spills) over
/// those parts. The aggregate's own entry is the caller's, recorded
/// through `meter`; the chain's nodes record theirs here.
pub(super) fn execute_fused_partial(
    input: &Plan,
    cagg: &CompiledAggExprs,
    aggs: &[AggCall],
    ctx: &ExecCtx,
    depth: usize,
    meter: &Meter,
) -> Result<Vec<GroupTable>, CdwError> {
    let (nodes, source) = input.stream_chain();
    let chain = CompiledChain::open(&nodes, ctx, depth)?;
    let parts = execute_parts(source, ctx, depth + nodes.len())?;
    let tables = fold_partial(&parts, &chain, cagg, aggs, ctx, meter)?;
    chain.close(ctx, parts.len(), None);
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
    meter: &Meter,
) -> Result<Vec<GroupTable>, CdwError> {
    /// One morsel's pre-evaluated aggregation inputs.
    struct EvaledMorsel {
        groups: Vec<Column>,
        args: Vec<Option<Column>>,
        rows: usize,
    }
    let (morsels, counts) = chain.morselize(parts, ctx, true);
    meter.morsels.add(morsels.len());
    let evaled: Vec<EvaledMorsel> = par_map(
        ctx,
        morsels,
        |m| m.len().max(1),
        |m| {
            let state = apply_stages(chain, &m, ctx)?;
            let rows = state.rows();
            let (batch, sel) = state.batch_and_sel();
            let (groups, args) =
                meter.timed(|| eval_group_arg_cols(batch, sel, cagg, &ctx.eval))?;
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

// ---------------------------------------------------------------------
// spilling aggregation
// ---------------------------------------------------------------------

/// Memory-budgeted aggregation: hash-partition input rows by group key
/// into spilled bucket files, aggregate one bucket at a time, and
/// interleave the per-bucket groups back into first-seen order.
///
/// `parts` carries the partition structure the in-memory fold would
/// aggregate: the input's parts. Phase 1 — the hot phase — runs per
/// partition through `par_map`: each partition evaluates its group and
/// argument expressions, routes its rows to buckets by group-key hash,
/// and builds its per-bucket spill records (tagged with the row id in
/// the partition's surviving rows and the partition index); only the
/// file appends run sequentially, in partition order. Phase 2
/// aggregates buckets in parallel: inside a bucket, each partition's
/// records fold into one group table — the identical row-visit (and FP
/// accumulation) sequence of the in-memory fold restricted to the
/// bucket's groups — then partition tables merge in partition order and
/// buckets interleave back into first-seen order by each group's first
/// `(partition, row)`, which is exactly the order the in-memory merge
/// emits.
pub(super) fn spilled_aggregate(
    parts: &[Part],
    cagg: &CompiledAggExprs,
    aggs: &[AggCall],
    schema: &Arc<Schema>,
    ctx: &ExecCtx,
    estimate: usize,
    meter: &Meter,
) -> Result<Batch, CdwError> {
    let nbuckets = ctx.memory.bucket_count(estimate);
    ctx.stats.spill_rounds.add(nbuckets);
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

    // Phase 1 (parallel per partition): evaluate, route, build records.
    meter.morsels.add(parts.len());
    let routed: Vec<Vec<Option<Batch>>> = par_map(
        ctx,
        parts.iter().enumerate().collect(),
        |(_, part)| part.est_bytes(),
        |(pidx, part)| {
            let (group_cols, arg_cols) =
                meter.timed(|| eval_group_arg_cols(&part.batch, part.sel(), cagg, &ctx.eval))?;
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
            for row in 0..part.rows() {
                route[key_bucket(keys.key(row, &mut key), nbuckets)].push(row);
            }
            let mut per_bucket: Vec<Option<Batch>> = Vec::with_capacity(nbuckets);
            for rows in &route {
                if rows.is_empty() {
                    per_bucket.push(None);
                    continue;
                }
                let mut cols: Vec<Column> = spill_cols.iter().map(|c| c.take(rows)).collect();
                cols.push(Column::from_ints(rows.iter().map(|&r| r as i64).collect()));
                cols.push(Column::from_ints(vec![pidx as i64; rows.len()]));
                per_bucket.push(Some(Batch::new(spill_schema.clone(), cols)?));
            }
            Ok(per_bucket)
        },
    )?;

    // Sequential appends in partition order.
    let mut writers: Vec<SpillWriter> = (0..nbuckets)
        .map(|_| SpillWriter::create())
        .collect::<Result<_, _>>()?;
    for per_bucket in routed {
        for (b, rec) in per_bucket.into_iter().enumerate() {
            if let Some(rec) = rec {
                let bytes = writers[b].append(&rec)?;
                ctx.stats.spilled_bytes.add(bytes);
            }
        }
    }
    let handles: Vec<SpillHandle> = writers
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;

    // Phase 2 (parallel across buckets): a bucket holds at most one
    // record per partition, in partition order. Each folds into its own
    // table, merged in partition order — the in-memory fold's exact
    // arithmetic structure. A bucket yields its finished groups plus,
    // per group, the `(partition, row)` where the group first appeared.
    type BucketGroups = (Batch, Vec<(usize, i64)>);
    let arg_slots = &arg_slots;
    let per_bucket: Vec<BucketGroups> = par_map(
        ctx,
        handles,
        |h| h.bytes() as usize,
        |handle| {
            let mut acc = GroupTable::new(aggs);
            let mut first_seen: Vec<(usize, i64)> = Vec::new();
            for rec in handle.read_all()? {
                let p = rec.column(part_slot).ints().expect("__part column")[0] as usize;
                let group_cols = rec.columns()[..gw].to_vec();
                let arg_cols: Vec<Option<Column>> = arg_slots
                    .iter()
                    .map(|s| s.map(|i| rec.column(i).clone()))
                    .collect();
                let mut table = GroupTable::new(aggs);
                let mut firsts = Vec::new();
                accumulate_into(
                    &mut table,
                    &mut firsts,
                    0,
                    &group_cols,
                    &arg_cols,
                    aggs,
                    rec.num_rows(),
                    false,
                );
                let row_ids = rec.column(row_slot).ints().expect("row-id column");
                acc.merge_from(table, |g| first_seen.push((p, row_ids[firsts[g]])));
            }
            Ok((finish_groups(acc, schema)?, first_seen))
        },
    )?;

    // Interleave buckets back into global first-seen order: stack the
    // bucket outputs, then gather by each group's first `(partition, row)`.
    let mut order: Vec<((usize, i64), usize)> = per_bucket
        .iter()
        .flat_map(|(_, first_seen)| first_seen.iter().copied())
        .zip(0..)
        .collect();
    order.sort_unstable();
    let stacked: Vec<&Batch> = per_bucket.iter().map(|(b, _)| b).collect();
    let gather: Vec<usize> = order.into_iter().map(|(_, at)| at).collect();
    Ok(Batch::concat(&stacked)?.take(&gather))
}

// ---------------------------------------------------------------------
// sort
// ---------------------------------------------------------------------

/// Sort over the concatenated input: the key columns evaluate once, then
///
/// * **In memory**: one stable sort of every row index by the keys, so
///   ties keep ascending row id.
/// * **Budgeted**: run boundaries come from `run_count`, the runs sort
///   and spill on parallel workers, then the [`merge_spilled_runs`]
///   cursor merge by `(keys, row id)` — the same total order — finishes
///   the job.
pub(super) fn sort_batch(
    batch: &Batch,
    compiled_keys: &[CompiledExpr],
    sort_keys: &[sort::SortKey],
    ctx: &ExecCtx,
    meter: &Meter,
) -> Result<Batch, CdwError> {
    let rows = batch.num_rows();
    meter.morsels.add(1);
    let key_cols = meter.timed(|| eval_columns(compiled_keys, batch, &ctx.eval))?;
    // Sort-state estimate: key columns plus the 8-byte index per row the
    // permutation holds.
    let est = key_cols.iter().map(Column::byte_size).sum::<usize>() + 8 * rows;
    let refs: Vec<&Column> = key_cols.iter().collect();
    // The comparator resolves its key columns once for every run.
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
                    ctx.stats.spilled_bytes.add(bytes);
                }
                ctx.stats.spill_rounds.add(1);
                writer.finish()
            },
        )?;
        let merged = merge_spilled_runs(&handles, key_cols.len(), sort_keys, rows)?;
        return Ok(batch.take(&merged));
    }

    let mut idx: Vec<usize> = (0..rows).collect();
    order.sort(&mut idx);
    Ok(batch.take(&idx))
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
    /// worker sees at least four morsels of it, and the result
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
        // morsels each), not like 16 (625). Asking for more
        // threads than any pool has resolves to the pool target.
        assert_eq!(derived(16, 100_000, 1_600_000, 40_000), 625);
        let ctx = ExecCtx {
            eval: EvalCtx::default(),
            parallelism: usize::MAX,
            morsel_sizing: MorselSizing::Derived,
            memory: ExecMemoryTracker::new(None),
            stats: ExecStats::default(),
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
}
