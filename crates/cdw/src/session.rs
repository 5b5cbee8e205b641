//! The warehouse facade: parse → plan → optimize → execute, plus DDL/DML,
//! persisted result sets, and the configuration knobs experiments sweep.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sigma_sql::{parse_statement, Dialect, Query, Statement};
use sigma_value::Batch;

use crate::catalog::{Catalog, TableStats};
use crate::error::CdwError;
use crate::eval::{self, EvalCtx, PhysExpr};
use crate::exec::{execute, ExecCtx, ExecStats, MorselSizing, OpStats};
use crate::optimizer::optimize;
use crate::plan::Plan;
use crate::planner::{Planner, Scope};
use crate::storage::DEFAULT_PARTITION_ROWS;

/// Warehouse configuration.
#[derive(Debug, Clone)]
pub struct WarehouseConfig {
    /// Worker threads for partition-parallel stages.
    pub parallelism: usize,
    /// Simulated per-query compute startup latency (models the cloud
    /// warehouse's dispatch overhead; 0 for raw engine benchmarks).
    pub query_overhead: Duration,
    /// Session clock for CURRENT_DATE / CURRENT_TIMESTAMP.
    pub now_micros: i64,
    /// How many recent result sets to keep addressable via RESULT_SCAN.
    pub max_persisted_results: usize,
    /// Per-operator execution memory budget in bytes (`None` =
    /// unbounded). When an aggregation hash table, sort run, or hash-join
    /// build side would exceed it, the operator runs out-of-core via
    /// spill files — with bit-identical results (see
    /// [`crate::exec::ExecMemoryTracker`]).
    pub memory_budget: Option<usize>,
    /// How pipelines cut their input into morsels. The default derives
    /// each pipeline's height from its input shape and the effective
    /// worker width (whole partitions when execution is serial). Results
    /// are bit-identical at every value — this only changes how work is
    /// scheduled, and exists so the equivalence oracles and the scaling
    /// bench can pin a fixed height or the uncut reference.
    pub morsel_sizing: MorselSizing,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            parallelism: 1,
            query_overhead: Duration::ZERO,
            now_micros: EvalCtx::default().now_micros,
            max_persisted_results: 256,
            memory_budget: None,
            morsel_sizing: MorselSizing::Derived,
        }
    }
}

/// One executed query's outcome.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Warehouse-assigned id; pass to `RESULT_SCAN('<id>')` to re-fetch.
    pub query_id: String,
    pub batch: Batch,
    pub rows_scanned: usize,
    pub partitions_scanned: usize,
    pub elapsed: Duration,
    /// Number of rows affected, for DML (0 for queries).
    pub rows_affected: usize,
    /// Per-operator breakdown (rows in/out, partitions, elapsed) in plan
    /// pre-order; empty for DDL/DML. Render via [`Warehouse::explain_analyze`]
    /// or inspect directly for time attribution.
    pub operators: Vec<OpStats>,
    /// Bytes this query wrote to spill files (0 when every operator fit
    /// the memory budget, always 0 when unbudgeted).
    pub spilled_bytes: usize,
    /// Spill rounds taken (aggregation/join bucket passes + sort runs).
    pub spill_rounds: usize,
}

/// An in-process cloud data warehouse.
pub struct Warehouse {
    catalog: RwLock<Catalog>,
    /// Persisted result sets by query id (LRU-capped: re-fetching a result
    /// via [`Warehouse::persisted_result`] or [`Warehouse::touch_result`]
    /// promotes it, so results that stage caching keeps re-serving via
    /// `RESULT_SCAN` are not evicted in insertion order).
    results: RwLock<HashMap<String, Batch>>,
    retention: RwLock<sigma_value::lru::LruIndex<String>>,
    next_query_id: AtomicU64,
    config: RwLock<WarehouseConfig>,
    /// Total queries executed (for experiment bookkeeping).
    queries_executed: AtomicU64,
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::new(WarehouseConfig::default())
    }
}

impl Warehouse {
    pub fn new(config: WarehouseConfig) -> Warehouse {
        Warehouse {
            catalog: RwLock::new(Catalog::new()),
            results: RwLock::new(HashMap::new()),
            retention: RwLock::new(sigma_value::lru::LruIndex::new()),
            next_query_id: AtomicU64::new(1),
            config: RwLock::new(config),
            queries_executed: AtomicU64::new(0),
        }
    }

    /// The dialect this warehouse parses (the generic superset).
    pub fn dialect(&self) -> Dialect {
        Dialect::generic()
    }

    pub fn config(&self) -> WarehouseConfig {
        self.config.read().clone()
    }

    pub fn set_parallelism(&self, parallelism: usize) {
        self.config.write().parallelism = parallelism.max(1);
    }

    /// Set the per-operator execution memory budget (`None` = unbounded).
    /// Operators whose state would exceed it spill to disk; results stay
    /// bit-identical at any budget.
    pub fn set_memory_budget(&self, budget: Option<usize>) {
        self.config.write().memory_budget = budget;
    }

    /// The configured per-operator memory budget.
    pub fn memory_budget(&self) -> Option<usize> {
        self.config.read().memory_budget
    }

    /// Pin how pipelines cut their input into morsels (tests and
    /// benches; results are bit-identical at every value).
    pub fn set_morsel_sizing(&self, sizing: MorselSizing) {
        self.config.write().morsel_sizing = sizing;
    }

    pub fn set_query_overhead(&self, overhead: Duration) {
        self.config.write().query_overhead = overhead;
    }

    /// Number of queries executed since startup (experiment counters).
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed.load(Ordering::Relaxed)
    }

    /// Register a table directly from a batch (bulk load path).
    pub fn load_table(&self, name: &str, batch: Batch) -> Result<(), CdwError> {
        self.catalog
            .write()
            .create_table_from_batch(name, batch, true)
    }

    /// Register a table with an explicit partition size (tests and benches
    /// use this to exercise partition-parallel execution on small data).
    pub fn load_table_partitioned(
        &self,
        name: &str,
        batch: Batch,
        partition_rows: usize,
    ) -> Result<(), CdwError> {
        self.catalog
            .write()
            .create_table_from_batch_partitioned(name, batch, true, partition_rows)
    }

    /// Register a table from explicit partitions. Unlike
    /// [`load_table_partitioned`](Self::load_table_partitioned)'s uniform
    /// split, the caller controls each partition's size — the skew tests
    /// feed one giant partition next to empty and single-row ones to
    /// exercise the work-stealing scheduler's worst cases.
    pub fn load_table_parts(&self, name: &str, parts: Vec<Batch>) -> Result<(), CdwError> {
        self.catalog
            .write()
            .create_table_from_parts(name, parts, true)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    pub fn table_stats(&self, name: &str) -> Result<TableStats, CdwError> {
        self.catalog.read().stats(name)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains(name)
    }

    /// Schema of a stored table.
    pub fn table_schema(&self, name: &str) -> Option<std::sync::Arc<sigma_value::Schema>> {
        self.catalog
            .read()
            .get(name)
            .ok()
            .map(|t| t.schema().clone())
    }

    /// Output schema of a query, derived by planning it (used by the
    /// service to type raw-SQL workbook sources without executing them).
    pub fn query_schema(&self, sql: &str) -> Result<std::sync::Arc<sigma_value::Schema>, CdwError> {
        Ok(self.plan_sql(sql)?.schema())
    }

    /// Fetch a persisted result set by query id (the query-directory
    /// cache's re-fetch path). A hit promotes the result to
    /// most-recently-used so stage results under active reuse stay
    /// addressable.
    pub fn persisted_result(&self, query_id: &str) -> Option<Batch> {
        let hit = self.results.read().get(query_id).cloned();
        if hit.is_some() {
            self.retention.write().touch(query_id);
        }
        hit
    }

    /// Whether a result set is still addressable via `RESULT_SCAN`,
    /// promoting it if so (the stage cache's liveness probe — no batch
    /// clone).
    pub fn touch_result(&self, query_id: &str) -> bool {
        if !self.results.read().contains_key(query_id) {
            return false;
        }
        self.retention.write().touch(query_id)
    }

    /// Execute one SQL statement.
    pub fn execute_sql(&self, sql: &str) -> Result<ResultSet, CdwError> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute an already parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<ResultSet, CdwError> {
        let started = Instant::now();
        let config = self.config();
        if !config.query_overhead.is_zero() {
            std::thread::sleep(config.query_overhead);
        }
        self.queries_executed.fetch_add(1, Ordering::Relaxed);
        let mut stats = ExecStats::default();
        let outcome = match stmt {
            Statement::Query(q) => {
                let (batch, _) = self.run_query(q, &[], &mut stats)?;
                let query_id = self.install_result(batch.clone());
                ResultSet {
                    query_id,
                    batch,
                    rows_scanned: stats.rows_scanned,
                    partitions_scanned: stats.partitions_scanned,
                    elapsed: started.elapsed(),
                    rows_affected: 0,
                    operators: std::mem::take(&mut stats.operators),
                    spilled_bytes: stats.spilled_bytes,
                    spill_rounds: stats.spill_rounds,
                }
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let fields = columns
                    .iter()
                    .map(|(n, t)| sigma_value::Field::new(n.clone(), *t))
                    .collect();
                self.catalog.write().create_table(
                    &name.to_dotted(),
                    std::sync::Arc::new(sigma_value::Schema::new(fields)),
                    *if_not_exists,
                )?;
                self.empty_result(started)
            }
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            } => {
                let (batch, _) = self.run_query(query, &[], &mut stats)?;
                let rows = batch.num_rows();
                self.catalog.write().create_table_from_batch(
                    &name.to_dotted(),
                    batch,
                    *or_replace,
                )?;
                ResultSet {
                    rows_affected: rows,
                    spilled_bytes: stats.spilled_bytes,
                    spill_rounds: stats.spill_rounds,
                    ..self.empty_result(started)
                }
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                let (batch, _) = self.run_query(source, &[], &mut stats)?;
                let rows = batch.num_rows();
                let mut catalog = self.catalog.write();
                let stored = catalog.get_mut(&table.to_dotted())?;
                let batch = align_insert(stored.schema(), columns.as_deref(), batch)?;
                stored.append(batch)?;
                ResultSet {
                    rows_affected: rows,
                    spilled_bytes: stats.spilled_bytes,
                    spill_rounds: stats.spill_rounds,
                    ..self.empty_result(started)
                }
            }
            Statement::Update {
                table,
                assignments,
                selection,
            } => {
                let rows = self.run_update(&table.to_dotted(), assignments, selection.as_ref())?;
                ResultSet {
                    rows_affected: rows,
                    ..self.empty_result(started)
                }
            }
            Statement::Delete { table, selection } => {
                let rows = self.run_delete(&table.to_dotted(), selection.as_ref())?;
                ResultSet {
                    rows_affected: rows,
                    ..self.empty_result(started)
                }
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog
                    .write()
                    .drop_table(&name.to_dotted(), *if_exists)?;
                self.empty_result(started)
            }
        };
        Ok(ResultSet {
            elapsed: started.elapsed(),
            ..outcome
        })
    }

    /// Execute a query and render the per-operator breakdown as an
    /// EXPLAIN ANALYZE-style tree (rows in/out, partitions, elapsed per
    /// operator) so time can be attributed within the plan.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, CdwError> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(q) = stmt else {
            return Err(CdwError::plan("EXPLAIN ANALYZE supports only queries"));
        };
        let mut stats = ExecStats::default();
        self.run_query(&q, &[], &mut stats)?;
        Ok(stats.render())
    }

    /// Render the morsel-pipeline decomposition of a query's optimized
    /// plan (EXPLAIN PIPELINES-style) without executing it: fused
    /// Filter/Project chains, pipeline sources/sinks, and breakers.
    pub fn explain_pipelines(&self, sql: &str) -> Result<String, CdwError> {
        Ok(crate::optimizer::explain_pipelines(&self.plan_sql(sql)?))
    }

    /// Plan (without executing) — exposed for EXPLAIN-style tooling/tests.
    pub fn plan_sql(&self, sql: &str) -> Result<Plan, CdwError> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(q) = stmt else {
            return Err(CdwError::plan("EXPLAIN supports only queries"));
        };
        let catalog = self.catalog.read();
        let results = self.results.read();
        let planner = Planner::new(&catalog, &results);
        let plan = planner.plan_query(&q, &[])?;
        optimize(plan, &self.eval_ctx())
    }

    fn eval_ctx(&self) -> EvalCtx {
        EvalCtx {
            now_micros: self.config.read().now_micros,
        }
    }

    /// Plan, optimize and execute `query` with `inputs` bound as relations
    /// by name, shadowing catalog tables (see
    /// [`Planner::plan_query`]). Returns the result and whether the
    /// plan, before optimization, was only `Filter`/`Project`/`Sort`
    /// nodes over one of the inputs ([`Plan::chain_source`]) — the
    /// browser tier tells a delta edit from a residual one by it.
    ///
    /// Nothing is persisted: the result store is read (for `RESULT_SCAN`)
    /// but never written, so no query id is assigned.
    pub fn execute_over(
        &self,
        query: &Query,
        inputs: &[(&str, &Batch)],
    ) -> Result<(Batch, bool), CdwError> {
        self.run_query(query, inputs, &mut ExecStats::default())
    }

    fn run_query(
        &self,
        q: &Query,
        inputs: &[(&str, &Batch)],
        stats: &mut ExecStats,
    ) -> Result<(Batch, bool), CdwError> {
        let catalog = self.catalog.read();
        let results = self.results.read();
        let plan = Planner::new(&catalog, &results).plan_query(q, inputs)?;
        // A bound input's leaf shares the input's schema allocation; the
        // planner's own `Values` leaves (VALUES rows, the FROM-less dual
        // row) each build a fresh one.
        let chain = plan.chain_source().is_some_and(|source| {
            inputs
                .iter()
                .any(|(_, input)| Arc::ptr_eq(source.schema(), input.schema()))
        });
        let plan = optimize(plan, &self.eval_ctx())?;
        let config = self.config.read().clone();
        let ctx = ExecCtx {
            catalog: &catalog,
            results: &results,
            eval: self.eval_ctx(),
            parallelism: config.parallelism,
            morsel_sizing: config.morsel_sizing,
            memory: crate::exec::ExecMemoryTracker::new(config.memory_budget),
            sched: crate::exec::scheduler::SchedCounters::default(),
        };
        Ok((execute(&plan, &ctx, stats)?, chain))
    }

    fn run_update(
        &self,
        table: &str,
        assignments: &[(String, sigma_sql::SqlExpr)],
        selection: Option<&sigma_sql::SqlExpr>,
    ) -> Result<usize, CdwError> {
        let mut catalog = self.catalog.write();
        let results = self.results.read();
        let schema = catalog.get(table)?.schema().clone();
        let full = catalog.get(table)?.to_batch();
        let planner = Planner::new(&catalog, &results);
        let scope = Scope::single(table, schema.clone());
        let ctx = self.eval_ctx();
        let predicate = match selection {
            Some(sel) => planner.resolve(sel, &scope)?,
            None => PhysExpr::lit(true),
        };
        let affected = eval::select(&predicate, &full, None, &ctx)?.len();
        let mut new_columns = Vec::with_capacity(full.num_columns());
        for (ci, field) in schema.fields().iter().enumerate() {
            let target = assignments
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(&field.name));
            let Some((_, expr)) = target else {
                new_columns.push(full.column(ci).clone());
                continue;
            };
            // The new value where the predicate is exactly TRUE, the old
            // one elsewhere. The cast is strict: a value the column cannot
            // hold fails the statement before the table is touched.
            let value = PhysExpr::Cast {
                expr: Box::new(planner.resolve(expr, &scope)?),
                dtype: field.dtype,
                strict: true,
            };
            let updated = PhysExpr::Case {
                operand: None,
                whens: vec![(predicate.clone(), value)],
                else_: Some(Box::new(PhysExpr::Col(ci))),
            };
            new_columns.push(eval::eval(&updated, &full, &ctx)?);
        }
        let rebuilt = Batch::new(schema, new_columns)?;
        catalog
            .get_mut(table)?
            .replace_all(rebuilt, DEFAULT_PARTITION_ROWS);
        Ok(affected)
    }

    fn run_delete(
        &self,
        table: &str,
        selection: Option<&sigma_sql::SqlExpr>,
    ) -> Result<usize, CdwError> {
        let mut catalog = self.catalog.write();
        let results = self.results.read();
        let schema = catalog.get(table)?.schema().clone();
        let full = catalog.get(table)?.to_batch();
        let predicate = match selection {
            Some(sel) => {
                Planner::new(&catalog, &results).resolve(sel, &Scope::single(table, schema))?
            }
            None => PhysExpr::lit(true),
        };
        let deleted = eval::select(&predicate, &full, None, &self.eval_ctx())?;
        let mut keep = vec![true; full.num_rows()];
        for &i in &deleted {
            keep[i] = false;
        }
        catalog
            .get_mut(table)?
            .replace_all(full.filter(&keep), DEFAULT_PARTITION_ROWS);
        Ok(deleted.len())
    }

    fn empty_result(&self, started: Instant) -> ResultSet {
        ResultSet {
            query_id: self.fresh_query_id(),
            batch: Batch::empty(std::sync::Arc::new(sigma_value::Schema::empty())),
            rows_scanned: 0,
            partitions_scanned: 0,
            elapsed: started.elapsed(),
            rows_affected: 0,
            operators: Vec::new(),
            spilled_bytes: 0,
            spill_rounds: 0,
        }
    }

    fn fresh_query_id(&self) -> String {
        format!("q-{}", self.next_query_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Register a batch as a persisted result, addressable via
    /// `RESULT_SCAN('<id>')`: how every executed query's result is kept,
    /// and how a caller exposes a batch it already holds without
    /// executing anything. Subject to LRU retention; pair with
    /// [`Warehouse::evict_result`] for prompt cleanup. (To run one query
    /// over batches in hand, bind them with [`Warehouse::execute_over`]
    /// instead — nothing to clean up.)
    pub fn install_result(&self, batch: Batch) -> String {
        let id = self.fresh_query_id();
        let max = self.config.read().max_persisted_results;
        let mut results = self.results.write();
        let mut retention = self.retention.write();
        results.insert(id.clone(), batch);
        retention.insert(id.clone());
        while results.len() > max {
            let Some(evicted) = retention.evict_oldest() else {
                break;
            };
            results.remove(&evicted);
        }
        id
    }

    /// Drop a persisted result by query id (ephemeral-table cleanup).
    /// Returns whether it was present.
    pub fn evict_result(&self, query_id: &str) -> bool {
        let mut results = self.results.write();
        let mut retention = self.retention.write();
        retention.remove(query_id);
        results.remove(query_id).is_some()
    }
}

/// Align an INSERT source batch to the table schema, handling an explicit
/// column list (missing columns become NULL) and Int->Float/Date->Timestamp
/// widening.
fn align_insert(
    schema: &std::sync::Arc<sigma_value::Schema>,
    columns: Option<&[String]>,
    batch: Batch,
) -> Result<Batch, CdwError> {
    let mut out_cols = Vec::with_capacity(schema.len());
    match columns {
        None => {
            if batch.num_columns() != schema.len() {
                return Err(CdwError::exec(format!(
                    "INSERT has {} columns, table expects {}",
                    batch.num_columns(),
                    schema.len()
                )));
            }
            for (i, field) in schema.fields().iter().enumerate() {
                out_cols.push(batch.column(i).cast(field.dtype)?);
            }
        }
        Some(cols) => {
            if batch.num_columns() != cols.len() {
                return Err(CdwError::exec(format!(
                    "INSERT names {} columns but supplies {}",
                    cols.len(),
                    batch.num_columns()
                )));
            }
            for field in schema.fields() {
                let src = cols
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&field.name));
                match src {
                    Some(i) => out_cols.push(batch.column(i).cast(field.dtype)?),
                    None => {
                        out_cols.push(sigma_value::Column::nulls(field.dtype, batch.num_rows()))
                    }
                }
            }
        }
    }
    Batch::new(schema.clone(), out_cols).map_err(CdwError::from)
}
