//! The service facade: the full request lifecycle of Figure 2.
//!
//! Browser → (JSON workbook state) → authenticate → access control → query
//! input graph resolution → materialized view substitution → compile →
//! workload queue → customer CDW → result back (by query id).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use sigma_cdw::{CdwError, ResultSet, Warehouse};
use sigma_core::schema::SchemaProvider;
use sigma_core::{
    CompileOptions, Compiler, StageHost, StageNode, StagePlan, StageStep, WalkOutcome, Workbook,
};

use sigma_value::Batch;

use crate::cache::{DirKey, DirectoryStats, QueryDirectory};
use crate::documents::DocumentStore;
use crate::error::ServiceError;
use crate::materialize::Materializer;
use crate::tenancy::{Grants, Role, Tenancy, User};
use crate::workload::{AdmissionConfig, Priority, WorkloadManager, WorkloadStats};

/// A configured warehouse connection ("Sigma allows multiple warehouse
/// configurations per customer", §2).
/// Per-connection handles resolved for a request: warehouse, query
/// directory, and workload manager.
type ConnectionParts = (Arc<Warehouse>, Arc<QueryDirectory>, Arc<WorkloadManager>);

struct Connection {
    org: u64,
    warehouse: Arc<Warehouse>,
    directory: Arc<QueryDirectory>,
    workload: Arc<WorkloadManager>,
}

/// Where a query answer came from (experiment E4's observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Fresh execution on the warehouse (no cached stage helped).
    Warehouse,
    /// Query-directory hit: result re-fetched from the CDW by query id.
    QueryDirectory,
    /// Partial reuse: at least one pipeline stage was served from the
    /// directory via `RESULT_SCAN`; only the changed suffix re-executed.
    StageReuse,
}

/// One query request: the browser ships the JSON-encoded workbook state.
pub struct QueryRequest<'a> {
    pub token: &'a str,
    pub connection: &'a str,
    pub workbook_json: &'a str,
    pub element: &'a str,
    pub priority: Priority,
}

/// The service's answer.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub batch: Batch,
    pub query_id: String,
    pub sql: String,
    pub served_from: ServedFrom,
    pub queue_wait: Duration,
    /// Pipeline stages answered from the query directory (prefix reuse).
    pub stage_hits: usize,
    /// Pipeline stages (including the final assembly) executed on the
    /// warehouse for this request.
    pub stages_executed: usize,
    /// Warehouse *table* rows scanned by this request (RESULT_SCAN reads
    /// of persisted results are free and not counted).
    pub rows_scanned: usize,
    /// The element's root stage fingerprint (the sink's Merkle hash) —
    /// the canonical cache key for this workbook state. Browser clients
    /// key their result cache on it without compiling themselves.
    pub root_fingerprint: sigma_core::Fingerprint,
    /// The compiled stage DAG: standalone per-stage SQL, Merkle
    /// fingerprints, and table dependencies. Browser clients keep the
    /// last plan per element and diff it against the next edit's plan to
    /// run only the invalidated suffix locally.
    pub stages: StagePlan,
    /// Interior stage results riding back with the answer, as
    /// `(fingerprint hex, batch)` pairs — the client seeds its
    /// fingerprint-keyed stage cache from these so the *next* edit can
    /// reuse them without any warehouse round trip. Only stages whose
    /// persisted result is still live and fits the ship cap are included.
    pub stage_results: Vec<(String, Batch)>,
    /// Schemas of the warehouse tables the element reads, letting the
    /// client compile subsequent edits locally even when the tables
    /// themselves were never prefetched.
    pub table_schemas: Vec<(String, Arc<sigma_value::Schema>)>,
}

/// The multi-tenant Sigma service.
pub struct SigmaService {
    pub tenancy: Tenancy,
    pub grants: Grants,
    pub documents: DocumentStore,
    pub materializer: Materializer,
    connections: RwLock<HashMap<String, Connection>>,
    /// Admission limit applied to newly added connections.
    default_concurrency: usize,
    /// Stage-level caching: when on, each CTE stage of a compiled element
    /// executes as its own warehouse query keyed by its Merkle fingerprint,
    /// so an edit re-executes only the stages downstream of the change.
    stage_caching: AtomicBool,
    /// Byte budget for interior stage results shipped back on each
    /// [`QueryOutcome`] (0 disables shipping). Mirrors the prefetch
    /// philosophy: small intermediates ride along so the browser can run
    /// residual suffixes without another round trip.
    stage_ship_cap: AtomicUsize,
}

/// `SchemaProvider` over a live warehouse connection.
pub struct WarehouseSchemas<'a>(pub &'a Warehouse);

impl SchemaProvider for WarehouseSchemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Arc<sigma_value::Schema>> {
        self.0.table_schema(table)
    }
    fn query_schema(&self, sql: &str) -> Option<Arc<sigma_value::Schema>> {
        self.0.query_schema(sql).ok()
    }
}

impl SigmaService {
    pub fn new() -> SigmaService {
        SigmaService {
            tenancy: Tenancy::new(),
            grants: Grants::new(),
            documents: DocumentStore::new(),
            materializer: Materializer::new(),
            connections: RwLock::new(HashMap::new()),
            default_concurrency: 8,
            stage_caching: AtomicBool::new(true),
            stage_ship_cap: AtomicUsize::new(8 << 20),
        }
    }

    pub fn with_concurrency(mut self, max_concurrent: usize) -> SigmaService {
        self.default_concurrency = max_concurrent.max(1);
        self
    }

    /// Toggle stage-level caching (on by default). With it off the service
    /// behaves like the original whole-query directory: one warehouse
    /// query per request, keyed by the element's root fingerprint.
    pub fn set_stage_caching(&self, enabled: bool) {
        self.stage_caching.store(enabled, Ordering::Relaxed);
    }

    pub fn stage_caching(&self) -> bool {
        self.stage_caching.load(Ordering::Relaxed)
    }

    /// Set the byte budget for stage results shipped on each outcome
    /// (0 disables shipping entirely).
    pub fn set_stage_ship_cap(&self, bytes: usize) {
        self.stage_ship_cap.store(bytes, Ordering::Relaxed);
    }

    pub fn stage_ship_cap(&self) -> usize {
        self.stage_ship_cap.load(Ordering::Relaxed)
    }

    /// Register a warehouse connection for an org.
    pub fn add_connection(&self, org: u64, name: &str, warehouse: Arc<Warehouse>) {
        self.connections.write().insert(
            name.to_string(),
            Connection {
                org,
                warehouse,
                directory: Arc::new(QueryDirectory::new(512)),
                workload: Arc::new(WorkloadManager::new(self.default_concurrency)),
            },
        );
    }

    fn connection_for(&self, user: &User, name: &str) -> Result<ConnectionParts, ServiceError> {
        let conns = self.connections.read();
        let conn = conns
            .get(name)
            .ok_or_else(|| ServiceError::NotFound(format!("connection {name}")))?;
        if conn.org != user.org {
            return Err(ServiceError::Forbidden(format!(
                "connection {name} belongs to another organization"
            )));
        }
        Ok((
            conn.warehouse.clone(),
            conn.directory.clone(),
            conn.workload.clone(),
        ))
    }

    /// Set the per-operator execution memory budget of one connection's
    /// warehouse (`None` = unbounded). Queries on the connection whose
    /// aggregation/sort/join state would exceed the budget run out-of-core
    /// with spill files — results stay bit-identical, so flipping the knob
    /// is always safe. Returns false for an unknown connection.
    pub fn set_connection_memory_budget(&self, connection: &str, budget: Option<usize>) -> bool {
        match self.connections.read().get(connection) {
            Some(c) => {
                c.warehouse.set_memory_budget(budget);
                true
            }
            None => false,
        }
    }

    /// The per-operator memory budget currently configured on a
    /// connection's warehouse (`None` = unbounded or unknown connection).
    pub fn connection_memory_budget(&self, connection: &str) -> Option<usize> {
        self.connections
            .read()
            .get(connection)
            .and_then(|c| c.warehouse.memory_budget())
    }

    /// Cache statistics for a connection (experiment E4/E6 observables).
    pub fn directory_stats(&self, connection: &str) -> Option<DirectoryStats> {
        self.connections
            .read()
            .get(connection)
            .map(|c| c.directory.stats())
    }

    pub fn workload_stats(&self, connection: &str) -> Option<WorkloadStats> {
        self.connections
            .read()
            .get(connection)
            .map(|c| c.workload.stats())
    }

    /// Replace one connection's admission-control policy (concurrency
    /// limit, per-tenant quota, queue bound, default deadline). Returns
    /// false for an unknown connection.
    pub fn set_connection_admission(&self, connection: &str, config: AdmissionConfig) -> bool {
        match self.connections.read().get(connection) {
            Some(c) => {
                c.workload.set_config(config);
                true
            }
            None => false,
        }
    }

    /// The admission policy currently applied to a connection.
    pub fn connection_admission(&self, connection: &str) -> Option<AdmissionConfig> {
        self.connections
            .read()
            .get(connection)
            .map(|c| c.workload.config())
    }

    /// Set an org's weighted-fair-queueing weight on a connection
    /// (default 1). Returns false for an unknown connection.
    pub fn set_tenant_weight(&self, connection: &str, org: u64, weight: u32) -> bool {
        match self.connections.read().get(connection) {
            Some(c) => {
                c.workload.set_tenant_weight(org, weight);
                true
            }
            None => false,
        }
    }

    /// Per-org admission statistics on a connection (fairness
    /// observables for the traffic-replay bench and the server tier).
    pub fn tenant_workload_stats(
        &self,
        connection: &str,
        org: u64,
    ) -> Option<crate::workload::TenantStats> {
        self.connections
            .read()
            .get(connection)
            .map(|c| c.workload.tenant_stats(org))
    }

    /// Validate that `token` may use `connection` (exists and belongs to
    /// the caller's org) without running a query — the server tier's
    /// `open_session` check.
    pub fn check_connection(&self, token: &str, connection: &str) -> Result<(), ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        self.connection_for(&user, connection).map(|_| ())
    }

    /// Compile an element of a workbook against a connection, applying
    /// materialized-view substitution.
    pub fn compile(
        &self,
        user: &User,
        connection: &str,
        workbook: &Workbook,
        element: &str,
    ) -> Result<sigma_core::compile::CompiledQuery, ServiceError> {
        let (warehouse, _, _) = self.connection_for(user, connection)?;
        let schemas = WarehouseSchemas(&warehouse);
        let options = CompileOptions {
            dialect: warehouse.dialect(),
            materializations: self.materializer.substitutions(),
        };
        let compiler = Compiler::new(workbook, &schemas, options);
        Ok(compiler.compile_element(element)?)
    }

    /// Token-authenticated compile (used by browser clients to obtain
    /// per-stage fingerprints without a separate `User` handle).
    pub fn compile_with_token(
        &self,
        token: &str,
        connection: &str,
        workbook: &Workbook,
        element: &str,
    ) -> Result<sigma_core::compile::CompiledQuery, ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        self.compile(&user, connection, workbook, element)
    }

    /// The full §2 lifecycle for one element query.
    pub fn run_query(&self, req: &QueryRequest<'_>) -> Result<QueryOutcome, ServiceError> {
        self.run_query_deadline(req, None)
    }

    /// [`run_query`](Self::run_query) with an admission deadline: each
    /// workload-queue wait is bounded by `deadline`, and a full tenant
    /// queue sheds the request immediately with
    /// [`ServiceError::Overloaded`] instead of queueing without bound.
    pub fn run_query_deadline(
        &self,
        req: &QueryRequest<'_>,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ServiceError> {
        // 1. Authentication.
        let user = self.tenancy.authenticate(req.token)?;
        // Admission control is per tenant: the user's org is the
        // fair-queueing principal on the connection's workload manager.
        let tenant = user.org;
        // 2. Access control (connection scoping).
        let (warehouse, directory, workload) = self.connection_for(&user, req.connection)?;
        // 3. Workbook state arrives as JSON.
        let workbook = Workbook::from_json(req.workbook_json)?;
        // 4. Graph resolution + matview substitution + compilation.
        let compiled = self.compile(&user, req.connection, &workbook, req.element)?;
        // 5. Query directory. The compiled element is a DAG of fingerprinted
        // stages; the directory caches each stage's CDW-persisted result by
        // `(connection, fingerprint)`. The root (sink) fingerprint keys the
        // whole query; interior fingerprints enable cross-edit prefix reuse.
        let (sql, plan) = (compiled.sql, compiled.stages);
        let root_fingerprint = plan.root_fingerprint();
        let root_key = DirKey::for_stage(req.connection, root_fingerprint);
        let all_tables: Arc<[String]> = plan.sink().all_tables.clone().into();
        let mut host = DirectoryHost {
            warehouse: &warehouse,
            directory: &directory,
            workload: &workload,
            connection: req.connection,
            tenant,
            priority: req.priority,
            deadline,
            queue_wait: Duration::ZERO,
            stage_hits: 0,
            stages_executed: 0,
            rows_scanned: 0,
        };
        let (mut query_id, cached) = directory.run_coalesced(root_key, || {
            if self.stage_caching() && plan.nodes.len() > 1 {
                match plan.walk(&mut host) {
                    Ok(Some(walk)) => return Ok(host.adopt(walk)),
                    // Admission rejections are backpressure, not cache
                    // staleness: retrying flattened would *add* load to an
                    // already saturated warehouse. Propagate immediately.
                    Err(e @ ServiceError::Overloaded { .. })
                    | Err(e @ ServiceError::DeadlineExceeded { .. }) => return Err(e),
                    // A reused stage's persisted result can be evicted
                    // between the walk's liveness check and the execution
                    // that RESULT_SCANs it (the directory promotes but
                    // cannot pin). Fall back to one flattened query rather
                    // than failing a request that would succeed with
                    // caching off; a genuine query error surfaces from the
                    // flattened run too.
                    Ok(None) | Err(_) => {}
                }
            }
            host.run_flattened(&sql).map(|r| r.query_id)
        })?;
        directory.set_deps(root_key, all_tables.clone());
        // 6. Fetch the result set (fresh executions persist it; directory
        // hits re-fetch by query id).
        let (batch, served_from) = match warehouse.persisted_result(&query_id) {
            Some(batch) if cached => (batch, ServedFrom::QueryDirectory),
            Some(batch) if host.stage_hits > 0 => (batch, ServedFrom::StageReuse),
            Some(batch) => (batch, ServedFrom::Warehouse),
            None => {
                // Evicted from the warehouse's persisted results: re-run
                // the whole query fresh.
                directory.invalidate_key(root_key);
                let r = host.run_flattened(&sql)?;
                directory.insert_with_deps(root_key, &r.query_id, all_tables);
                query_id = r.query_id;
                (r.batch, ServedFrom::Warehouse)
            }
        };
        // Ship small live interior stage results (and the table schemas
        // the element reads) so the client can serve the next edit's
        // residual suffix — or a delta fast path — without a round trip.
        let ship_cap = self.stage_ship_cap();
        let mut stage_results: Vec<(String, Batch)> = Vec::new();
        if ship_cap > 0 && plan.nodes.len() > 1 {
            let mut shipped = 0usize;
            // Walk interior stages deepest-last so, under cap pressure,
            // the stages nearest the sink (the most valuable reuse
            // frontier for small edits) win the budget.
            for node in plan.nodes[..plan.nodes.len() - 1].iter().rev() {
                let key = DirKey::for_stage(req.connection, node.fingerprint);
                let qid = directory.lookup_stage(key);
                let Some(b) = qid.and_then(|qid| warehouse.persisted_result(&qid)) else {
                    continue;
                };
                let bytes = b.byte_size();
                if shipped + bytes > ship_cap {
                    continue;
                }
                shipped += bytes;
                stage_results.push((node.fingerprint.hex(), b));
            }
        }
        let table_schemas: Vec<(String, Arc<sigma_value::Schema>)> = plan
            .sink()
            .all_tables
            .iter()
            .filter_map(|t| warehouse.table_schema(t).map(|s| (t.clone(), s)))
            .collect();
        Ok(QueryOutcome {
            batch,
            query_id,
            sql,
            served_from,
            queue_wait: host.queue_wait,
            stage_hits: host.stage_hits,
            stages_executed: host.stages_executed,
            rows_scanned: host.rows_scanned,
            root_fingerprint,
            stages: plan,
            stage_results,
            table_schemas,
        })
    }

    // ------------------------------------------------------------------
    // ad-hoc data (§3.4)
    // ------------------------------------------------------------------

    /// Marshal an uploaded CSV into the customer's warehouse as a table.
    pub fn upload_csv(
        &self,
        token: &str,
        connection: &str,
        table: &str,
        csv_text: &str,
    ) -> Result<usize, ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        if user.role == Role::Viewer {
            return Err(ServiceError::Forbidden("viewers cannot upload data".into()));
        }
        let (warehouse, directory, _) = self.connection_for(&user, connection)?;
        let batch = sigma_value::csv::read_csv(csv_text, &Default::default())
            .map_err(|e| ServiceError::BadRequest(format!("csv: {e}")))?;
        let rows = batch.num_rows();
        warehouse.load_table(table, batch)?;
        // Only cached results that read this table are stale.
        directory.invalidate_tables(&[table]);
        Ok(rows)
    }

    /// Project an editable input table into the warehouse (first save).
    pub fn project_input_table(
        &self,
        token: &str,
        connection: &str,
        workbook: &mut Workbook,
        element: &str,
    ) -> Result<String, ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        let (warehouse, directory, _) = self.connection_for(&user, connection)?;
        let table = format!(
            "input_{}_{}",
            user.org,
            element.to_ascii_lowercase().replace(' ', "_")
        );
        let input = workbook
            .input_table_mut(element)
            .ok_or_else(|| ServiceError::NotFound(format!("input table {element}")))?;
        let batch = input.to_batch()?;
        warehouse.load_table(&table, batch)?;
        input.warehouse_table = Some(table.clone());
        input.take_journal(); // initial projection covers everything so far
        directory.invalidate_tables(&[&table]);
        Ok(table)
    }

    /// Propagate accumulated edits to the warehouse as DML ("the edits are
    /// propagated to the warehouse", §3.4) and invalidate cached queries so
    /// downstream elements recompute.
    pub fn propagate_edits(
        &self,
        token: &str,
        connection: &str,
        workbook: &mut Workbook,
        element: &str,
    ) -> Result<usize, ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        let (warehouse, directory, _) = self.connection_for(&user, connection)?;
        let input = workbook
            .input_table_mut(element)
            .ok_or_else(|| ServiceError::NotFound(format!("input table {element}")))?;
        let Some(table) = input.warehouse_table.clone() else {
            return Err(ServiceError::BadRequest(format!(
                "input table {element} has not been projected yet"
            )));
        };
        let columns = input.columns.clone();
        let rows = input.rows.clone();
        let journal = input.take_journal();
        let n = journal.len();
        for edit in journal {
            match edit {
                sigma_core::editable::Edit::SetCell { row, column, value } => {
                    let dtype = columns
                        .iter()
                        .find(|(c, _)| c.eq_ignore_ascii_case(&column))
                        .map(|(_, t)| *t)
                        .ok_or_else(|| {
                            ServiceError::BadRequest(format!("unknown column {column}"))
                        })?;
                    let coerced = sigma_value::column::cast_value(value, dtype)
                        .unwrap_or(sigma_value::Value::Null);
                    let stmt = sigma_sql::Statement::Update {
                        table: sigma_sql::ObjectName::bare(table.clone()),
                        assignments: vec![(column, sigma_sql::SqlExpr::Literal(coerced))],
                        selection: Some(sigma_sql::SqlExpr::eq(
                            sigma_sql::SqlExpr::col("_row_id"),
                            sigma_sql::SqlExpr::lit(row as i64),
                        )),
                    };
                    warehouse.execute_statement(&stmt)?;
                }
                sigma_core::editable::Edit::InsertRow { row_id } => {
                    let Some((_, values)) = rows.iter().find(|(id, _)| *id == row_id) else {
                        continue; // inserted then deleted before propagation
                    };
                    let mut row_exprs = vec![sigma_sql::SqlExpr::lit(row_id as i64)];
                    for (v, (_, t)) in values.iter().zip(&columns) {
                        let coerced = sigma_value::column::cast_value(v.clone(), *t)
                            .unwrap_or(sigma_value::Value::Null);
                        row_exprs.push(sigma_sql::SqlExpr::Literal(coerced));
                    }
                    let stmt = sigma_sql::Statement::Insert {
                        table: sigma_sql::ObjectName::bare(table.clone()),
                        columns: None,
                        source: sigma_sql::Query {
                            ctes: vec![],
                            body: sigma_sql::SetExpr::Values(vec![row_exprs]),
                            order_by: vec![],
                            limit: None,
                            offset: None,
                        },
                    };
                    warehouse.execute_statement(&stmt)?;
                }
                sigma_core::editable::Edit::DeleteRow { row_id } => {
                    let stmt = sigma_sql::Statement::Delete {
                        table: sigma_sql::ObjectName::bare(table.clone()),
                        selection: Some(sigma_sql::SqlExpr::eq(
                            sigma_sql::SqlExpr::col("_row_id"),
                            sigma_sql::SqlExpr::lit(row_id as i64),
                        )),
                    };
                    warehouse.execute_statement(&stmt)?;
                }
            }
        }
        if n > 0 {
            // Precise invalidation: drop only cached stages whose
            // dependency set includes the edited input table.
            directory.invalidate_tables(&[&table]);
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // materialization (§4)
    // ------------------------------------------------------------------

    /// Materialize an element's result set into a warehouse table and
    /// register it for compiler substitution.
    pub fn materialize_element(
        &self,
        token: &str,
        connection: &str,
        workbook: &Workbook,
        element: &str,
        refresh_every: Option<u64>,
    ) -> Result<String, ServiceError> {
        let user = self.tenancy.authenticate(token)?;
        if user.role == Role::Viewer {
            return Err(ServiceError::Forbidden("viewers cannot materialize".into()));
        }
        let (warehouse, directory, workload) = self.connection_for(&user, connection)?;
        // Compile WITHOUT substituting this element itself.
        let schemas = WarehouseSchemas(&warehouse);
        let mut subs = self.materializer.substitutions();
        subs.remove(&element.to_ascii_lowercase());
        let options = CompileOptions {
            dialect: warehouse.dialect(),
            materializations: subs,
        };
        let compiled = Compiler::new(workbook, &schemas, options).compile_element(element)?;
        let table = format!("mat_{}", element.to_ascii_lowercase().replace(' ', "_"));
        let ddl = format!("CREATE OR REPLACE TABLE {table} AS\n{}", compiled.sql);
        let (result, _) = workload
            .submit_for(user.org, Priority::Background, None, || {
                warehouse.execute_sql(&ddl)
            })
            .map_err(ServiceError::from)?;
        result?;
        self.materializer.register(element, &table, refresh_every);
        self.materializer.mark_refreshed(element);
        directory.invalidate_tables(&[&table]);
        Ok(table)
    }

    /// Advance the simulated clock; refresh any due materializations.
    pub fn tick_materializations(
        &self,
        token: &str,
        connection: &str,
        workbook: &Workbook,
        seconds: u64,
    ) -> Result<usize, ServiceError> {
        let due = self.materializer.tick(seconds);
        let mut refreshed = 0;
        for m in due {
            self.materialize_element(token, connection, workbook, &m.element, m.refresh_every)?;
            refreshed += 1;
        }
        Ok(refreshed)
    }
}

impl Default for SigmaService {
    fn default() -> Self {
        SigmaService::new()
    }
}

/// The service tier's [`StageHost`] for one request: a stage result is the
/// query id of a CDW-persisted result set, found by `(connection,
/// fingerprint)` and read downstream via `TABLE(RESULT_SCAN('<query-id>'))`.
/// It also keeps the request's accounting for [`QueryOutcome`].
struct DirectoryHost<'a> {
    warehouse: &'a Warehouse,
    directory: &'a QueryDirectory,
    workload: &'a WorkloadManager,
    connection: &'a str,
    tenant: u64,
    priority: Priority,
    deadline: Option<Duration>,
    queue_wait: Duration,
    stage_hits: usize,
    stages_executed: usize,
    rows_scanned: usize,
}

impl DirectoryHost<'_> {
    /// Run one warehouse query under admission control and add it to the
    /// request's totals. The deadline bounds each query's queue wait, so a
    /// request stuck behind saturation fails fast rather than holding its
    /// session thread through a whole residual suffix.
    fn submit(
        &mut self,
        run: impl FnOnce(&Warehouse) -> Result<ResultSet, CdwError>,
    ) -> Result<ResultSet, ServiceError> {
        let warehouse = self.warehouse;
        let (result, wait) =
            self.workload
                .submit_for(self.tenant, self.priority, self.deadline, || run(warehouse))?;
        self.queue_wait += wait;
        let r = result?;
        self.rows_scanned += r.rows_scanned;
        Ok(r)
    }

    /// Run the element as one flattened query; the totals restart with it,
    /// since whatever a stage walk counted is not what served the request.
    fn run_flattened(&mut self, sql: &str) -> Result<ResultSet, ServiceError> {
        self.queue_wait = Duration::ZERO;
        self.rows_scanned = 0;
        let r = self.submit(|w| w.execute_sql(sql))?;
        (self.stage_hits, self.stages_executed) = (0, 1);
        Ok(r)
    }

    /// Take a finished walk's answer. Stage stats are recorded only once
    /// the whole walk succeeded: after a mid-request eviction the request
    /// falls back to a flattened query, and counting the walk's tentative
    /// hits would overstate reuse that never materialized.
    fn adopt(&mut self, walk: WalkOutcome<String>) -> String {
        for &step in &walk.steps[..walk.steps.len() - 1] {
            if step != StageStep::Skip {
                self.directory.record_stage(step == StageStep::Reuse);
            }
        }
        self.stage_hits = walk.count(StageStep::Reuse);
        self.stages_executed = walk.count(StageStep::Execute);
        walk.sink
    }
}

impl StageHost for DirectoryHost<'_> {
    type Out = String;
    type Err = ServiceError;

    fn lookup(&mut self, node: &StageNode) -> Option<String> {
        let key = DirKey::for_stage(self.connection, node.fingerprint);
        let qid = self.directory.lookup_stage(key)?;
        if self.warehouse.touch_result(&qid) {
            return Some(qid);
        }
        // Stale pointer: the CDW evicted the result set.
        self.directory.invalidate_key(key);
        None
    }

    fn can_execute(&mut self, _: &StageNode) -> bool {
        true
    }

    fn execute(
        &mut self,
        node: &StageNode,
        inputs: &[(&StageNode, &String)],
    ) -> Result<String, ServiceError> {
        let scans: HashMap<String, String> = inputs
            .iter()
            .map(|(input, qid)| (input.name.to_ascii_lowercase(), (*qid).clone()))
            .collect();
        let mut query = node.query.clone();
        sigma_sql::substitute_result_scans(&mut query, &scans);
        let stmt = sigma_sql::Statement::Query(query);
        Ok(self.submit(|w| w.execute_statement(&stmt))?.query_id)
    }

    fn store(&mut self, node: &StageNode, qid: &String) {
        let key = DirKey::for_stage(self.connection, node.fingerprint);
        self.directory
            .insert_with_deps(key, qid, node.all_tables.clone().into());
    }
}
