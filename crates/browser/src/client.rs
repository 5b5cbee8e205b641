//! The browser session: ties the result cache, the local engine, and the
//! service round-trip together, choosing the cheapest source for each
//! query (cache → local delta / residual suffix → full local evaluation
//! → service).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_core::schema::SchemaProvider;
use sigma_core::{CompileOptions, Compiler, Workbook};
use sigma_service::workload::Priority;
use sigma_service::{QueryRequest, ServedFrom, ServiceError, SigmaService};
use sigma_value::Batch;

use crate::cache::BatchCache;
use crate::local::LocalEngine;
use crate::prefetch::PrefetchPolicy;

/// Where an answer came from: the tier of the browser ladder that served
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Browser result cache (undo / page switch).
    BrowserCache,
    /// Local evaluation over prefetched rows (no round trip).
    LocalEngine,
    /// Delta edit: every stage the edit invalidated planned as a chain —
    /// filter / project / sort over a cached stage result — so the
    /// embedded engine re-ran no scan, join or grouping. No round trip.
    LocalDelta,
    /// Residual-suffix execution: cached stage results served the
    /// unchanged prefix; only the invalidated suffix recomputed locally
    /// (at least one stage planned as more than a chain).
    LocalResidual,
    /// Service round trip, answered by the query directory.
    ServiceDirectory,
    /// Service round trip, executed on the warehouse.
    Warehouse,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    pub batch: Batch,
    pub source: Source,
    /// End-to-end latency as seen by the user (includes simulated network).
    pub elapsed: Duration,
}

/// A browser tab connected to the service.
pub struct BrowserSession {
    pub service: Arc<SigmaService>,
    pub token: String,
    pub connection: String,
    pub cache: BatchCache,
    pub local: LocalEngine,
    /// Simulated one-way network latency browser <-> service (applied
    /// twice per round trip).
    pub network_latency: Duration,
    /// Byte gates for prefetched tables and shipped stage results.
    pub prefetch_policy: crate::prefetch::PrefetchPolicy,
    /// Structural key → canonical root-fingerprint key, learned from
    /// `QueryOutcome.root_fingerprint` on each service round trip, so the
    /// cache key converges on the compile-derived fingerprint without the
    /// client ever compiling just to derive a key.
    fingerprint_memo: parking_lot::Mutex<std::collections::HashMap<String, String>>,
    /// Warehouse table schemas learned from service outcomes
    /// (`QueryOutcome::table_schemas`), letting the client compile edits
    /// locally even for tables it never prefetched.
    schema_memo: parking_lot::Mutex<std::collections::HashMap<String, Arc<sigma_value::Schema>>>,
}

/// Schema provider for client-side compiles: prefetched tables first,
/// then schemas learned from service outcomes (a table's schema is
/// enough to compile — residual execution decides separately whether the
/// rows themselves are needed locally).
struct ClientSchemas<'a> {
    local: &'a LocalEngine,
    learned: &'a std::collections::HashMap<String, Arc<sigma_value::Schema>>,
}

impl SchemaProvider for ClientSchemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Arc<sigma_value::Schema>> {
        self.local
            .table_schema(table)
            .or_else(|| self.learned.get(&table.to_ascii_lowercase()).cloned())
    }
}

impl BrowserSession {
    pub fn new(
        service: Arc<SigmaService>,
        token: impl Into<String>,
        connection: impl Into<String>,
    ) -> BrowserSession {
        BrowserSession {
            service,
            token: token.into(),
            connection: connection.into(),
            cache: BatchCache::new(64 << 20),
            local: LocalEngine::new(),
            network_latency: Duration::ZERO,
            prefetch_policy: crate::prefetch::PrefetchPolicy::default(),
            fingerprint_memo: parking_lot::Mutex::new(std::collections::HashMap::new()),
            schema_memo: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    pub fn with_network_latency(mut self, latency: Duration) -> BrowserSession {
        self.network_latency = latency;
        self
    }

    /// Remember the service-assigned canonical key for a structural state.
    fn learn_fingerprint(&self, structural: String, canonical: String) {
        let mut memo = self.fingerprint_memo.lock();
        if memo.len() >= 1024 {
            memo.clear();
        }
        memo.insert(structural, canonical);
    }

    /// The pre-stage-DAG key: the element plus the JSON specs of everything
    /// it depends on (`deps`, its resolved input closure). Kept as the
    /// fallback for uncompilable states.
    fn structural_fingerprint(workbook: &Workbook, element: &str, deps: &[String]) -> String {
        let mut key = String::new();
        for name in deps {
            if let Some(el) = workbook.element(name) {
                key.push_str(&el.name.to_ascii_lowercase());
                key.push('=');
                key.push_str(&serde_json::to_string(&el.kind).unwrap_or_default());
                key.push(';');
            }
        }
        // Controls feed compiled literals: include all control values.
        for el in workbook.elements() {
            if let sigma_core::ElementKind::Control(c) = &el.kind {
                key.push_str(&format!("@{}={};", el.name, c.value.render()));
            }
        }
        format!("{}:{}", element.to_ascii_lowercase(), key)
    }

    /// Run the prefetch policy against the connection's warehouse. (In the
    /// product this rides on the service API; the simulation reaches the
    /// warehouse through the service's connection registry.)
    pub fn prefetch(
        &self,
        warehouse: &sigma_cdw::Warehouse,
        policy: &PrefetchPolicy,
    ) -> Vec<String> {
        policy.prefetch_all(warehouse, &self.local)
    }

    /// Answer an element query from the cheapest source.
    pub fn query_element(
        &self,
        workbook: &Workbook,
        element: &str,
    ) -> Result<ClientOutcome, ServiceError> {
        let started = Instant::now();
        let deps = sigma_core::graph::resolve_order(workbook, &[element])
            .unwrap_or_else(|_| vec![element.to_string()]);
        // Cache key: the element's compiled root stage fingerprint (the
        // Merkle hash over its stage DAG) once a compile or a service
        // outcome has told us one, the structural key before that. Undo
        // re-derives the old key, so it re-hits the old entry.
        let structural = Self::structural_fingerprint(workbook, element, &deps);
        let key = self
            .fingerprint_memo
            .lock()
            .get(&structural)
            .cloned()
            .unwrap_or_else(|| structural.clone());

        // 1. Browser cache.
        if let Some(batch) = self.cache.get(&key) {
            return Ok(ClientOutcome {
                batch,
                source: Source::BrowserCache,
                elapsed: started.elapsed(),
            });
        }

        let element_lower = element.to_ascii_lowercase();

        // 2. Local execution. Compile against prefetched tables plus
        // learned schemas, then try to serve the plan's residual suffix
        // from the stage cache + the embedded engine. Reuse and plan
        // shape decide the tier: only chain stages recomputed over cached
        // parents is a delta edit; any other stage makes it residual; no
        // reuse at all is a plain full local evaluation.
        let plan = {
            let learned = self.schema_memo.lock();
            let schemas = ClientSchemas {
                local: &self.local,
                learned: &learned,
            };
            let compiler = Compiler::new(workbook, &schemas, CompileOptions::default());
            compiler.compile_element(element).ok().map(|c| c.stages)
        };
        if let Some(plan) = plan {
            let eval = self
                .local
                .execute_plan(&plan)
                .map_err(|e| ServiceError::Warehouse(e.to_string()))?;
            if let Some(eval) = eval {
                // The client compiled this itself, so it knows the
                // canonical fingerprint key without a round trip.
                let canonical = format!("{element_lower}:{}", plan.root_fingerprint().hex());
                self.learn_fingerprint(structural, canonical.clone());
                self.cache.put(&canonical, eval.batch.clone(), deps);
                // Tiers are reuse-driven: without a cached frontier this
                // is just a full local evaluation, however it executed.
                let source = if eval.stage_hits == 0 {
                    Source::LocalEngine
                } else if eval.engine_stages == 0 {
                    Source::LocalDelta
                } else {
                    Source::LocalResidual
                };
                return Ok(ClientOutcome {
                    batch: eval.batch,
                    source,
                    elapsed: started.elapsed(),
                });
            }
        }

        // 3. Service round trip (simulated network both ways).
        std::thread::sleep(self.network_latency);
        let json = workbook
            .to_json()
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let outcome = self.service.run_query(&QueryRequest {
            token: &self.token,
            connection: &self.connection,
            workbook_json: &json,
            element,
            priority: Priority::Interactive,
        })?;
        std::thread::sleep(self.network_latency);
        // Adopt the service's canonical key for this state: future repeats
        // (and undos back to it) address the entry by fingerprint even if
        // they arrive via a differently-encoded but equivalent spec.
        let canonical = format!("{element_lower}:{}", outcome.root_fingerprint.hex());
        self.learn_fingerprint(structural, canonical.clone());
        self.cache.put(&canonical, outcome.batch.clone(), deps);
        // Adopt everything the outcome shipped for next-edit locality:
        // table schemas (local compilation) and small interior stage
        // results (the reuse frontier for residual-suffix execution).
        {
            let mut learned = self.schema_memo.lock();
            for (table, schema) in &outcome.table_schemas {
                learned.insert(table.to_ascii_lowercase(), schema.clone());
            }
        }
        for (fingerprint, batch) in &outcome.stage_results {
            if !self.prefetch_policy.wants_stage(batch.byte_size()) {
                continue;
            }
            let tables = outcome
                .stages
                .nodes
                .iter()
                .find(|n| n.fingerprint.hex() == *fingerprint)
                .map(|n| n.all_tables.clone())
                .unwrap_or_default();
            self.local.install_stage(fingerprint, batch.clone(), tables);
        }
        Ok(ClientOutcome {
            batch: outcome.batch,
            source: match outcome.served_from {
                ServedFrom::QueryDirectory => Source::ServiceDirectory,
                // Partial stage reuse still executed a residual suffix on
                // the warehouse; the browser-side observable is the same.
                ServedFrom::Warehouse | ServedFrom::StageReuse => Source::Warehouse,
            },
            elapsed: started.elapsed(),
        })
    }

    /// Edits to an element invalidate dependent cached results.
    pub fn on_element_edited(&self, element: &str) -> usize {
        self.cache.invalidate(&[element])
    }
}
