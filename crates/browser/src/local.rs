//! The in-browser evaluation engine.
//!
//! Holds fully prefetched tables in an embedded instance of the warehouse
//! and answers a compiled element locally when every base table its
//! uncached stages scan is present. This models the paper's WASM engine
//! synthesizing "new results from existing rows already fetched from the
//! CDW".
//!
//! [`LocalEngine::execute_plan`] runs the **residual suffix** of an edited
//! element through the one stage walker, [`StagePlan::walk`], with the
//! fingerprint-keyed stage [`BatchCache`] as its store and the embedded warehouse
//! as its executor ([`Warehouse::execute_over`]). A slider drag or a
//! formula edit is not a separate path — it is the plan shape
//! filter/project/sort over a cached input, which the warehouse reports.

use std::collections::HashSet;
use std::sync::Arc;

use sigma_cdw::{CdwError, Warehouse};
use sigma_core::{StageHost, StageNode, StagePlan, StageStep};
use sigma_value::Batch;

use crate::cache::{BatchCache, CacheStats};

/// How one residual-suffix evaluation was served.
#[derive(Debug, Clone)]
pub struct LocalEval {
    /// The sink's result.
    pub batch: Batch,
    /// Stages answered from the browser stage cache (the reuse frontier).
    pub stage_hits: usize,
    /// Stages recomputed whose plan was a chain — only filter / project /
    /// sort over one input stage's batch (a filter re-selection, a
    /// formula projection, a re-sort: no scan, no join, no grouping).
    pub kernel_stages: usize,
    /// Stages recomputed whose plan was anything else (scans, grouping,
    /// joins, windows, DISTINCT, LIMIT, unions).
    pub engine_stages: usize,
}

/// The local evaluation engine.
pub struct LocalEngine {
    engine: Warehouse,
    /// Lower-cased names of fully prefetched tables.
    tables: parking_lot::RwLock<HashSet<String>>,
    /// Interior stage results by Merkle fingerprint (hex).
    stages: BatchCache,
    /// Local evaluations performed.
    local_evals: std::sync::atomic::AtomicU64,
}

impl Default for LocalEngine {
    fn default() -> Self {
        LocalEngine::new()
    }
}

impl LocalEngine {
    pub fn new() -> LocalEngine {
        LocalEngine {
            engine: Warehouse::default(),
            tables: parking_lot::RwLock::new(HashSet::new()),
            stages: BatchCache::new(32 << 20),
            local_evals: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub fn local_evals(&self) -> u64 {
        self.local_evals.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Install a fully fetched table. Re-installing a known name (an
    /// edited input table re-projected, a refreshed prefetch) drops every
    /// cached stage result computed from it — fingerprint-keyed,
    /// table-targeted invalidation, mirroring the service directory —
    /// so stale batches can never serve a residual suffix.
    pub fn install_table(&self, name: &str, batch: Batch) -> Result<(), CdwError> {
        self.engine.load_table(name, batch)?;
        let fresh = self.tables.write().insert(name.to_ascii_lowercase());
        if !fresh {
            self.stages.invalidate(&[name]);
        }
        Ok(())
    }

    /// Seed the stage cache with a result the service shipped alongside
    /// an answer (see `QueryOutcome::stage_results`).
    pub fn install_stage(&self, fingerprint: &str, batch: Batch, tables: Vec<String>) {
        self.stages.put(fingerprint, batch, tables);
    }

    pub fn stage_stats(&self) -> CacheStats {
        self.stages.stats()
    }

    /// Execute the residual suffix of a compiled element locally, each
    /// residual stage over its input stages' batches bound by name; `None`
    /// when one scans a table that is not prefetched (the caller falls back
    /// to the service). Bit-identical to a full service recompile: the same
    /// DAG, each stage planned and executed by the warehouse code itself.
    pub fn execute_plan(&self, plan: &StagePlan) -> Result<Option<LocalEval>, CdwError> {
        let mut host = LocalHost {
            local: self,
            chains: 0,
        };
        let Some(walk) = plan.walk(&mut host)? else {
            return Ok(None);
        };
        self.local_evals
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Some(LocalEval {
            stage_hits: walk.count(StageStep::Reuse),
            kernel_stages: host.chains,
            engine_stages: walk.count(StageStep::Execute) - host.chains,
            batch: walk.sink,
        }))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains(&name.to_ascii_lowercase())
    }

    /// Schema access for compiling against local data.
    pub fn table_schema(&self, name: &str) -> Option<Arc<sigma_value::Schema>> {
        if !self.has_table(name) {
            return None;
        }
        self.engine.table_schema(name)
    }
}

/// The browser tier's [`StageHost`]: stage results are batches in the
/// stage cache, and a stage runs here when every table it scans is
/// prefetched. Counts the executed stages that planned as chains.
struct LocalHost<'a> {
    local: &'a LocalEngine,
    chains: usize,
}

impl StageHost for LocalHost<'_> {
    type Out = Batch;
    type Err = CdwError;

    fn lookup(&mut self, node: &StageNode) -> Option<Batch> {
        self.local.stages.get(&node.fingerprint.hex())
    }

    fn can_execute(&mut self, node: &StageNode) -> bool {
        let installed = self.local.tables.read();
        node.tables
            .iter()
            .all(|t| installed.contains(&t.to_ascii_lowercase()))
    }

    fn execute(
        &mut self,
        node: &StageNode,
        inputs: &[(&StageNode, &Batch)],
    ) -> Result<Batch, CdwError> {
        let inputs: Vec<(&str, &Batch)> =
            inputs.iter().map(|(n, b)| (n.name.as_str(), *b)).collect();
        let (batch, chain) = self.local.engine.execute_over(&node.query, &inputs)?;
        self.chains += usize::from(chain);
        Ok(batch)
    }

    fn store(&mut self, node: &StageNode, batch: &Batch) {
        let tables = node.all_tables.clone();
        self.local
            .stages
            .put(&node.fingerprint.hex(), batch.clone(), tables);
    }
}
