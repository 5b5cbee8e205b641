//! The in-browser evaluation engine.
//!
//! Holds fully prefetched tables in an embedded instance of the warehouse
//! and answers a compiled element locally when every base table its
//! uncached stages scan is present. This models the paper's WASM engine
//! synthesizing "new results from existing rows already fetched from the
//! CDW".
//!
//! [`LocalEngine::execute_plan`] executes the **residual suffix** of an
//! edited element: given the compiled stage DAG and a fingerprint-keyed
//! [`StageCache`] of previously seen stage results, it finds the deepest
//! cached frontier and recomputes only the invalidated stages, each one
//! planned and run by the embedded warehouse with its input stages'
//! batches bound by name ([`Warehouse::execute_over`]). A slider drag or
//! a formula edit is not a separate path — it is the plan shape
//! filter/project/sort over a cached input, which the warehouse reports.

use std::collections::HashSet;
use std::sync::Arc;

use sigma_cdw::{CdwError, Warehouse};
use sigma_core::StagePlan;
use sigma_value::Batch;

use crate::cache::{CacheStats, StageCache};

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

/// What the reverse cache walk decided for one stage.
enum StageAction {
    /// Behind the reuse frontier: never touched.
    Skip,
    /// Served from the stage cache.
    Reuse(Batch),
    /// Recompute on the embedded warehouse over its input stages' batches.
    Compute,
}

/// The local evaluation engine.
pub struct LocalEngine {
    engine: Warehouse,
    /// Lower-cased names of fully prefetched tables.
    tables: parking_lot::RwLock<HashSet<String>>,
    /// Interior stage results by Merkle fingerprint (hex).
    stages: StageCache,
    /// Local evaluations performed (experiment observable).
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
            stages: StageCache::new(32 << 20),
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
            self.stages.invalidate_tables(&[name]);
        }
        Ok(())
    }

    /// Seed the stage cache with a result the service shipped alongside
    /// an answer (see `QueryOutcome::stage_results`).
    pub fn install_stage(&self, fingerprint: &str, batch: Batch, tables: Vec<String>) {
        self.stages.put(fingerprint, batch, tables);
    }

    /// Drop every cached stage result, forcing the next evaluation to run
    /// the full plan through the engine (no delta/residual reuse).
    pub fn clear_stages(&self) -> usize {
        self.stages.clear()
    }

    pub fn stage_stats(&self) -> CacheStats {
        self.stages.stats()
    }

    /// Execute the residual suffix of a compiled element locally.
    ///
    /// Walking the stage DAG from the sink, each interior stage is looked
    /// up in the stage cache by fingerprint; a hit becomes a reuse
    /// frontier and its inputs are never visited. Every remaining stage
    /// runs on the embedded warehouse with its input stages' batches
    /// bound by stage name — which requires any base tables it scans to
    /// be prefetched. If some residual stage scans a table that is not,
    /// returns `Ok(None)`: the caller falls back to the service.
    ///
    /// Results are bit-identical to a full service recompile: each stage
    /// is planned and executed by the warehouse code itself, and stage
    /// decomposition is the same DAG the service executes.
    pub fn execute_plan(&self, plan: &StagePlan) -> Result<Option<LocalEval>, CdwError> {
        let n = plan.nodes.len();
        let sink = n - 1;
        let mut actions: Vec<StageAction> = (0..n).map(|_| StageAction::Skip).collect();
        let mut needed = vec![false; n];
        needed[sink] = true;
        let installed = self.tables.read();
        for idx in (0..n).rev() {
            if !needed[idx] {
                continue;
            }
            let node = &plan.nodes[idx];
            if idx != sink {
                if let Some(batch) = self.stages.get(&node.fingerprint.hex()) {
                    actions[idx] = StageAction::Reuse(batch);
                    continue;
                }
            }
            if !node
                .tables
                .iter()
                .all(|t| installed.contains(&t.to_ascii_lowercase()))
            {
                return Ok(None); // needs the warehouse
            }
            actions[idx] = StageAction::Compute;
            for &input in &node.inputs {
                needed[input] = true;
            }
        }
        drop(installed);

        // Forward pass over the residual suffix in topological order.
        let mut results: Vec<Option<Batch>> = (0..n).map(|_| None).collect();
        let (mut stage_hits, mut kernel_stages, mut engine_stages) = (0usize, 0usize, 0usize);
        for (idx, action) in actions.into_iter().enumerate() {
            match action {
                StageAction::Skip => {}
                StageAction::Reuse(batch) => {
                    stage_hits += 1;
                    results[idx] = Some(batch);
                }
                StageAction::Compute => {
                    let node = &plan.nodes[idx];
                    let inputs: Vec<(&str, &Batch)> = node
                        .inputs
                        .iter()
                        .map(|&i| {
                            let batch = results[i].as_ref().expect("input stage resolved");
                            (plan.nodes[i].name.as_str(), batch)
                        })
                        .collect();
                    let (batch, chain) = self.engine.execute_over(&node.query, &inputs)?;
                    if chain {
                        kernel_stages += 1;
                    } else {
                        engine_stages += 1;
                    }
                    // Remember every freshly computed interior stage so
                    // the next edit reuses it (the cache walk above is how
                    // it gets found).
                    if idx != sink {
                        self.stages.put(
                            &node.fingerprint.hex(),
                            batch.clone(),
                            node.all_tables.clone(),
                        );
                    }
                    results[idx] = Some(batch);
                }
            }
        }
        let batch = results[sink].take().expect("sink computed");
        self.local_evals
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Some(LocalEval {
            batch,
            stage_hits,
            kernel_stages,
            engine_stages,
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
