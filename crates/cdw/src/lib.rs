//! An in-process cloud data warehouse simulator.
//!
//! The paper's Sigma service compiles workbook specs to SQL and executes
//! them "directly on CDWs" (Snowflake, BigQuery, Redshift, PostgreSQL,
//! Databricks). This crate is the stand-in for those engines: a columnar
//! SQL warehouse with
//!
//! * a catalog and partitioned columnar storage,
//! * a SQL front end (reusing `sigma-sql`'s parser),
//! * a logical planner with name resolution and aggregate/window
//!   rewriting — the crate's only binder: catalog queries, queries over
//!   caller-bound input batches (`Warehouse::execute_over`, how the
//!   browser tier recomputes an edited stage from cached results) and
//!   UPDATE/DELETE expressions all resolve through it,
//! * a rule-based optimizer (predicate pushdown, projection pruning,
//!   constant folding, and a two-phase partial/final split of aggregation
//!   and DISTINCT over partition-preserving inputs),
//! * a vectorized expression engine (`eval/`): a physical-expression
//!   planner compiles scalar expressions into typed columnar kernels
//!   (monomorphic i64/f64/bool/str loops, validity-bitmap nulls, literal
//!   operands kept scalar, LIKE patterns and IN-lists pre-compiled), with
//!   the boxed-`Value` row interpreter retained as the semantic oracle
//!   (`tests/eval_oracle.rs` pins them bit-identical),
//! * a vectorized, morsel-driven executor — one engine at every setting:
//!   filter/project chains, partial aggregation, hash-join probes, sort
//!   runs and window evaluation cut their input partitions into morsels
//!   and run them on a persistent, locality-aware work-stealing worker
//!   pool shared by every query in the process (the `parallelism` knob
//!   requests threads per query; `set_worker_pool_target` caps the
//!   process). One function decides morsel height; at an effective width
//!   of one worker it is the whole partition, so serial execution is the
//!   same code, uncut and inline. Outputs regroup in (partition, morsel)
//!   order and partial aggregate states merge associatively in partition
//!   order, so results are bit-identical at any parallelism and morsel
//!   height — this is the stand-in for the CDW elasticity the paper
//!   leans on;
//!   filters emit **selection vectors** instead of materializing, so
//!   filter→project→filter chains and aggregation inputs evaluate only
//!   over surviving row indices,
//! * memory-budgeted out-of-core execution: an `ExecMemoryTracker`
//!   (`WarehouseConfig::memory_budget`) spills aggregation hash tables,
//!   sort runs, and hash-join build sides to disk when they would exceed
//!   the per-operator budget — with results bit-identical to in-memory
//!   execution at any budget and parallelism,
//! * per-operator execution stats (`ExecStats`/`OpStats`, plus
//!   `spilled_bytes`/`spill_rounds`, rendered by
//!   `Warehouse::explain_analyze`) for attributing query time,
//! * DDL/DML (materialization, CSV upload, editable-table edit propagation),
//! * persisted result sets addressable by query id (`RESULT_SCAN`), which
//!   the service's query-directory cache relies on (paper §4).
//!
//! The substitution rationale is recorded in DESIGN.md: the compiler's
//! contract is SQL text, so any engine with standard semantics exercises
//! the same code path as the production warehouses.

pub mod catalog;
pub mod error;
pub mod eval;
pub mod exec;
pub mod optimizer;
pub mod plan;
pub mod planner;
pub mod session;
pub mod storage;
pub mod window;

pub use error::CdwError;
pub use exec::scheduler::{
    grow_worker_pool_target, set_worker_pool_target, worker_pool_stats, worker_pool_target,
    SchedCounters, WorkerPoolStats,
};
pub use exec::{ExecMemoryTracker, ExecStats, MorselSizing, OpStats};
pub use session::{ResultSet, Warehouse, WarehouseConfig};
