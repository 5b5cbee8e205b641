//! The paper's primary contribution: the Sigma Workbook document model and
//! the spreadsheet-formula-to-SQL compiler.
//!
//! A workbook (paper §3) is a canvas of pages holding *elements*: data
//! elements (tables, visualizations, pivot tables, editable input tables),
//! UI elements (text, images, spacers), and interactive controls (sliders,
//! lists, text inputs, date pickers). Workbook state is a JSON-serializable
//! document ("Interactive data operations expressed by a user are sent to
//! the Sigma service as a JSON-encoding of the Workbook state", §2).
//!
//! The table element (§3.1, Figure 3) is a query defined by three
//! constructs: hierarchical **grouping levels**, **columns** whose formulas
//! are written in the spreadsheet expression language of `sigma-expr`, and
//! **filters** applied greedily as soon as their dependencies are met.
//! `Lookup`/`Rollup` formulas (§3.2) express ad-hoc joins against other
//! elements without changing cardinality.
//!
//! [`compile`] dynamically constructs matching SQL: one CTE pipeline per
//! element — source (with lookup joins) → base → grouping levels → summary
//! — with cross-level references lowered to joins between level CTEs, and
//! materialized-view substitution when the service has a fresh
//! materialization of a referenced element.

pub mod compile;
pub mod controls;
pub mod document;
pub mod editable;
pub mod edits;
pub mod error;
pub mod graph;
pub mod pivot;
pub mod schema;
pub mod table;
pub mod viz;

pub use compile::{
    classify_plan_delta, CompileOptions, CompiledQuery, Compiler, Fingerprint, PlanDelta,
    StageEdit, StageEditKind, StageHost, StageNode, StagePlan, StageStep, WalkOutcome,
};
pub use document::{Element, ElementKind, Page, Workbook};
pub use error::CoreError;
pub use schema::SchemaProvider;
pub use table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
