//! The formula-to-SQL compiler: the heart of the paper.
//!
//! Each table element compiles to one CTE pipeline:
//!
//! ```text
//! WITH source AS (SELECT raw cols [+ lookup/rollup join values] FROM input),
//!      base_0 AS (SELECT base formulas, window calcs ... FROM source WHERE greedy filters),
//!      lvl1_0 AS (SELECT keys, aggregates ... FROM base_0 GROUP BY keys),
//!      ...,
//!      summary_0 AS (SELECT scalar aggregates FROM lvlK_0),
//!      base_1 AS (base_0 joined back to coarser levels for cross-level refs),
//!      ...
//! SELECT visible columns FROM <detail> JOIN <coarser levels> ORDER BY hierarchy
//! ```
//!
//! Columns are assigned *phases*: phase 0 formulas flow strictly upward
//! (finer → coarser); a formula that references a coarser level's column
//! (cross-level reference, §3.1) lands in a later phase whose stage CTE
//! joins the already-materialized coarser CTE back in. Arbitrary phase
//! depth is supported, so aggregates of cross-level expressions compile
//! too.
//!
//! `Lookup`/`Rollup` (§3.2) compile to LEFT JOINs in the `source` CTE
//! against the target element's compiled query (or its materialized table
//! when the service has one — "materialized view substitution", §2),
//! grouped by the join key so cardinality never changes.

mod context;
mod formula;
pub mod stageplan;
mod stages;

use std::collections::HashMap;

use sigma_sql::printer::print_query;
use sigma_sql::{Dialect, Query};

use crate::document::ElementKind;
use crate::error::CoreError;
pub use crate::schema::CompiledQuery;
pub use stageplan::{Fingerprint, StageHost, StageNode, StagePlan, StageStep, WalkOutcome};

use crate::schema::SchemaProvider;
use crate::table::TableSpec;
use crate::Workbook;

pub(crate) use context::TableCtx;

/// Compiler configuration.
#[derive(Clone)]
pub struct CompileOptions {
    pub dialect: Dialect,
    /// Element name (lower-cased) → warehouse table holding its fresh
    /// materialization. Referenced elements with an entry are compiled as
    /// a scan of that table instead of their full query (§2, §4).
    pub materializations: HashMap<String, String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            dialect: Dialect::generic(),
            materializations: HashMap::new(),
        }
    }
}

impl CompileOptions {
    pub fn with_materialization(
        mut self,
        element: &str,
        table: impl Into<String>,
    ) -> CompileOptions {
        self.materializations
            .insert(element.to_ascii_lowercase(), table.into());
        self
    }
}

/// Compiles workbook elements to SQL.
pub struct Compiler<'a> {
    pub workbook: &'a Workbook,
    pub schemas: &'a dyn SchemaProvider,
    pub options: CompileOptions,
}

impl<'a> Compiler<'a> {
    pub fn new(
        workbook: &'a Workbook,
        schemas: &'a dyn SchemaProvider,
        options: CompileOptions,
    ) -> Compiler<'a> {
        Compiler {
            workbook,
            schemas,
            options,
        }
    }

    /// Compile a data element by name.
    pub fn compile_element(&self, name: &str) -> Result<CompiledQuery, CoreError> {
        // Cycle/reference validation across the whole input graph first
        // (§2: "query input graph resolution").
        crate::graph::resolve_order(self.workbook, &[name])?;
        self.compile_element_unchecked(name)
    }

    pub(crate) fn compile_element_unchecked(&self, name: &str) -> Result<CompiledQuery, CoreError> {
        let element = self
            .workbook
            .element(name)
            .ok_or_else(|| CoreError::Unresolved(format!("element {name}")))?;
        match &element.kind {
            ElementKind::Table(spec) => self.compile_table(spec, &element.name),
            ElementKind::Viz(viz) => {
                let spec = viz.to_table_spec()?;
                self.compile_table(&spec, &element.name)
            }
            ElementKind::Input(input) => {
                let table = input.warehouse_table.clone().ok_or_else(|| {
                    CoreError::Compile(format!(
                        "input table {name} has not been projected into the warehouse yet"
                    ))
                })?;
                // Input elements read back their projection (minus the
                // bookkeeping row id).
                let mut spec = TableSpec::new(crate::table::DataSource::WarehouseTable { table });
                for (col, _) in &input.columns {
                    spec.add_column(crate::table::ColumnDef::source(col.clone(), col.clone()))?;
                }
                self.compile_table(&spec, &element.name)
            }
            ElementKind::Pivot(_) => Err(CoreError::Compile(format!(
                "{name} is a pivot: use pivot_discovery_query() then compile_pivot()"
            ))),
            _ => Err(CoreError::Compile(format!("{name} is not a data element"))),
        }
    }

    /// Compile a table spec (the workhorse).
    pub fn compile_table(
        &self,
        spec: &TableSpec,
        self_name: &str,
    ) -> Result<CompiledQuery, CoreError> {
        spec.validate()?;
        let ctx = TableCtx::build(self, spec, self_name)?;
        let query = stages::build_query(&ctx)?;
        Ok(self.finish(query, &ctx))
    }

    /// Phase 1 of pivot compilation: the distinct header values query.
    pub fn pivot_discovery_query(&self, name: &str) -> Result<CompiledQuery, CoreError> {
        let element = self
            .workbook
            .element(name)
            .ok_or_else(|| CoreError::Unresolved(format!("element {name}")))?;
        let ElementKind::Pivot(pivot) = &element.kind else {
            return Err(CoreError::Compile(format!("{name} is not a pivot")));
        };
        pivot.validate()?;
        let mut spec = TableSpec::new(pivot.source.clone());
        spec.add_column(crate::table::ColumnDef::formula(
            pivot.column.0.clone(),
            pivot.discovery_formula().to_string(),
            0,
        ))?;
        spec.filters = pivot.filters.clone();
        spec.add_level(
            1,
            crate::table::Level::keyed("Header", vec![pivot.column.0.clone()]),
        )?;
        spec.detail_level = 1;
        spec.limit = Some(crate::pivot::MAX_PIVOT_VALUES as u64 + 1);
        self.compile_table(&spec, &element.name)
    }

    /// Phase 2 of pivot compilation: with discovered header values.
    pub fn compile_pivot(
        &self,
        name: &str,
        header_values: &[sigma_value::Value],
    ) -> Result<CompiledQuery, CoreError> {
        let element = self
            .workbook
            .element(name)
            .ok_or_else(|| CoreError::Unresolved(format!("element {name}")))?;
        let ElementKind::Pivot(pivot) = &element.kind else {
            return Err(CoreError::Compile(format!("{name} is not a pivot")));
        };
        pivot.validate()?;
        let mut spec = TableSpec::new(pivot.source.clone());
        let mut row_names = Vec::new();
        for (rname, rformula) in &pivot.rows {
            spec.add_column(crate::table::ColumnDef::formula(
                rname.clone(),
                rformula.clone(),
                0,
            ))?;
            row_names.push(rname.clone());
        }
        if row_names.is_empty() {
            // No row dimensions: a single summary row.
            for (cname, cformula) in pivot.pivoted_value_formulas(header_values)? {
                spec.add_column(crate::table::ColumnDef::formula(cname, cformula, 1))?;
            }
            spec.detail_level = 1;
        } else {
            spec.add_level(1, crate::table::Level::keyed("Rows", row_names))?;
            for (cname, cformula) in pivot.pivoted_value_formulas(header_values)? {
                spec.add_column(crate::table::ColumnDef::formula(cname, cformula, 1))?;
            }
            spec.detail_level = 1;
        }
        spec.filters = pivot.filters.clone();
        self.compile_table(&spec, &element.name)
    }

    fn finish(&self, query: Query, ctx: &TableCtx<'_>) -> CompiledQuery {
        let sql = print_query(&query, &self.options.dialect);
        let stages = StagePlan::from_query(&query, &self.options.dialect);
        CompiledQuery {
            query,
            sql,
            stages,
            output: ctx.output_columns(),
            detail_level: ctx.spec.detail_level,
        }
    }
}

#[cfg(test)]
mod tests;
