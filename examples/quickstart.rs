//! Quickstart: build a workbook table element (Figure 3's three constructs
//! — grouping levels, columns, filters), compile it to SQL, and run it on
//! the bundled warehouse.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sigma_workbook::core::document::ElementKind;
use sigma_workbook::core::table::{
    ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec,
};
use sigma_workbook::core::{CompileOptions, Compiler, Workbook};
use sigma_workbook::demo;
use sigma_workbook::value::pretty;

fn main() {
    // A warehouse with the synthetic On-Time flights data (paper §5).
    let warehouse = demo::demo_warehouse(20_000);

    // The workbook: one table element over the FLIGHTS fact table.
    let mut wb = Workbook::new(Some("Quickstart"));
    let mut table = TableSpec::new(DataSource::WarehouseTable {
        table: "flights".into(),
    });
    // (2) columns: source passthroughs and a spreadsheet formula.
    table
        .add_column(ColumnDef::source("Carrier", "carrier"))
        .unwrap();
    table
        .add_column(ColumnDef::source("Dep Delay", "dep_delay"))
        .unwrap();
    table
        .add_column(ColumnDef::formula("Is Late", "[Dep Delay] > 15", 0))
        .unwrap();
    // (1) grouping levels: group by carrier; aggregates reside at level 1.
    table
        .add_level(1, Level::keyed("By Carrier", vec!["Carrier".into()]))
        .unwrap();
    table
        .add_column(ColumnDef::formula("Flights", "Count()", 1))
        .unwrap();
    table
        .add_column(ColumnDef::formula(
            "Late Share",
            "Avg(If([Is Late], 1.0, 0.0))",
            1,
        ))
        .unwrap();
    // (3) filters: applied greedily as soon as their dependencies are met.
    table.filters.push(FilterSpec {
        column: "Dep Delay".into(),
        predicate: FilterPredicate::IsNotNull,
    });
    table.detail_level = 1;
    wb.add_element(0, "Flights", ElementKind::Table(table))
        .unwrap();

    // Compile: the workbook spec becomes a CTE pipeline.
    let schemas = demo::WarehouseSchemas(warehouse.clone());
    let compiler = Compiler::new(&wb, &schemas, CompileOptions::default());
    let compiled = compiler.compile_element("Flights").expect("compiles");
    println!("=== Generated SQL ===\n{}\n", compiled.sql);

    // Execute on the warehouse.
    let result = warehouse.execute_sql(&compiled.sql).expect("executes");
    println!("=== Result (query id {}) ===", result.query_id);
    println!("{}", pretty::render(&result.batch, 12));
    println!(
        "scanned {} rows across {} partitions in {:?}",
        result.rows_scanned, result.partitions_scanned, result.elapsed
    );

    // Per-operator attribution: where did the time go? (The aggregate is
    // one entry: it folds each scanned partition and merges them in order,
    // and its `morsels` counts the units it folded.)
    warehouse.set_parallelism(4);
    let analyzed = warehouse
        .explain_analyze(&compiled.sql)
        .expect("explain analyze");
    println!("\n=== EXPLAIN ANALYZE (parallelism = 4) ===\n{analyzed}");
}
