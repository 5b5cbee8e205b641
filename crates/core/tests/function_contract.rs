//! The compiler↔engine contract for scalar functions.
//!
//! The formula layer declares each function once in `sigma_expr::FUNCTIONS`
//! (arity, argument kinds, result type, SQL); the warehouse declares each
//! SQL function once in `sigma_cdw::eval::SCALARS`. This test walks
//! `FUNCTIONS`: every scalar is called over typed sample columns with every
//! well-typed combination of arguments, compiled to SQL, run on a
//! `Warehouse`, and the type the engine produced must be the type the
//! compiler inferred.
//!
//! ```text
//! cargo test -p sigma-core --test function_contract
//! ```

use std::sync::Arc;

use sigma_cdw::Warehouse;
use sigma_core::schema::SchemaProvider;
use sigma_core::table::{ColumnDef, DataSource, TableSpec};
use sigma_core::{CompileOptions, Compiler, ElementKind, Workbook};
use sigma_expr::functions::{Arg, FUNCTIONS};
use sigma_expr::{parse_formula, ColumnRef, FunctionDef, FunctionKind};
use sigma_value::{calendar, Batch, Column, DataType, Field, Schema};

struct WhSchemas<'a>(&'a Warehouse);

impl SchemaProvider for WhSchemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Arc<Schema>> {
        self.0.table_schema(table)
    }
}

/// One column per type. `i` holds a -1 so `Round([i], [i])` rounds an
/// integer to tens, and zeros so `Mod` divides by zero.
fn warehouse() -> Warehouse {
    let day = calendar::days_from_civil(2021, 5, 17);
    let micros = day as i64 * calendar::MICROS_PER_DAY + 12_345_678;
    let text = |v: &[Option<&str>]| {
        Column::from_opt_texts(v.iter().map(|s| s.map(str::to_string)).collect())
    };
    let batch = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Text),
            Field::new("d", DataType::Date),
            Field::new("ts", DataType::Timestamp),
            Field::new("b", DataType::Bool),
        ])),
        vec![
            Column::from_opt_ints(vec![Some(15), Some(-1), Some(0), None, Some(3)]),
            Column::from_opt_floats(vec![Some(2.5), Some(-0.5), None, Some(0.0), Some(1e3)]),
            text(&[Some("Grüße"), Some(""), Some("a,b,,c"), None, Some("x")]),
            Column::from_opt_dates(vec![Some(day), Some(-400), None, Some(0), Some(day + 40)]),
            Column::from_opt_timestamps(vec![Some(micros), None, Some(-1), Some(0), Some(7)]),
            Column::from_opt_bools(vec![Some(true), Some(false), None, Some(true), Some(false)]),
        ],
    )
    .unwrap();
    let wh = Warehouse::default();
    wh.load_table("t", batch).unwrap();
    wh
}

fn column_type(r: &ColumnRef) -> Option<DataType> {
    Some(match r.name.as_str() {
        "i" => DataType::Int,
        "f" => DataType::Float,
        "s" => DataType::Text,
        "d" => DataType::Date,
        "ts" => DataType::Timestamp,
        "b" => DataType::Bool,
        _ => return None,
    })
}

/// Argument spellings of each kind: typed columns and an untyped NULL.
fn samples(arg: Arg) -> &'static [&'static str] {
    match arg {
        Arg::Any => &["[i]", "[f]", "[s]", "[d]", "[ts]", "[b]", "Null"],
        Arg::Num => &["[i]", "[f]", "Null"],
        Arg::Text => &["[s]", "Null"],
        Arg::Temporal => &["[d]", "[ts]", "Null"],
        Arg::Unit => &["\"month\"", "\"Day\""],
    }
}

/// The calls to try for one function: every argument combination from
/// its row's kinds at each arity (a variadic one up to one past its
/// minimum); the few scalars without a row-level type rule are listed.
fn calls(def: &FunctionDef) -> Vec<String> {
    let name = def.name;
    let Some(sig) = def.sig else {
        let listed: &[&str] = match name {
            "If" => &[
                "If([b], [i], [f])",
                "If([b], [s], [b], Null)",
                "If([b], [d])",
            ],
            "Switch" => &["Switch([s], \"x\", [i], [f])", "Switch([i], 0, [d], [ts])"],
            "OneOf" => &["OneOf([i], 1, 2.5)", "OneOf([s], \"x\", Null)"],
            "Between" => &["Between([f], [i], 3)", "Between([d], [d], [ts])"],
            _ => panic!("{name} has no type rule row and no listed calls"),
        };
        return listed.iter().map(|s| s.to_string()).collect();
    };
    let max = def.max_args.unwrap_or(def.min_args + 1);
    let mut out = Vec::new();
    for arity in def.min_args..=max {
        let mut combos = vec![Vec::new()];
        for i in 0..arity {
            combos = combos
                .into_iter()
                .flat_map(|prefix: Vec<&str>| {
                    samples(sig.arg(i)).iter().map(move |s| {
                        let mut next = prefix.clone();
                        next.push(s);
                        next
                    })
                })
                .collect();
        }
        out.extend(combos.iter().map(|a| format!("{name}({})", a.join(", "))));
    }
    out
}

#[test]
fn every_scalar_returns_the_type_the_compiler_inferred() {
    let wh = warehouse();
    let schemas = WhSchemas(&wh);
    let mut failures = Vec::new();
    for def in FUNCTIONS.iter().filter(|d| d.kind == FunctionKind::Scalar) {
        // Only well-typed calls are part of the contract.
        let formulas: Vec<String> = calls(def)
            .into_iter()
            .filter(|src| {
                let f = parse_formula(src).unwrap_or_else(|e| panic!("{src}: {e}"));
                sigma_expr::infer_type(&f, &column_type).is_ok()
            })
            .collect();
        assert!(!formulas.is_empty(), "{}: no well-typed call", def.name);

        let mut spec = TableSpec::new(DataSource::WarehouseTable { table: "t".into() });
        for c in ["i", "f", "s", "d", "ts", "b"] {
            spec.add_column(ColumnDef::source(c, c)).unwrap();
        }
        for (k, src) in formulas.iter().enumerate() {
            spec.add_column(ColumnDef::formula(format!("c{k}"), src.as_str(), 0))
                .unwrap();
        }
        let mut wb = Workbook::new(Some("contract"));
        wb.add_element(0, "Calls", ElementKind::Table(spec))
            .unwrap();
        let compiled = Compiler::new(&wb, &schemas, CompileOptions::default())
            .compile_element("Calls")
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", def.name));
        let batch = match wh.execute_sql(&compiled.sql) {
            Ok(rs) => rs.batch,
            Err(e) => {
                failures.push(format!("{}: the warehouse failed: {e}", def.name));
                continue;
            }
        };
        for (k, src) in formulas.iter().enumerate() {
            let name = format!("c{k}");
            let inferred = compiled.output.iter().find(|(n, _)| *n == name).unwrap().1;
            let produced = batch
                .column(batch.schema().index_of(&name).unwrap())
                .dtype();
            if inferred != produced {
                failures.push(format!(
                    "{src}: compiler inferred {inferred}, warehouse produced {produced}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every SQL function a formula lowers to is one the warehouse resolves.
#[test]
fn every_lowering_resolves_in_the_warehouse() {
    for def in FUNCTIONS {
        if let Some(sql) = def.sql {
            assert!(
                sigma_cdw::eval::scalar(sql.name()).is_some(),
                "{} lowers to {}, which SCALARS does not name",
                def.name,
                sql.name()
            );
        }
    }
}
