//! One ledger, read twice: `ResultSet` and `explain_analyze` read the same
//! per-query ledger, so for the same query they must report the same
//! operator tree and the same spill totals, and every operator's
//! `rows_in` must be what its direct children emitted.

use std::sync::Arc;

use sigma_cdw::{MorselSizing, OpStats, Warehouse};
use sigma_value::{Batch, Column, DataType, Field, Schema};

/// An aggregate fused with the Filter chain below it, feeding a join and
/// a sort: every kind of operator entry (wall-clocked, fused chain node,
/// fused aggregate) and every spilling operator in one plan.
const SQL: &str = "SELECT u.lab, x.s FROM \
     (SELECT jk, SUM(v) AS s FROM t WHERE v > 2 GROUP BY jk) x \
     JOIN u ON x.jk = u.k ORDER BY x.s DESC, u.lab";

fn warehouse() -> Warehouse {
    sigma_cdw::grow_worker_pool_target(2);
    let wh = Warehouse::default();
    let fact = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("jk", DataType::Int),
        ])),
        vec![
            Column::from_ints((0..60).collect()),
            Column::from_ints((0..60).map(|i| i % 8).collect()),
        ],
    )
    .unwrap();
    wh.load_table_partitioned("t", fact, 16).unwrap();
    let dim = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..6).collect()),
            Column::from_texts((0..6).map(|i| format!("l{i}")).collect()),
        ],
    )
    .unwrap();
    wh.load_table("u", dim).unwrap();
    wh.set_parallelism(2);
    wh.set_morsel_sizing(MorselSizing::Fixed(3));
    wh
}

/// `(op, depth, rows_in, rows_out, partitions, morsels)`: everything an
/// entry reports except timings.
type Entry = (String, usize, usize, usize, usize, usize);

fn entries(ops: &[OpStats]) -> Vec<Entry> {
    ops.iter()
        .map(|o| {
            let (op, depth) = (o.op.clone(), o.depth);
            (op, depth, o.rows_in, o.rows_out, o.partitions, o.morsels)
        })
        .collect()
}

/// Parse `explain_analyze`'s operator lines back into entries.
fn rendered_entries(analyzed: &str) -> Vec<Entry> {
    analyzed
        .lines()
        .filter(|l| l.contains("  rows_in="))
        .map(|line| {
            let text = line.trim_start();
            let (op, stats) = text.split_once("  rows_in=").unwrap();
            let stat = |key: &str| -> usize {
                stats
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix(key))
                    .map_or(0, |v| v.parse().unwrap())
            };
            let rows_in = stats.split_whitespace().next().unwrap().parse().unwrap();
            (
                op.to_string(),
                (line.len() - text.len()) / 2,
                rows_in,
                stat("rows_out="),
                stat("partitions="),
                stat("morsels="),
            )
        })
        .collect()
}

fn footer(analyzed: &str, key: &str) -> usize {
    analyzed
        .lines()
        .find(|l| l.starts_with("memory:"))
        .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix(key)))
        .unwrap_or_else(|| panic!("no {key} in the memory footer:\n{analyzed}"))
        .parse()
        .unwrap()
}

#[test]
fn result_set_and_explain_analyze_read_one_ledger() {
    let wh = warehouse();
    for budget in [Some(1), None] {
        wh.set_memory_budget(budget);
        let result = wh.execute_sql(SQL).unwrap();
        let analyzed = wh.explain_analyze(SQL).unwrap();
        let ran = entries(&result.operators);
        assert_eq!(
            ran,
            rendered_entries(&analyzed),
            "budget {budget:?}\n{analyzed}"
        );
        for kind in ["Aggregate", "Filter", "Join", "Sort"] {
            assert!(
                ran.iter().any(|e| e.0.starts_with(kind)),
                "no {kind} entry under budget {budget:?}:\n{analyzed}"
            );
        }

        assert_eq!(result.spilled_bytes, footer(&analyzed, "spilled_bytes="));
        assert_eq!(result.spill_rounds, footer(&analyzed, "spill_rounds="));
        assert_eq!(
            budget.is_some(),
            result.spilled_bytes > 0,
            "budget {budget:?} spilled {} bytes",
            result.spilled_bytes
        );

        for (i, (op, depth, rows_in, ..)) in ran.iter().enumerate() {
            let children: usize = ran[i + 1..]
                .iter()
                .take_while(|e| e.1 > *depth)
                .filter(|e| e.1 == depth + 1)
                .map(|e| e.3)
                .sum();
            assert_eq!(
                *rows_in, children,
                "{op} under budget {budget:?}:\n{analyzed}"
            );
        }
    }
}
