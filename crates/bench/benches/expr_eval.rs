//! The **expression-evaluation bench**: typed columnar kernels +
//! selection vectors vs the boxed-`Value` row interpreter, over four
//! filter→project pipelines — `numeric` (arithmetic and comparisons),
//! `string` (LIKE, UPPER, LENGTH, CASE over Text), `date_func`
//! (DATEDIFF, DATE_TRUNC, DATE_PART with literal units) and `range_scan`
//! (a one-year Date range AND a Float threshold: the predicate shape of
//! the `scan_1m` workload, which `select` narrows conjunct by conjunct).
//!
//! Both paths compute the identical pipeline:
//!
//! 1. apply a compound predicate to the input batch,
//! 2. keep the surviving rows (vectorized: the selection vector
//!    `CompiledExpr::select` returns; the interpreter: materialize the
//!    filtered batch),
//! 3. evaluate three projection expressions over the survivors.
//!
//! Doubles as a regression gate: every vectorized result must be
//! bit-identical to the interpreter's, and each pipeline must clear its
//! speedup bar over the interpreter's row throughput — **>= 2x** for
//! `numeric` (the bar the vectorized engine shipped under) and
//! `date_func`, **>= 3.5x** for `string`, **>= RANGE_SCAN_MIN_SPEEDUP**
//! for `range_scan`.
//!
//! Results are written to `BENCH_<date>_expr_eval.json` at the repo root
//! (override the path with `EXPR_EVAL_BENCH_OUT`). Run with:
//!
//! ```text
//! cargo bench -p sigma-bench --bench expr_eval
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_cdw::eval::{eval_interp, BinOp, CompiledExpr, EvalCtx, PhysExpr, ScalarFunc};
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};

const ROWS: usize = 400_000;
const ITERS: usize = 7;
/// The string pipeline's bar: the 5.1x measured when Text columns went
/// flat (it was 2.0x over `Vec<String>` columns), less 30% headroom for
/// noisy hosts.
const STRING_MIN_SPEEDUP: f64 = 3.5;
/// The range-scan pipeline's bar: the 55x measured when predicates began
/// narrowing a selection instead of building Bool masks (4 runs, 51-59x),
/// less 30% headroom.
const RANGE_SCAN_MIN_SPEEDUP: f64 = 38.0;

fn col(i: usize) -> PhysExpr {
    PhysExpr::Col(i)
}

fn lit(v: impl Into<Value>) -> PhysExpr {
    PhysExpr::Literal(v.into())
}

fn bin(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn batch() -> Batch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("j", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Text),
        Field::new("d", DataType::Date),
    ]));
    // Deterministic pseudo-random-ish distribution (no RNG dependency);
    // j carries ~6% nulls so the validity-bitmap paths are exercised.
    let words = ["alpha", "beta", "gamma", "delta", "a%b", "x_y", ""];
    Batch::new(
        schema,
        vec![
            Column::from_ints((0..ROWS as i64).map(|i| (i * 7919) % 10_000).collect()),
            Column::from_opt_ints(
                (0..ROWS as i64)
                    .map(|i| ((i * 104_729) % 17 != 0).then(|| (i * 31) % 1_000))
                    .collect(),
            ),
            Column::from_floats(
                (0..ROWS as i64)
                    .map(|i| ((i * 131) % 9_973) as f64 / 3.0 - 1_500.0)
                    .collect(),
            ),
            Column::from_texts(
                (0..ROWS)
                    .map(|i| words[(i * 23) % words.len()].to_string())
                    .collect(),
            ),
            // ~35 years of days, ~5% nulls.
            Column::from_opt_dates(
                (0..ROWS as i64)
                    .map(|i| ((i * 7_907) % 19 != 0).then(|| 6_000 + ((i * 613) % 12_800) as i32))
                    .collect(),
            ),
        ],
    )
    .unwrap()
}

struct Pipeline {
    name: &'static str,
    predicate: PhysExpr,
    projections: Vec<PhysExpr>,
    /// Acceptance bar: vectorized rows/s over interpreter rows/s.
    min_speedup: f64,
}

fn pipelines() -> Vec<Pipeline> {
    // (i * 3 + j) % 7 > 2 AND f * 0.5 + i < 4000
    let numeric_pred = bin(
        BinOp::And,
        bin(
            BinOp::Gt,
            bin(
                BinOp::Mod,
                bin(BinOp::Add, bin(BinOp::Mul, col(0), lit(3i64)), col(1)),
                lit(7i64),
            ),
            lit(2i64),
        ),
        bin(
            BinOp::Lt,
            bin(BinOp::Add, bin(BinOp::Mul, col(2), lit(0.5f64)), col(0)),
            lit(4_000i64),
        ),
    );
    // i + j * 2 | f * 1.5 + i | (i % 10) BETWEEN 2 AND 7
    let numeric_projs = vec![
        bin(BinOp::Add, col(0), bin(BinOp::Mul, col(1), lit(2i64))),
        bin(BinOp::Add, bin(BinOp::Mul, col(2), lit(1.5f64)), col(0)),
        PhysExpr::Between {
            expr: Box::new(bin(BinOp::Mod, col(0), lit(10i64))),
            low: Box::new(lit(2i64)),
            high: Box::new(lit(7i64)),
            negated: false,
        },
    ];
    // s LIKE '%a%' AND i < 8000, projecting UPPER(s), LENGTH(s), CASE.
    let string_pred = bin(
        BinOp::And,
        PhysExpr::Like {
            expr: Box::new(col(3)),
            pattern: Box::new(lit("%a%")),
            negated: false,
        },
        bin(BinOp::Lt, col(0), lit(8_000i64)),
    );
    let string_projs = vec![
        PhysExpr::Func {
            func: ScalarFunc::Upper,
            args: vec![col(3)],
        },
        PhysExpr::Func {
            func: ScalarFunc::Length,
            args: vec![col(3)],
        },
        PhysExpr::Case {
            operand: None,
            whens: vec![(
                bin(BinOp::Gt, col(0), lit(5_000i64)),
                bin(BinOp::Concat, col(3), lit("!")),
            )],
            else_: Some(Box::new(col(3))),
        },
    ];
    // DATEDIFF('day', d, DATE 2021-01-01) > 4000, projecting
    // DATE_TRUNC('quarter', d), DATE_PART('month', d), DATEDIFF('month', ..).
    let func = |func, args| PhysExpr::Func { func, args };
    let horizon = || lit(Value::Date(18_628));
    let date_pred = bin(
        BinOp::Gt,
        func(ScalarFunc::DateDiff, vec![lit("day"), col(4), horizon()]),
        lit(4_000i64),
    );
    let date_projs = vec![
        func(ScalarFunc::DateTrunc, vec![lit("quarter"), col(4)]),
        func(ScalarFunc::DatePart, vec![lit("month"), col(4)]),
        func(ScalarFunc::DateDiff, vec![lit("month"), col(4), horizon()]),
    ];
    // d >= DATE a AND d <= DATE a + 365 AND f >= -200.0, projecting the
    // survivors' s, i and f (the scan_1m filter: a year of a ~35-year
    // Date column, then a Float threshold).
    let year_start = 12_000;
    let range_pred = bin(
        BinOp::And,
        bin(
            BinOp::And,
            bin(BinOp::GtEq, col(4), lit(Value::Date(year_start))),
            bin(BinOp::LtEq, col(4), lit(Value::Date(year_start + 365))),
        ),
        bin(BinOp::GtEq, col(2), lit(-200.0f64)),
    );
    let range_projs = vec![col(3), col(0), col(2)];
    vec![
        Pipeline {
            name: "numeric",
            predicate: numeric_pred,
            projections: numeric_projs,
            min_speedup: 2.0,
        },
        Pipeline {
            name: "string",
            predicate: string_pred,
            projections: string_projs,
            min_speedup: STRING_MIN_SPEEDUP,
        },
        Pipeline {
            name: "date_func",
            predicate: date_pred,
            projections: date_projs,
            min_speedup: 2.0,
        },
        Pipeline {
            name: "range_scan",
            predicate: range_pred,
            projections: range_projs,
            min_speedup: RANGE_SCAN_MIN_SPEEDUP,
        },
    ]
}

/// Vectorized engine: compile once, select the predicate's TRUE rows,
/// thread that selection vector into the projections (no intermediate
/// batch).
fn run_vectorized(p: &Pipeline, batch: &Batch, ctx: &EvalCtx) -> Vec<Column> {
    let types: Vec<DataType> = batch.schema().fields().iter().map(|f| f.dtype).collect();
    let pred = CompiledExpr::compile(&p.predicate, &types).unwrap();
    let projs: Vec<CompiledExpr> = p
        .projections
        .iter()
        .map(|e| CompiledExpr::compile(e, &types).unwrap())
        .collect();
    let sel = pred.select(batch, None, ctx).unwrap();
    projs
        .iter()
        .map(|e| e.eval(batch, Some(&sel), ctx).unwrap())
        .collect()
}

/// Row interpreter: per-cell `Value` dispatch, filtered batch
/// materialized between the stages.
fn run_interpreter(p: &Pipeline, batch: &Batch, ctx: &EvalCtx) -> Vec<Column> {
    let mask_col = eval_interp(&p.predicate, batch, ctx).unwrap();
    let mask: Vec<bool> = (0..batch.num_rows())
        .map(|i| mask_col.value(i) == Value::Bool(true))
        .collect();
    let filtered = batch.filter(&mask);
    p.projections
        .iter()
        .map(|e| eval_interp(e, &filtered, ctx).unwrap())
        .collect()
}

fn assert_bit_identical(a: &[Column], b: &[Column], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (ca, cb) in a.iter().zip(b) {
        assert_eq!(ca.dtype(), cb.dtype(), "{what}");
        assert_eq!(ca.len(), cb.len(), "{what}");
        for i in 0..ca.len() {
            match (ca.value(i), cb.value(i)) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what} row {i}")
                }
                (x, y) => assert_eq!(x, y, "{what} row {i}"),
            }
        }
    }
}

fn median_ms(mut f: impl FnMut() -> Vec<Column>) -> (f64, Vec<Column>) {
    let mut times: Vec<Duration> = Vec::with_capacity(ITERS);
    let mut last = Vec::new();
    for _ in 0..ITERS {
        let started = Instant::now();
        last = f();
        times.push(started.elapsed());
    }
    times.sort();
    (times[ITERS / 2].as_secs_f64() * 1e3, last)
}

fn main() {
    let batch = batch();
    let ctx = EvalCtx::default();
    let mut rows_json = String::new();
    println!("expr_eval bench ({ROWS} rows, median of {ITERS} runs per cell)");
    println!(
        "{:<10} {:<14} {:>10} {:>14} {:>9}",
        "pipeline", "engine", "ms", "rows/s", "speedup"
    );
    for p in pipelines() {
        let (interp_ms, interp_out) = median_ms(|| run_interpreter(&p, &batch, &ctx));
        let (vec_ms, vec_out) = median_ms(|| run_vectorized(&p, &batch, &ctx));
        assert_bit_identical(&vec_out, &interp_out, p.name);
        let interp_rps = ROWS as f64 / (interp_ms / 1e3);
        let vec_rps = ROWS as f64 / (vec_ms / 1e3);
        let speedup = vec_rps / interp_rps;
        println!(
            "{:<10} {:<14} {:>10.2} {:>14.0} {:>9}",
            p.name, "interpreter", interp_ms, interp_rps, "1.0x"
        );
        println!(
            "{:<10} {:<14} {:>10.2} {:>14.0} {:>8.1}x",
            p.name, "vectorized", vec_ms, vec_rps, speedup
        );
        assert!(
            speedup >= p.min_speedup,
            "{} pipeline speedup {speedup:.2}x < {:.1}x acceptance bar",
            p.name,
            p.min_speedup
        );
        if !rows_json.is_empty() {
            rows_json.push_str(",\n");
        }
        rows_json.push_str(&format!(
            "    {{ \"pipeline\": \"{}\", \"interpreter_ms\": {:.3}, \"vectorized_ms\": {:.3}, \
             \"interpreter_rows_per_s\": {:.0}, \"vectorized_rows_per_s\": {:.0}, \
             \"speedup\": {:.2} }}",
            p.name, interp_ms, vec_ms, interp_rps, vec_rps, speedup
        ));
    }

    let date = sigma_bench::today();
    let json = format!(
        "{{\n  \"recorded\": \"{date}\",\n  \"note\": \"Vectorized expression engine (typed \
         columnar kernels + selection vectors) vs the boxed-Value row interpreter over four \
         filter+project pipelines on {ROWS} synthetic rows, median of {ITERS} \
         runs. Outputs are asserted bit-identical; numeric and date_func must clear a 2x speedup \
         bar, string {STRING_MIN_SPEEDUP}x, range_scan {RANGE_SCAN_MIN_SPEEDUP}x. Regenerate with: cargo bench -p sigma-bench --bench expr_eval.\",\n  \
         \"rows\": {ROWS},\n  \"iters\": {ITERS},\n  \"cells\": [\n{rows_json}\n  ]\n}}\n",
    );
    sigma_bench::write_record("expr_eval", "EXPR_EVAL_BENCH_OUT", &json);
}
