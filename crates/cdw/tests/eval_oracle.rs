//! The vectorized expression engine's safety net.
//!
//! The boxed-`Value` row interpreter (`sigma_cdw::eval::eval_interp`) is
//! the semantic oracle; the typed columnar kernels must be
//! **bit-identical** to it — float bit patterns included — over randomly
//! generated, type-correct expressions and batches:
//!
//! * `vectorized_matches_row_interpreter`: a type-directed generator
//!   builds expression trees (arithmetic, comparisons, three-valued
//!   logic, CASE, CAST/TRY_CAST, IN, BETWEEN, LIKE, scalar functions,
//!   selection vectors) over batches with nulls, NaN, ±0.0 and ±inf, and
//!   pins `eval == eval_interp` cell by cell.
//! * `selection_matches_row_interpreter`: conjunctions of Bool predicates
//!   — half made only of the column-vs-literal comparisons `select` runs
//!   as steps, half mixing typed comparison / BETWEEN / IN / IS NULL
//!   shapes, generated expressions and now and then a fallible
//!   strict-cast conjunct, literals drawn from the columns' own cells —
//!   applied with `select`
//!   over random ascending selections must return exactly the rows the
//!   interpreter finds TRUE, and fail exactly when evaluating the
//!   predicate over the same selection fails.
//! * `binary_op_matrix_matches_interpreter`: deterministic sweep of every
//!   binary operator over every (left type, right type) pair and null
//!   placement, in column⊗column, column⊗literal, and literal⊗column
//!   shapes — both engines must agree on values *and* on which
//!   combinations error, and `select` on its TRUE rows.
//! * `pipelines_bit_identical_at_any_parallelism_and_budget`:
//!   expression-heavy SQL (filter → project → filter chains, grouped
//!   aggregation over computed keys, LIKE/CASE/CAST) through the full
//!   warehouse at parallelism {1, 4} × memory budget {unbounded, 1 byte}
//!   — all four runs bit-identical.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sigma_cdw::eval::{self, BinOp, EvalCtx, PhysExpr, ScalarFunc, UnOp};
use sigma_cdw::Warehouse;
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------
// bit-exact comparison
// ---------------------------------------------------------------------

fn assert_col_bit_identical(vectorized: &Column, interp: &Column, what: &dyn std::fmt::Debug) {
    assert_eq!(
        vectorized.dtype(),
        interp.dtype(),
        "output dtype diverged: {what:?}"
    );
    assert_eq!(vectorized.len(), interp.len(), "length diverged: {what:?}");
    for i in 0..vectorized.len() {
        match (vectorized.value(i), interp.value(i)) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "float bits at row {i}: {a} vs {b}: {what:?}"
            ),
            (a, b) => assert_eq!(a, b, "value at row {i}: {what:?}"),
        }
    }
}

fn assert_batch_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{what}");
    assert_eq!(a.num_columns(), b.num_columns(), "{what}");
    for c in 0..a.num_columns() {
        assert_col_bit_identical(a.column(c), b.column(c), &what);
    }
}

// ---------------------------------------------------------------------
// typed random batches
// ---------------------------------------------------------------------

// Column ordinals in the generated schema.
const I_DENSE: usize = 0; // Int, no nulls
const I_NULL: usize = 1; // Int, nullable
const F_NULL: usize = 2; // Float, nullable, with NaN / ±0.0 / ±inf
const T_NULL: usize = 3; // Text, nullable, wildcard-ish content
const B_NULL: usize = 4; // Bool, nullable
const D_NULL: usize = 5; // Date, nullable
const TS_NULL: usize = 6; // Timestamp, nullable

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("i_dense", DataType::Int),
        Field::new("i_null", DataType::Int),
        Field::new("f_null", DataType::Float),
        Field::new("t_null", DataType::Text),
        Field::new("b_null", DataType::Bool),
        Field::new("d_null", DataType::Date),
        Field::new("ts_null", DataType::Timestamp),
    ]))
}

const FLOAT_POOL: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -2.25,
    3.5e9,
    -1.25e-9,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const TEXT_POOL: &[&str] = &["", "alpha", "Beta", "a%b", "x_y", "100", "no", "日本", "aa"];

fn gen_batch(rng: &mut StdRng, rows: usize) -> Batch {
    let nullable = |rng: &mut StdRng| rng.random_range(0..4usize) == 0;
    let ints: Vec<i64> = (0..rows).map(|_| rng.random_range(-100i64..100)).collect();
    let opt_ints: Vec<Option<i64>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| rng.random_range(-100i64..100)))
        .collect();
    let floats: Vec<Option<f64>> = (0..rows)
        .map(|_| {
            (!nullable(rng)).then(|| {
                if rng.random_range(0..3usize) == 0 {
                    FLOAT_POOL[rng.random_range(0..FLOAT_POOL.len())]
                } else {
                    (rng.random::<f64>() - 0.5) * 2e4
                }
            })
        })
        .collect();
    let texts: Vec<Option<String>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| TEXT_POOL[rng.random_range(0..TEXT_POOL.len())].into()))
        .collect();
    let bools: Vec<Option<bool>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| rng.random::<bool>()))
        .collect();
    let dates: Vec<Option<i32>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| rng.random_range(0i64..30_000) as i32))
        .collect();
    let stamps: Vec<Option<i64>> = (0..rows)
        .map(|_| (!nullable(rng)).then(|| rng.random_range(0i64..2_500_000_000_000_000)))
        .collect();
    Batch::new(
        schema(),
        vec![
            Column::from_ints(ints),
            Column::from_opt_ints(opt_ints),
            Column::from_opt_floats(floats),
            Column::from_opt_texts(texts),
            Column::from_opt_bools(bools),
            Column::from_opt_dates(dates),
            Column::from_opt_timestamps(stamps),
        ],
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// type-directed expression generator
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Num,
    Text,
    Bool,
    Temporal,
}

fn lit_int(rng: &mut StdRng) -> PhysExpr {
    PhysExpr::lit(rng.random_range(-100i64..100))
}

fn lit_float(rng: &mut StdRng) -> PhysExpr {
    PhysExpr::lit(FLOAT_POOL[rng.random_range(0..FLOAT_POOL.len())])
}

fn lit_text(rng: &mut StdRng) -> PhysExpr {
    PhysExpr::lit(TEXT_POOL[rng.random_range(0..TEXT_POOL.len())])
}

fn lit_pattern(rng: &mut StdRng) -> PhysExpr {
    const PATTERNS: &[&str] = &[
        "", "%", "_", "a%", "%a", "a_b", "%a%b%", "__", "a%b%c", "100", "%%", "_%_",
    ];
    PhysExpr::lit(PATTERNS[rng.random_range(0..PATTERNS.len())])
}

fn lit_unit(rng: &mut StdRng) -> PhysExpr {
    const UNITS: &[&str] = &["year", "quarter", "month", "week", "day"];
    PhysExpr::lit(UNITS[rng.random_range(0..UNITS.len())])
}

/// A well-typed expression of the requested class. `depth` bounds nesting.
fn gen_expr(rng: &mut StdRng, depth: usize, class: Class) -> PhysExpr {
    let bin = |op: BinOp, l: PhysExpr, r: PhysExpr| PhysExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    };
    if depth == 0 {
        // Leaves: a column of the class, or a literal (sometimes NULL).
        let null = rng.random_range(0..8usize) == 0;
        if null {
            return PhysExpr::Literal(Value::Null);
        }
        return match class {
            Class::Num => match rng.random_range(0..5usize) {
                0 => PhysExpr::Col(I_DENSE),
                1 => PhysExpr::Col(I_NULL),
                2 => PhysExpr::Col(F_NULL),
                3 => lit_int(rng),
                _ => lit_float(rng),
            },
            Class::Text => match rng.random_range(0..2usize) {
                0 => PhysExpr::Col(T_NULL),
                _ => lit_text(rng),
            },
            Class::Bool => match rng.random_range(0..2usize) {
                0 => PhysExpr::Col(B_NULL),
                _ => PhysExpr::lit(rng.random::<bool>()),
            },
            Class::Temporal => match rng.random_range(0..4usize) {
                0 => PhysExpr::Col(D_NULL),
                1 => PhysExpr::Col(TS_NULL),
                2 => PhysExpr::Literal(Value::Date(rng.random_range(0i64..30_000) as i32)),
                _ => PhysExpr::Literal(Value::Timestamp(
                    rng.random_range(0i64..2_500_000_000_000_000),
                )),
            },
        };
    }
    let d = depth - 1;
    match class {
        Class::Num => match rng.random_range(0..12usize) {
            0..=3 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
                    [rng.random_range(0..5usize)];
                bin(
                    op,
                    gen_expr(rng, d, Class::Num),
                    gen_expr(rng, d, Class::Num),
                )
            }
            4 => PhysExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(gen_expr(rng, d, Class::Num)),
            },
            5 => {
                let func = [
                    ScalarFunc::Abs,
                    ScalarFunc::Floor,
                    ScalarFunc::Ceil,
                    ScalarFunc::Sqrt,
                    ScalarFunc::Sign,
                    ScalarFunc::Exp,
                    ScalarFunc::Ln,
                ][rng.random_range(0..7usize)];
                PhysExpr::Func {
                    func,
                    args: vec![gen_expr(rng, d, Class::Num)],
                }
            }
            6 => PhysExpr::Func {
                func: [ScalarFunc::Coalesce, ScalarFunc::Nullif][rng.random_range(0..2usize)],
                args: vec![gen_expr(rng, d, Class::Num), gen_expr(rng, d, Class::Num)],
            },
            7 => PhysExpr::Func {
                func: [ScalarFunc::Greatest, ScalarFunc::Least][rng.random_range(0..2usize)],
                args: vec![gen_expr(rng, d, Class::Num), gen_expr(rng, d, Class::Num)],
            },
            8 => PhysExpr::Case {
                operand: None,
                whens: vec![(gen_expr(rng, d, Class::Bool), gen_expr(rng, d, Class::Num))],
                else_: rng
                    .random::<bool>()
                    .then(|| Box::new(gen_expr(rng, d, Class::Num))),
            },
            9 => PhysExpr::Cast {
                expr: Box::new(gen_expr(rng, d, Class::Num)),
                dtype: [DataType::Int, DataType::Float][rng.random_range(0..2usize)],
                strict: false,
            },
            // Dirty-data TRY_CAST: text into a numeric column.
            10 => PhysExpr::try_cast(gen_expr(rng, d, Class::Text), DataType::Int),
            _ => PhysExpr::Func {
                func: ScalarFunc::DateDiff,
                args: vec![
                    lit_unit(rng),
                    gen_expr(rng, d, Class::Temporal),
                    gen_expr(rng, d, Class::Temporal),
                ],
            },
        },
        Class::Text => match rng.random_range(0..5usize) {
            0 => {
                let func = [
                    ScalarFunc::Upper,
                    ScalarFunc::Lower,
                    ScalarFunc::Trim,
                    ScalarFunc::LTrim,
                    ScalarFunc::RTrim,
                ][rng.random_range(0..5usize)];
                PhysExpr::Func {
                    func,
                    args: vec![gen_expr(rng, d, Class::Text)],
                }
            }
            1 => {
                // Concat renders any operand type.
                let rhs = [Class::Text, Class::Num][rng.random_range(0..2usize)];
                let l = gen_expr(rng, d, Class::Text);
                let r = gen_expr(rng, d, rhs);
                bin(BinOp::Concat, l, r)
            }
            2 => PhysExpr::Func {
                func: ScalarFunc::Left,
                args: vec![gen_expr(rng, d, Class::Text), lit_int(rng)],
            },
            3 => {
                let src = [Class::Num, Class::Temporal, Class::Text][rng.random_range(0..3usize)];
                PhysExpr::Cast {
                    expr: Box::new(gen_expr(rng, d, src)),
                    dtype: DataType::Text,
                    strict: false,
                }
            }
            _ => PhysExpr::Case {
                operand: Some(Box::new(gen_expr(rng, d, Class::Num))),
                whens: vec![(gen_expr(rng, d, Class::Num), gen_expr(rng, d, Class::Text))],
                else_: Some(Box::new(gen_expr(rng, d, Class::Text))),
            },
        },
        Class::Bool => match rng.random_range(0..8usize) {
            0..=1 => {
                let op = [
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::LtEq,
                    BinOp::Gt,
                    BinOp::GtEq,
                ][rng.random_range(0..6usize)];
                let cls = [Class::Num, Class::Text, Class::Temporal][rng.random_range(0..3usize)];
                bin(op, gen_expr(rng, d, cls), gen_expr(rng, d, cls))
            }
            2 => bin(
                [BinOp::And, BinOp::Or][rng.random_range(0..2usize)],
                gen_expr(rng, d, Class::Bool),
                gen_expr(rng, d, Class::Bool),
            ),
            3 => PhysExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(gen_expr(rng, d, Class::Bool)),
            },
            4 => {
                let cls = [Class::Num, Class::Text, Class::Bool, Class::Temporal]
                    [rng.random_range(0..4usize)];
                PhysExpr::IsNull {
                    expr: Box::new(gen_expr(rng, d, cls)),
                    negated: rng.random::<bool>(),
                }
            }
            5 => PhysExpr::Between {
                expr: Box::new(gen_expr(rng, d, Class::Num)),
                low: Box::new(gen_expr(rng, d, Class::Num)),
                high: Box::new(gen_expr(rng, d, Class::Num)),
                negated: rng.random::<bool>(),
            },
            6 => {
                // Literal lists hit the pre-hashed fast path; expression
                // lists hit the generic one.
                let literal_list = rng.random::<bool>();
                let len = rng.random_range(1..4usize);
                let (expr, list): (PhysExpr, Vec<PhysExpr>) = if literal_list {
                    (
                        gen_expr(rng, d, Class::Num),
                        (0..len)
                            .map(|_| {
                                if rng.random_range(0..5usize) == 0 {
                                    PhysExpr::Literal(Value::Null)
                                } else {
                                    lit_int(rng)
                                }
                            })
                            .collect(),
                    )
                } else {
                    (
                        gen_expr(rng, d, Class::Text),
                        (0..len).map(|_| gen_expr(rng, d, Class::Text)).collect(),
                    )
                };
                PhysExpr::InList {
                    expr: Box::new(expr),
                    list,
                    negated: rng.random::<bool>(),
                }
            }
            _ => PhysExpr::Like {
                expr: Box::new(gen_expr(rng, d, Class::Text)),
                pattern: Box::new(if rng.random::<bool>() {
                    lit_pattern(rng)
                } else {
                    gen_expr(rng, d, Class::Text)
                }),
                negated: rng.random::<bool>(),
            },
        },
        Class::Temporal => match rng.random_range(0..4usize) {
            0 => bin(
                [BinOp::Add, BinOp::Sub][rng.random_range(0..2usize)],
                gen_expr(rng, d, Class::Temporal),
                lit_int(rng),
            ),
            1 => PhysExpr::Func {
                func: ScalarFunc::DateTrunc,
                args: vec![lit_unit(rng), gen_expr(rng, d, Class::Temporal)],
            },
            2 => PhysExpr::Func {
                func: ScalarFunc::DateAdd,
                args: vec![
                    lit_unit(rng),
                    lit_int(rng),
                    gen_expr(rng, d, Class::Temporal),
                ],
            },
            _ => PhysExpr::Case {
                operand: None,
                whens: vec![(
                    gen_expr(rng, d, Class::Bool),
                    gen_expr(rng, d, Class::Temporal),
                )],
                else_: Some(Box::new(gen_expr(rng, d, Class::Temporal))),
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn vectorized_matches_row_interpreter(
        seed in any::<u64>(),
        rows in 0usize..48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = gen_batch(&mut rng, rows);
        let ctx = EvalCtx::default();
        for _ in 0..8 {
            let class = [Class::Num, Class::Text, Class::Bool, Class::Temporal]
                [rng.random_range(0..4usize)];
            let depth = rng.random_range(1..4usize);
            let expr = gen_expr(&mut rng, depth, class);
            let vectorized = eval::eval(&expr, &batch, &ctx);
            let interp = eval::eval_interp(&expr, &batch, &ctx);
            match (vectorized, interp) {
                (Ok(v), Ok(o)) => assert_col_bit_identical(&v, &o, &expr),
                (Err(_), Err(_)) => {} // both reject — same semantics
                (v, o) => panic!(
                    "engines disagree on success for {expr:?}: vectorized {:?} vs interpreter {:?}",
                    v.map(|c| c.dtype()),
                    o.map(|c| c.dtype()),
                ),
            }
            // Selection vectors restrict evaluation to surviving rows:
            // must equal evaluating the gathered batch densely.
            if rows > 0 {
                let sel: Vec<usize> =
                    (0..rows).filter(|_| rng.random::<bool>()).collect();
                let selected = eval::eval_sel(&expr, &batch, Some(&sel), &ctx);
                let gathered = eval::eval_interp(&expr, &batch.take(&sel), &ctx);
                if let (Ok(v), Ok(o)) = (selected, gathered) {
                    assert_col_bit_identical(&v, &o, &expr);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// selection oracle: `select` vs the row interpreter
// ---------------------------------------------------------------------

/// The ids of `sel` (every row when `None`) whose interpreted verdict is
/// TRUE — the definition `select` must meet.
fn interp_true_rows(
    expr: &PhysExpr,
    batch: &Batch,
    sel: Option<&[usize]>,
    ctx: &EvalCtx,
) -> Result<Vec<usize>, sigma_cdw::CdwError> {
    let ids: Vec<usize> = sel.map_or_else(|| (0..batch.num_rows()).collect(), <[usize]>::to_vec);
    let verdicts = eval::eval_interp(expr, &batch.take(&ids), ctx)?;
    Ok((0..ids.len())
        .filter(|&i| verdicts.value(i) == Value::Bool(true))
        .map(|i| ids[i])
        .collect())
}

/// `select` must return exactly the interpreter's TRUE rows, and fail
/// exactly when evaluating the predicate over the same selection fails.
fn assert_select_matches(expr: &PhysExpr, batch: &Batch, sel: Option<&[usize]>, ctx: &EvalCtx) {
    let selected = eval::select(expr, batch, sel, ctx);
    let evaluated = eval::eval_sel(expr, batch, sel, ctx);
    match (&selected, &evaluated) {
        (Ok(rows), Ok(_)) => {
            let expected = interp_true_rows(expr, batch, sel, ctx).unwrap_or_else(|e| {
                panic!("interpreter failed where select did not: {e}: {expr:?}")
            });
            assert_eq!(
                rows, &expected,
                "selected rows diverged for {expr:?} over {sel:?}"
            );
        }
        (Err(s), Err(e)) => assert_eq!(s.to_string(), e.to_string(), "{expr:?}"),
        (s, e) => panic!(
            "select and eval disagree on failure for {expr:?} over {sel:?}: \
             select ok={} eval ok={}",
            s.is_ok(),
            e.is_ok()
        ),
    }
}

/// A literal drawn from one of the column's own cells (NULL included), so
/// comparisons tie; a Date sometimes becomes the Timestamp at its
/// midnight, so Date and Timestamp operands tie too.
fn cell_literal(rng: &mut StdRng, batch: &Batch, col: usize) -> PhysExpr {
    if batch.num_rows() == 0 {
        return PhysExpr::Literal(Value::Null);
    }
    let v = batch
        .column(col)
        .value(rng.random_range(0..batch.num_rows()));
    PhysExpr::Literal(match v {
        Value::Date(d) if rng.random::<bool>() => {
            Value::Timestamp(d as i64 * sigma_value::calendar::MICROS_PER_DAY)
        }
        v => v,
    })
}

/// A typed predicate over columns and literals: a column compared with a
/// literal (either side — the shape `select` runs as a step) or with a
/// column of its class, BETWEEN literals, IN a literal list,
/// IS [NOT] NULL, or a Bool column.
fn gen_typed_shape(rng: &mut StdRng, batch: &Batch) -> PhysExpr {
    const CLASSES: &[&[usize]] = &[
        &[I_DENSE, I_NULL, F_NULL],
        &[T_NULL],
        &[B_NULL],
        &[D_NULL, TS_NULL],
    ];
    let cols = CLASSES[rng.random_range(0..CLASSES.len())];
    let col = cols[rng.random_range(0..cols.len())];
    let (low, high) = (
        cols[rng.random_range(0..cols.len())],
        cols[rng.random_range(0..cols.len())],
    );
    let negated = rng.random::<bool>();
    match rng.random_range(0..6usize) {
        0 | 1 => {
            let other = cols[rng.random_range(0..cols.len())];
            let (col, lit) = (PhysExpr::Col(col), cell_literal(rng, batch, other));
            match rng.random_range(0..3usize) {
                0 => comparison(rng, col, lit),
                1 => comparison(rng, lit, col),
                _ => comparison(rng, col, PhysExpr::Col(other)),
            }
        }
        2 => PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(col)),
            low: Box::new(cell_literal(rng, batch, low)),
            high: Box::new(cell_literal(rng, batch, high)),
            negated,
        },
        3 => PhysExpr::InList {
            expr: Box::new(PhysExpr::Col(col)),
            list: (0..rng.random_range(1..4usize))
                .map(|_| cell_literal(rng, batch, col))
                .collect(),
            negated,
        },
        4 => PhysExpr::IsNull {
            expr: Box::new(PhysExpr::Col(col)),
            negated,
        },
        _ => PhysExpr::Col(B_NULL),
    }
}

/// `left <op> right` for one of the six comparisons, drawn at random.
fn comparison(rng: &mut StdRng, left: PhysExpr, right: PhysExpr) -> PhysExpr {
    let op = [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ][rng.random_range(0..6usize)];
    PhysExpr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// The shape `select` runs as a step: a Float or Date column compared
/// with a literal of its class (either side), drawn from the class's own
/// cells — Int ones included for the Float column — so NULL, NaN, ±0.0,
/// ±inf and ties all occur.
fn gen_step(rng: &mut StdRng, batch: &Batch) -> PhysExpr {
    let (col, sources): (usize, &[usize]) = if rng.random::<bool>() {
        (F_NULL, &[I_DENSE, I_NULL, F_NULL])
    } else {
        (D_NULL, &[D_NULL])
    };
    let col = PhysExpr::Col(col);
    let lit = PhysExpr::Literal(if batch.num_rows() == 0 {
        Value::Null
    } else {
        let from = sources[rng.random_range(0..sources.len())];
        batch
            .column(from)
            .value(rng.random_range(0..batch.num_rows()))
    });
    if rng.random::<bool>() {
        comparison(rng, col, lit)
    } else {
        comparison(rng, lit, col)
    }
}

/// `CAST(t_null AS BIGINT) > k` with a strict cast: fails on any selected
/// valid row whose text is not an integer.
fn strict_cast_conjunct(rng: &mut StdRng) -> PhysExpr {
    PhysExpr::Binary {
        op: BinOp::Gt,
        left: Box::new(PhysExpr::Cast {
            expr: Box::new(PhysExpr::Col(T_NULL)),
            dtype: DataType::Int,
            strict: true,
        }),
        right: Box::new(lit_int(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn selection_matches_row_interpreter(
        seed in any::<u64>(),
        rows in 0usize..48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = gen_batch(&mut rng, rows);
        let ctx = EvalCtx::default();
        for _ in 0..8 {
            // A conjunction of one to four Bool predicates. Half of them
            // are all steps (column-vs-literal comparisons, narrowed
            // conjunct by conjunct); the rest mix typed shapes, generated
            // expressions and now and then a fallible (strict-cast)
            // conjunct, and are evaluated whole.
            let conjuncts = rng.random_range(1..5usize);
            let steps_only = rng.random::<bool>();
            let mut expr: Option<PhysExpr> = None;
            for _ in 0..conjuncts {
                let next = match rng.random_range(0..6usize) {
                    _ if steps_only => gen_step(&mut rng, &batch),
                    0 => strict_cast_conjunct(&mut rng),
                    1 | 2 => {
                        let depth = rng.random_range(0..3usize);
                        gen_expr(&mut rng, depth, Class::Bool)
                    }
                    _ => gen_typed_shape(&mut rng, &batch),
                };
                expr = Some(match expr {
                    None => next,
                    Some(prev) => PhysExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(prev),
                        right: Box::new(next),
                    },
                });
            }
            let expr = expr.expect("at least one conjunct");
            assert_select_matches(&expr, &batch, None, &ctx);
            let sel: Vec<usize> = (0..rows).filter(|_| rng.random::<bool>()).collect();
            assert_select_matches(&expr, &batch, Some(&sel), &ctx);
        }
    }
}

/// A conjunction is refined left to right only when every conjunct is a
/// selection step: a strict cast after a conjunct that rejects every row
/// it would fail on still fails, exactly as evaluating the whole
/// predicate does.
#[test]
fn fallible_conjunct_fails_even_after_a_rejecting_conjunct() {
    let batch = Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("t", DataType::Text),
        ])),
        vec![
            Column::from_ints(vec![1, 2, 3]),
            Column::from_texts(vec!["7".into(), "x".into(), "9".into()]),
        ],
    )
    .unwrap();
    let ctx = EvalCtx::default();
    // `i <> 2` rejects the one row ('x') the cast cannot convert.
    let pred = PhysExpr::Binary {
        op: BinOp::And,
        left: Box::new(PhysExpr::Binary {
            op: BinOp::NotEq,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::lit(2i64)),
        }),
        right: Box::new(PhysExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(PhysExpr::Cast {
                expr: Box::new(PhysExpr::Col(1)),
                dtype: DataType::Int,
                strict: true,
            }),
            right: Box::new(PhysExpr::lit(0i64)),
        }),
    };
    assert!(eval::eval(&pred, &batch, &ctx).is_err());
    assert!(eval::select(&pred, &batch, None, &ctx).is_err());
    // A selection that leaves the bad row out evaluates, and selects.
    assert_eq!(
        eval::select(&pred, &batch, Some(&[0, 2]), &ctx).unwrap(),
        vec![0, 2]
    );
    assert_select_matches(&pred, &batch, None, &ctx);
}

// ---------------------------------------------------------------------
// deterministic binary-op matrix
// ---------------------------------------------------------------------

/// Every binary operator over every (left type, right type) pair with a
/// valid row, a null-left row, and a null-right row — in column⊗column,
/// column⊗literal, and literal⊗column shapes. Both engines must agree on
/// values (bit-exact) and on which combinations are type errors.
#[test]
fn binary_op_matrix_matches_interpreter() {
    let ctx = EvalCtx::default();
    let columns: Vec<(DataType, Column, Value)> = vec![
        (
            DataType::Bool,
            Column::from_opt_bools(vec![Some(true), None, Some(false)]),
            Value::Bool(true),
        ),
        (
            DataType::Int,
            Column::from_opt_ints(vec![Some(7), None, Some(-3)]),
            Value::Int(7),
        ),
        (
            DataType::Float,
            Column::from_opt_floats(vec![Some(2.5), None, Some(-0.0)]),
            Value::Float(2.5),
        ),
        (
            DataType::Text,
            Column::from_opt_texts(vec![Some("m".into()), None, Some("".into())]),
            Value::Text("m".into()),
        ),
        (
            DataType::Date,
            Column::from_opt_dates(vec![Some(18_000), None, Some(0)]),
            Value::Date(18_000),
        ),
        (
            DataType::Timestamp,
            Column::from_opt_timestamps(vec![Some(1_550_000_000_000_000), None, Some(0)]),
            Value::Timestamp(1_550_000_000_000_000),
        ),
    ];
    let ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Concat,
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::And,
        BinOp::Or,
    ];
    let mut checked = 0usize;
    for (lt, lcol, llit) in &columns {
        for (rt, rcol, rlit) in &columns {
            let batch = Batch::new(
                Arc::new(Schema::new(vec![
                    Field::new("l", *lt),
                    Field::new("r", *rt),
                ])),
                vec![lcol.clone(), rcol.clone()],
            )
            .unwrap();
            let shapes: [(PhysExpr, PhysExpr); 3] = [
                (PhysExpr::Col(0), PhysExpr::Col(1)),
                (PhysExpr::Col(0), PhysExpr::Literal(rlit.clone())),
                (PhysExpr::Literal(llit.clone()), PhysExpr::Col(1)),
            ];
            for op in ops {
                for (l, r) in &shapes {
                    let expr = PhysExpr::Binary {
                        op,
                        left: Box::new(l.clone()),
                        right: Box::new(r.clone()),
                    };
                    let vectorized = eval::eval(&expr, &batch, &ctx);
                    let interp = eval::eval_interp(&expr, &batch, &ctx);
                    match (vectorized, interp) {
                        (Ok(v), Ok(o)) => assert_col_bit_identical(&v, &o, &expr),
                        (Err(_), Err(_)) => {}
                        (v, o) => panic!(
                            "engines disagree on {op:?} over ({lt:?}, {rt:?}): \
                             vectorized ok={} interpreter ok={}",
                            v.is_ok(),
                            o.is_ok(),
                        ),
                    }
                    // The same predicate applied as a selection, over every
                    // row and over a strict subset — and behind a conjunct
                    // keeping only the all-NULL row, which must not hide
                    // an error the other rows raise.
                    let guarded = PhysExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(PhysExpr::IsNull {
                            expr: Box::new(PhysExpr::Col(0)),
                            negated: false,
                        }),
                        right: Box::new(expr.clone()),
                    };
                    for sel in [None, Some(&[0usize, 2][..])] {
                        assert_select_matches(&expr, &batch, sel, &ctx);
                        assert_select_matches(&guarded, &batch, sel, &ctx);
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, columns.len() * columns.len() * ops.len() * 3);
}

// ---------------------------------------------------------------------
// whole-pipeline oracle: parallelism × memory budget
// ---------------------------------------------------------------------

/// Expression-heavy pipelines covering the operators that now consume
/// selection vectors (filter → project → filter chains, aggregation over
/// computed keys, join keys, sort keys).
const PIPELINES: &[&str] = &[
    // Filter -> project -> filter chain over computed expressions.
    "SELECT a, a * v AS av FROM \
       (SELECT v, v + 1 AS a, s FROM t WHERE v > -20 AND s LIKE '%a%') x \
     WHERE a % 3 = 1",
    // CASE / TRY-CAST / IN in projections over a filtered input.
    "SELECT v, CASE WHEN v % 2 = 0 THEN 'even' ELSE CAST(v AS VARCHAR) END AS tag, \
            CAST(s AS BIGINT) AS parsed \
     FROM t WHERE v IN (1, 2, 3, 5, 8, 13, 21, 34) OR f BETWEEN -1.0 AND 1.0",
    // Aggregation over computed group keys from a filtered selection.
    "SELECT v % 5 AS g, COUNT(*) AS n, SUM(f * 2.0 + v) AS s, MAX(UPPER(s)) AS mx \
     FROM t WHERE NOT (v BETWEEN -5 AND 5) GROUP BY v % 5",
    // Join on computed keys below a filter, aggregated above.
    "SELECT u.lab, COUNT(*) AS n, AVG(t.f) AS a \
     FROM t JOIN u ON t.v % 4 = u.k WHERE t.v > -50 GROUP BY u.lab",
    // Sort on an expression over a filtered projection.
    "SELECT v, f, v * v - f AS score FROM t WHERE s LIKE '_%' ORDER BY v * v - f DESC, v",
    // DISTINCT over computed columns under a filter chain.
    "SELECT DISTINCT v % 3 AS m, s LIKE 'a%' AS starts_a FROM t WHERE v + 2 > 0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn pipelines_bit_identical_at_any_parallelism_and_budget(
        rows in proptest::collection::vec(
            (-60i64..60, proptest::option::of(-60i64..60), 0usize..9),
            1..80,
        ),
        partition_rows in 1usize..20,
    ) {
        let wh = Warehouse::default();
        let schema = Arc::new(Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Text),
        ]));
        let batch = Batch::new(
            schema,
            vec![
                Column::from_ints(rows.iter().map(|(v, _, _)| *v).collect()),
                Column::from_opt_floats(
                    rows.iter().map(|(_, f, _)| f.map(|x| x as f64 / 3.0)).collect(),
                ),
                Column::from_texts(
                    rows.iter().map(|(_, _, s)| TEXT_POOL[*s].to_string()).collect(),
                ),
            ],
        )
        .unwrap();
        wh.load_table_partitioned("t", batch, partition_rows).unwrap();
        let dim = Batch::new(
            Arc::new(Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("lab", DataType::Text),
            ])),
            vec![
                Column::from_ints((-3..4).collect()),
                Column::from_texts((-3..4).map(|i| format!("l{i}")).collect()),
            ],
        )
        .unwrap();
        wh.load_table("u", dim).unwrap();

        for sql in PIPELINES {
            let mut oracle: Option<Batch> = None;
            for parallelism in [1usize, 4] {
                for budget in [None, Some(1usize)] {
                    wh.set_parallelism(parallelism);
                    wh.set_memory_budget(budget);
                    let got = wh.execute_sql(sql).unwrap().batch;
                    match &oracle {
                        None => oracle = Some(got),
                        Some(oracle) => assert_batch_bit_identical(
                            oracle,
                            &got,
                            &format!("{sql} @ p={parallelism} budget={budget:?}"),
                        ),
                    }
                }
            }
        }
    }
}
