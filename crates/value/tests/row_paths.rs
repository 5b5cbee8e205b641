//! Property pins for the allocation-free row paths of `sigma_value`:
//!
//! * **(a) flat Text storage** behaves like the `Vec<String>` it
//!   replaced: a model of `(payload, valid)` pairs is pushed through
//!   random chains of `take` / `take_opt` / `slice` / `concat` / builder
//!   / codec round trips — empty strings, multi-byte UTF-8 and non-empty
//!   payloads in null slots included — and the column must agree with the
//!   model after every step.
//! * **(b) the typed comparator** ([`RowOrder`]) orders exactly like
//!   `Value::total_cmp` under every `SortKey` (direction × null
//!   placement), NaN and ±0.0 included, and sorts stably.
//! * **(c) the key index** ([`KeyIndex`]) calls two rows the same key
//!   exactly when `encode_key` gives them the same bytes — across
//!   Int/Float and Date/Timestamp column pairs and multi-column keys — and
//!   numbers keys in first-seen order.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sigma_value::calendar::MICROS_PER_DAY;
use sigma_value::hash::{encode_key, KeyCols, KeyIndex};
use sigma_value::sort::{compare_rows_pair, sort_indices, RowOrder, SortKey};
use sigma_value::{codec, Batch, Column, ColumnBuilder, DataType, Field, Schema, Value};

/// Tiny deterministic generator so one `u64` seed yields a full case.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

// ---------------------------------------------------------------------
// (a) flat Text column ≡ Vec<(payload, valid)> model
// ---------------------------------------------------------------------

const TEXTS: &[&str] = &[
    "",
    "a",
    "ab",
    "héllo wörld — ünïcodé ☃",
    "日本語テキスト",
    "🙂",
    "a somewhat longer string that is not tiny at all, to move the offsets",
];

/// What a Text column physically holds, row by row.
type Model = Vec<(String, bool)>;

/// Null slots keep a random payload: only the codec has to preserve it,
/// but nothing may trip over it.
fn random_model(rng: &mut Lcg, rows: usize) -> Model {
    (0..rows)
        .map(|_| (TEXTS[rng.pick(TEXTS.len())].to_string(), rng.pick(4) != 0))
        .collect()
}

fn column_of(model: &Model) -> Column {
    Column::new_text(
        model.iter().map(|(s, _)| s.clone()).collect(),
        Some(model.iter().map(|&(_, ok)| ok).collect()),
    )
}

/// `normalized`: every constructor but the codec drops an all-true mask.
fn assert_matches(col: &Column, model: &Model, normalized: bool, what: &str) {
    assert_eq!(col.dtype(), DataType::Text, "{what}");
    assert_eq!(col.len(), model.len(), "{what}");
    let texts = col.texts().expect("text column");
    assert_eq!(texts.len(), model.len(), "{what}");
    assert_eq!(texts.is_empty(), model.is_empty(), "{what}");
    for (i, (payload, valid)) in model.iter().enumerate() {
        assert_eq!(col.is_null(i), !valid, "{what}: null-ness at {i}");
        assert_eq!(texts.get(i), payload, "{what}: payload at {i}");
        assert_eq!(&texts[i], payload.as_str(), "{what}: index at {i}");
        let want = if *valid {
            Value::Text(payload.clone())
        } else {
            Value::Null
        };
        assert_eq!(col.value(i), want, "{what}: value at {i}");
        assert_eq!(
            col.value_ref(i).to_value(),
            want,
            "{what}: value_ref at {i}"
        );
    }
    assert!(
        texts.iter().eq(model.iter().map(|(s, _)| s.as_str())),
        "{what}"
    );
    let all_valid = model.iter().all(|&(_, ok)| ok);
    if normalized {
        assert_eq!(col.validity().is_none(), all_valid, "{what}: mask presence");
    }
    let bytes: usize = model.iter().map(|(s, _)| s.len()).sum();
    let mask = col.validity().map_or(0, <[bool]>::len);
    assert_eq!(
        col.byte_size(),
        Column::FIXED_BYTES + bytes + Column::TEXT_OFFSET_BYTES * (model.len() + 1) + mask,
        "{what}: byte_size"
    );
    if normalized {
        assert_eq!(col, &column_of(model), "{what}: equals a fresh build");
    }
}

fn text_batch(col: Column) -> Batch {
    let schema = Schema::new(vec![Field::new("t", DataType::Text)]);
    Batch::new(Arc::new(schema), vec![col]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]
    #[test]
    fn flat_text_column_matches_string_vector_model(
        rows in 0usize..24,
        steps in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let mut model = random_model(&mut rng, rows);
        let mut col = column_of(&model);
        assert_matches(&col, &model, true, "initial");
        for step in 0..steps {
            let n = model.len();
            let op = rng.pick(6);
            let mut normalized = true;
            match op {
                0 if n > 0 => {
                    let idx: Vec<usize> = (0..rng.pick(2 * n + 1)).map(|_| rng.pick(n)).collect();
                    col = col.take(&idx);
                    model = idx.iter().map(|&i| model[i].clone()).collect();
                }
                1 => {
                    let idx: Vec<Option<usize>> = (0..rng.pick(2 * n + 2))
                        .map(|_| (n > 0 && rng.pick(3) != 0).then(|| rng.pick(n)))
                        .collect();
                    col = col.take_opt(&idx);
                    model = idx
                        .iter()
                        .map(|ix| ix.map_or((String::new(), false), |i| model[i].clone()))
                        .collect();
                }
                2 => {
                    let offset = rng.pick(n + 1);
                    let len = rng.pick(n - offset + 1);
                    col = col.slice(offset, len);
                    model = model[offset..offset + len].to_vec();
                }
                3 => {
                    // Concat rewrites null slots to the builder default.
                    let extra = rng.pick(6);
                    let other = random_model(&mut rng, extra);
                    let other_col = column_of(&other);
                    col = Column::concat(&[&col, &other_col, &col]).unwrap();
                    let blank = |m: &Model| -> Model {
                        m.iter()
                            .map(|(s, ok)| (if *ok { s.clone() } else { String::new() }, *ok))
                            .collect()
                    };
                    model = [blank(&model), blank(&other), blank(&model)].concat();
                }
                4 => {
                    // Row by row through a builder, all three text pushes.
                    let mut b = ColumnBuilder::new(DataType::Text, 0);
                    for (i, (payload, valid)) in model.iter().enumerate() {
                        match (valid, rng.pick(3)) {
                            (false, _) => b.push_null(),
                            (true, 0) => b.push_ref(col.value_ref(i)).unwrap(),
                            (true, 1) => b.push_str(payload).unwrap(),
                            (true, _) => {
                                let mid = (0..=payload.len() / 2)
                                    .rev()
                                    .find(|&m| payload.is_char_boundary(m))
                                    .unwrap_or(0);
                                let (head, tail) = payload.split_at(mid);
                                b.push_str_with(|buf| {
                                    buf.push_str(head);
                                    buf.push_str(tail);
                                    true
                                })
                                .unwrap()
                            }
                        }
                    }
                    // A row the callback rejects is NULL and leaves no bytes.
                    b.push_str_with(|buf| {
                        buf.push_str("discarded");
                        false
                    })
                    .unwrap();
                    col = b.finish();
                    for row in &mut model {
                        if !row.1 {
                            row.0.clear();
                        }
                    }
                    model.push((String::new(), false));
                }
                _ => {
                    // The codec keeps physical storage verbatim: null-slot
                    // payloads and an all-true mask survive.
                    let batch = text_batch(col.clone());
                    let bytes = codec::encode_batch(&batch);
                    let back = codec::decode_batch(&bytes).unwrap();
                    prop_assert_eq!(&back, &batch);
                    prop_assert_eq!(codec::encode_batch(&back), bytes);
                    col = back.column(0).clone();
                    normalized = false;
                }
            }
            assert_matches(&col, &model, normalized, &format!("step {step} op {op}"));
        }
    }
}

// ---------------------------------------------------------------------
// (b) typed comparator ≡ Value::total_cmp
// ---------------------------------------------------------------------

const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -1.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    1e300,
];

fn random_value(dtype: DataType, rng: &mut Lcg) -> Value {
    match dtype {
        DataType::Bool => Value::Bool(rng.pick(2) == 0),
        DataType::Int => Value::Int([i64::MIN, -1, 0, 1, 2, i64::MAX][rng.pick(6)]),
        DataType::Float => Value::Float(FLOATS[rng.pick(FLOATS.len())]),
        DataType::Text => Value::Text(TEXTS[rng.pick(TEXTS.len())].to_string()),
        DataType::Date => Value::Date([-1, 0, 1, 19_000][rng.pick(4)]),
        DataType::Timestamp => {
            Value::Timestamp([-1, 0, 1, MICROS_PER_DAY, 19_000 * MICROS_PER_DAY][rng.pick(5)])
        }
    }
}

fn random_column(dtype: DataType, rows: usize, rng: &mut Lcg) -> Column {
    let mut b = ColumnBuilder::new(dtype, rows);
    for _ in 0..rows {
        if rng.pick(4) == 0 {
            b.push_null();
        } else {
            b.push(random_value(dtype, rng)).unwrap();
        }
    }
    b.finish()
}

const DTYPES: [DataType; 6] = [
    DataType::Bool,
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Date,
    DataType::Timestamp,
];

/// The comparator the typed one replaced: boxed values, `total_cmp`.
fn reference_cmp(
    a_cols: &[&Column],
    a: usize,
    b_cols: &[&Column],
    b: usize,
    keys: &[SortKey],
) -> Ordering {
    for ((ac, bc), key) in a_cols.iter().zip(b_cols).zip(keys) {
        let (av, bv) = (ac.value(a), bc.value(b));
        let ord = match (av.is_null(), bv.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) if key.nulls_last => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, true) if key.nulls_last => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) if key.descending => av.total_cmp(&bv).reverse(),
            (false, false) => av.total_cmp(&bv),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]
    #[test]
    fn typed_comparator_matches_value_total_cmp(
        key_tags in proptest::collection::vec((0usize..6, 0usize..4, 0usize..8), 1..4),
        rows in 1usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let mut keys = Vec::new();
        let (mut a_cols, mut b_cols) = (Vec::new(), Vec::new());
        for &(tag, flags, mixed) in &key_tags {
            keys.push(SortKey { descending: flags & 1 != 0, nulls_last: flags & 2 != 0 });
            let dtype = DTYPES[tag];
            a_cols.push(random_column(dtype, rows, &mut rng));
            // Mostly type-aligned (the planner's contract); now and then a
            // differently typed second set, which must stay total too.
            let other = if mixed == 0 { DTYPES[rng.pick(6)] } else { dtype };
            b_cols.push(random_column(other, rows, &mut rng));
        }
        let a_refs: Vec<&Column> = a_cols.iter().collect();
        let b_refs: Vec<&Column> = b_cols.iter().collect();
        let pair = RowOrder::pair(&a_refs, &b_refs, &keys);
        let own = RowOrder::new(&a_refs, &keys);
        for a in 0..rows {
            for b in 0..rows {
                let want = reference_cmp(&a_refs, a, &b_refs, b, &keys);
                prop_assert_eq!(pair.compare(a, b), want);
                prop_assert_eq!(compare_rows_pair(&a_refs, a, &b_refs, b, &keys), want);
                prop_assert_eq!(own.compare(a, b), reference_cmp(&a_refs, a, &a_refs, b, &keys));
            }
        }
        // Stable sort: the reference comparator with a row-id tiebreak.
        let mut want: Vec<usize> = (0..rows).collect();
        want.sort_by(|&x, &y| reference_cmp(&a_refs, x, &a_refs, y, &keys).then(x.cmp(&y)));
        prop_assert_eq!(sort_indices(&a_refs, &keys), want);
    }
}

// ---------------------------------------------------------------------
// (c) key-index equality ≡ encode_key byte equality
// ---------------------------------------------------------------------

/// A key column of one "family", typed one of two ways so equal keys meet
/// across types (2 ≡ 2.0, a date ≡ its midnight timestamp).
fn family_column(family: usize, alt: bool, rows: usize, rng: &mut Lcg) -> Column {
    let dtype = match (family % 4, alt) {
        (0, false) => DataType::Int,
        (0, true) => DataType::Float,
        (1, false) => DataType::Date,
        (1, true) => DataType::Timestamp,
        (2, _) => DataType::Text,
        _ => DataType::Bool,
    };
    let mut b = ColumnBuilder::new(dtype, rows);
    for _ in 0..rows {
        let v = match (dtype, rng.pick(6)) {
            (_, 0) => Value::Null,
            (DataType::Int, k) => Value::Int(k as i64 - 3),
            (DataType::Float, k) => Value::Float([-2.0, -0.0, 0.0, 2.0, f64::NAN, -f64::NAN][k]),
            (DataType::Date, k) => Value::Date(k as i32 - 3),
            (DataType::Timestamp, k) => {
                Value::Timestamp((k as i64 - 3) * MICROS_PER_DAY + (k as i64 % 2))
            }
            (DataType::Text, k) => Value::Text(["", "a", "ab", "b", "bc", "c"][k].to_string()),
            (_, k) => Value::Bool(k % 2 == 0),
        };
        b.push(v).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]
    #[test]
    fn key_index_equality_is_encode_key_byte_equality(
        families in proptest::collection::vec(0usize..4, 1..4),
        rows in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        // Two column sets over the same key families, typed differently —
        // a join's build and probe sides.
        let sets: Vec<Vec<Column>> = [false, true]
            .iter()
            .map(|&alt| families.iter().map(|&f| family_column(f, alt, rows, &mut rng)).collect())
            .collect();
        let mut index = KeyIndex::new();
        let mut model: HashMap<Vec<u8>, usize> = HashMap::new();
        for set in &sets {
            let refs: Vec<&Column> = set.iter().collect();
            let keys = KeyCols::new(&refs);
            for row in 0..rows {
                let mut bytes = Vec::new();
                encode_key(&refs, row, &mut bytes);
                let mut fast = Vec::new();
                keys.encode(row, &mut fast);
                prop_assert_eq!(&fast, &bytes);
                prop_assert_eq!(keys.any_null(row), refs.iter().any(|c| c.is_null(row)));
                // First-seen ids, exactly the byte-keyed table's.
                let known = model.get(&bytes).copied();
                prop_assert_eq!(index.find(&bytes), known);
                let next = model.len();
                let want = *model.entry(bytes.clone()).or_insert(next);
                prop_assert_eq!(index.intern_row(&keys, row), (want, known.is_none()));
                prop_assert_eq!(index.intern(&bytes), (want, false));
                prop_assert_eq!(index.key(want), bytes.as_slice());
            }
        }
        prop_assert_eq!(index.len(), model.len());
        prop_assert_eq!(index.keys().count(), model.len());
    }
}

/// The cases the key contract names one by one.
#[test]
fn key_equality_contract() {
    let id_of = |index: &mut KeyIndex, cols: &[Column], row: usize| {
        let refs: Vec<&Column> = cols.iter().collect();
        index.intern_row(&KeyCols::new(&refs), row).0
    };
    let mut index = KeyIndex::new();
    // Int(2) ≡ Float(2.0); one NaN; -0.0 ≡ 0.0.
    let ints = [Column::from_ints(vec![2, 0])];
    let floats = [Column::from_floats(vec![
        2.0,
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        2.5,
    ])];
    assert_eq!(id_of(&mut index, &ints, 0), id_of(&mut index, &floats, 0));
    assert_eq!(id_of(&mut index, &ints, 1), id_of(&mut index, &floats, 1));
    assert_eq!(id_of(&mut index, &floats, 1), id_of(&mut index, &floats, 2));
    assert_eq!(id_of(&mut index, &floats, 3), id_of(&mut index, &floats, 4));
    assert_ne!(id_of(&mut index, &ints, 0), id_of(&mut index, &floats, 5));
    // Date ≡ Timestamp of the same instant, and only that instant.
    let dates = [Column::from_dates(vec![3])];
    let stamps = [Column::from_timestamps(vec![
        3 * MICROS_PER_DAY,
        3 * MICROS_PER_DAY + 1,
    ])];
    assert_eq!(id_of(&mut index, &dates, 0), id_of(&mut index, &stamps, 0));
    assert_ne!(id_of(&mut index, &dates, 0), id_of(&mut index, &stamps, 1));
    // ("ab", "c") is not ("a", "bc").
    let pairs = [
        Column::from_texts(vec!["ab".into(), "a".into()]),
        Column::from_texts(vec!["c".into(), "bc".into()]),
    ];
    assert_ne!(id_of(&mut index, &pairs, 0), id_of(&mut index, &pairs, 1));
    // NULL is a key (group-by); a number is not the text that spells it.
    let nulls = [Column::from_opt_ints(vec![None, None])];
    assert_eq!(id_of(&mut index, &nulls, 0), id_of(&mut index, &nulls, 1));
    let twos = [Column::from_texts(vec!["2".into()])];
    assert_ne!(id_of(&mut index, &twos, 0), id_of(&mut index, &ints, 0));
}
