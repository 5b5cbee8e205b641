//! Multi-key row ordering: [`SortKey`]s, the typed [`RowOrder`]
//! comparator, and stable sort-index computation.
//!
//! A sort makes O(n log n) comparisons, so the comparator is resolved
//! **once** per sort: each key column becomes a typed slice pair and a
//! comparison is a slice read plus a primitive (or `&str`) compare. The
//! order is exactly [`crate::types::ValueRef::total_cmp`] per key with the
//! key's direction and null placement applied — `tests/row_paths.rs` pins
//! the equivalence.

use std::cmp::Ordering;

use crate::column::{Column, Texts};

/// One ORDER BY key: the column to sort by and its direction/null placement.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    pub descending: bool,
    /// When true, nulls sort after all values regardless of direction.
    pub nulls_last: bool,
}

impl SortKey {
    pub fn asc() -> SortKey {
        SortKey {
            descending: false,
            nulls_last: false,
        }
    }
    pub fn desc() -> SortKey {
        SortKey {
            descending: true,
            nulls_last: false,
        }
    }
}

/// One key column pair resolved to typed slices: comparing two rows is a
/// slice read and a primitive compare, with no [`crate::Value`] (and no
/// text copy) per comparison. Orders exactly like
/// [`crate::types::ValueRef::total_cmp`] — `f64::total_cmp` for floats,
/// byte order for text.
enum TypedCols<'a> {
    Bool(&'a [bool], &'a [bool]),
    Int(&'a [i64], &'a [i64]),
    Float(&'a [f64], &'a [f64]),
    Text(Texts<'a>, Texts<'a>),
    Date(&'a [i32], &'a [i32]),
    Timestamp(&'a [i64], &'a [i64]),
    /// Differently typed sides (never planned; kept total).
    Mixed(&'a Column, &'a Column),
}

struct KeyCmp<'a> {
    cols: TypedCols<'a>,
    a_valid: Option<&'a [bool]>,
    b_valid: Option<&'a [bool]>,
    key: SortKey,
}

impl<'a> KeyCmp<'a> {
    fn new(a: &'a Column, b: &'a Column, key: SortKey) -> KeyCmp<'a> {
        let cols = if let (Some(x), Some(y)) = (a.ints(), b.ints()) {
            TypedCols::Int(x, y)
        } else if let (Some(x), Some(y)) = (a.floats(), b.floats()) {
            TypedCols::Float(x, y)
        } else if let (Some(x), Some(y)) = (a.texts(), b.texts()) {
            TypedCols::Text(x, y)
        } else if let (Some(x), Some(y)) = (a.dates(), b.dates()) {
            TypedCols::Date(x, y)
        } else if let (Some(x), Some(y)) = (a.timestamps(), b.timestamps()) {
            TypedCols::Timestamp(x, y)
        } else if let (Some(x), Some(y)) = (a.bools(), b.bools()) {
            TypedCols::Bool(x, y)
        } else {
            TypedCols::Mixed(a, b)
        };
        KeyCmp {
            cols,
            a_valid: a.validity(),
            b_valid: b.validity(),
            key,
        }
    }

    #[inline]
    fn compare(&self, a: usize, b: usize) -> Ordering {
        let an = self.a_valid.is_some_and(|m| !m[a]);
        let bn = self.b_valid.is_some_and(|m| !m[b]);
        let null_side = |null_is_a: bool| {
            if null_is_a == self.key.nulls_last {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        };
        match (an, bn) {
            (true, true) => Ordering::Equal,
            (true, false) => null_side(true),
            (false, true) => null_side(false),
            (false, false) => {
                let ord = match &self.cols {
                    TypedCols::Bool(x, y) => x[a].cmp(&y[b]),
                    TypedCols::Int(x, y) => x[a].cmp(&y[b]),
                    TypedCols::Float(x, y) => x[a].total_cmp(&y[b]),
                    TypedCols::Text(x, y) => x.get(a).cmp(y.get(b)),
                    TypedCols::Date(x, y) => x[a].cmp(&y[b]),
                    TypedCols::Timestamp(x, y) => x[a].cmp(&y[b]),
                    TypedCols::Mixed(x, y) => x.value_ref(a).total_cmp(y.value_ref(b)),
                };
                if self.key.descending {
                    ord.reverse()
                } else {
                    ord
                }
            }
        }
    }
}

/// A multi-key row order resolved once against its key columns — build
/// one per sort (or merge, or peer scan), then compare any number of row
/// pairs. `a` rows index the first column set, `b` rows the second;
/// [`RowOrder::new`] uses one set for both.
pub struct RowOrder<'a> {
    keys: Vec<KeyCmp<'a>>,
}

impl<'a> RowOrder<'a> {
    /// Order over the rows of one column set.
    pub fn new(columns: &[&'a Column], keys: &[SortKey]) -> RowOrder<'a> {
        RowOrder::pair(columns, columns, keys)
    }

    /// Order of rows of `a_cols` against rows of a *different*,
    /// type-aligned column set — the k-way merge comparator of the
    /// external sort, where each run's keys live in that run's own
    /// spilled page.
    pub fn pair(a_cols: &[&'a Column], b_cols: &[&'a Column], keys: &[SortKey]) -> RowOrder<'a> {
        assert_eq!(a_cols.len(), keys.len());
        assert_eq!(b_cols.len(), keys.len());
        RowOrder {
            keys: a_cols
                .iter()
                .zip(b_cols)
                .zip(keys)
                .map(|((a, b), key)| KeyCmp::new(a, b, *key))
                .collect(),
        }
    }

    /// Compare row `a` (first set) with row `b` (second set).
    #[inline]
    pub fn compare(&self, a: usize, b: usize) -> Ordering {
        for key in &self.keys {
            let ord = key.compare(a, b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Stably sort row indices by this order (sort runs, window
    /// partitions).
    pub fn sort(&self, rows: &mut [usize]) {
        rows.sort_by(|&a, &b| self.compare(a, b));
    }
}

/// Compare row `a` of one column set against row `b` of another — see
/// [`RowOrder::pair`]. The one-off form (allocation-free, but it
/// re-resolves the column types on every call); loops build a
/// [`RowOrder`] once.
pub fn compare_rows_pair(
    a_cols: &[&Column],
    a: usize,
    b_cols: &[&Column],
    b: usize,
    keys: &[SortKey],
) -> Ordering {
    for ((acol, bcol), key) in a_cols.iter().zip(b_cols).zip(keys) {
        let ord = KeyCmp::new(acol, bcol, *key).compare(a, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable sort: returns row indices in sorted order.
pub fn sort_indices(columns: &[&Column], keys: &[SortKey]) -> Vec<usize> {
    let rows = columns.first().map_or(0, |c| c.len());
    let mut idx: Vec<usize> = (0..rows).collect();
    RowOrder::new(columns, keys).sort(&mut idx);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    #[test]
    fn single_key_asc_nulls_first() {
        let col = Column::from_opt_ints(vec![Some(3), None, Some(1)]);
        let idx = sort_indices(&[&col], &[SortKey::asc()]);
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn desc_with_nulls_last() {
        let col = Column::from_opt_ints(vec![Some(3), None, Some(1)]);
        let key = SortKey {
            descending: true,
            nulls_last: true,
        };
        let idx = sort_indices(&[&col], &[key]);
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn multi_key_stability() {
        let a = Column::from_ints(vec![1, 1, 0, 0]);
        let b = Column::from_texts(vec!["z".into(), "a".into(), "z".into(), "a".into()]);
        let idx = sort_indices(&[&a, &b], &[SortKey::asc(), SortKey::asc()]);
        assert_eq!(idx, vec![3, 2, 1, 0]);
        // Stability: equal keys keep input order.
        let c = Column::from_ints(vec![7, 7, 7]);
        let idx = sort_indices(&[&c], &[SortKey::asc()]);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn pairwise_compare_across_column_sets() {
        let a = Column::from_opt_ints(vec![Some(5), None]);
        let b = Column::from_opt_ints(vec![Some(7), None]);
        let keys = [SortKey::asc()];
        assert_eq!(compare_rows_pair(&[&a], 0, &[&b], 0, &keys), Ordering::Less);
        assert_eq!(
            compare_rows_pair(&[&b], 0, &[&a], 0, &keys),
            Ordering::Greater
        );
        // Nulls compare across sets under the same placement rule.
        assert_eq!(compare_rows_pair(&[&a], 1, &[&b], 0, &keys), Ordering::Less);
        assert_eq!(
            compare_rows_pair(&[&a], 1, &[&b], 1, &keys),
            Ordering::Equal
        );
    }

    #[test]
    fn mixed_numeric_ordering() {
        let col = Column::from_values(
            crate::types::DataType::Float,
            &[Value::Float(2.5), Value::Float(1.0), Value::Float(10.0)],
        )
        .unwrap();
        let idx = sort_indices(&[&col], &[SortKey::asc()]);
        assert_eq!(idx, vec![1, 0, 2]);
    }
}
