//! Selection kernels: predicates that say which rows are TRUE without
//! building a Bool column.
//!
//! [`CompiledExpr::select`](super::CompiledExpr::select) applies an `AND`
//! of Float / Date column-vs-literal comparisons as [`Step`]s: one
//! monomorphic loop per
//! conjunct that reads the column at original row ids (no gather) and
//! compacts a buffer of those ids in place, keeping the rows that pass.
//! [`narrow`] fuses the steps into one pass over the selection, [`CHUNK`]
//! ids at a time, so the ids one conjunct keeps are still in cache when
//! the next reads them.
//!
//! Every step keeps exactly the TRUE rows of the column comparison kernel
//! in [`super::kernels`] for the same operands — `total_cmp` for floats,
//! an Int literal widened to `f64` against a Float column — and NULL is
//! never TRUE. A type pair a step does not cover yields `None`, and the
//! caller evaluates the predicate instead.

use sigma_value::{Column, DataType, Value};
use std::cmp::Ordering;

use super::kernels::{accepted, accepts};
use super::BinOp;

/// One conjunct as a selection step: compacts the row ids in the buffer
/// to those whose row passes, in order, and returns how many remain.
pub(crate) type Step<'a> = Box<dyn Fn(&mut [usize]) -> usize + 'a>;

/// Row ids carried through a run of steps at a time.
const CHUNK: usize = 1024;

/// The ids of `sel` (of `0..n` when `None`) whose row passes every step,
/// in selection order. Each chunk of ids runs through the steps in turn,
/// each step reading only the ids the steps before it kept.
pub(crate) fn narrow(sel: Option<&[usize]>, n: usize, steps: &[Step]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut buf = [0usize; CHUNK];
    let mut run = |ids: &mut [usize]| {
        let mut kept = ids.len();
        for step in steps {
            if kept == 0 {
                break;
            }
            kept = step(&mut ids[..kept]);
        }
        out.extend_from_slice(&ids[..kept]);
    };
    match sel {
        None => {
            for start in (0..n).step_by(CHUNK) {
                let ids = &mut buf[..(n - start).min(CHUNK)];
                for (j, id) in ids.iter_mut().enumerate() {
                    *id = start + j;
                }
                run(ids);
            }
        }
        Some(sel) => {
            for chunk in sel.chunks(CHUNK) {
                let ids = &mut buf[..chunk.len()];
                ids.copy_from_slice(chunk);
                run(ids);
            }
        }
    }
    out
}

/// A step keeping the ids whose row is valid (when the column has a
/// validity bitmap) and passes `keep`. Every id is written back and the
/// write position advances only past a kept one, so no branch depends on
/// the data.
fn keep_valid<'a>(valid: Option<&'a [bool]>, keep: impl Fn(usize) -> bool + 'a) -> Step<'a> {
    fn compact(ids: &mut [usize], keep: impl Fn(usize) -> bool) -> usize {
        let mut kept = 0;
        for j in 0..ids.len() {
            let row = ids[j];
            ids[kept] = row;
            kept += keep(row) as usize;
        }
        kept
    }
    match valid {
        None => Box::new(move |ids: &mut [usize]| compact(ids, &keep)),
        Some(m) => Box::new(move |ids: &mut [usize]| compact(ids, |i| m[i] & keep(i))),
    }
}

/// The order the column kernels compare a cell type by: `total_cmp` for
/// floats (NaN and ±0.0 included), `Ord` for days.
trait Compare: Copy {
    fn compare(self, other: Self) -> Ordering;
}

impl Compare for f64 {
    #[inline]
    fn compare(self, other: f64) -> Ordering {
        self.total_cmp(&other)
    }
}

impl Compare for i32 {
    #[inline]
    fn compare(self, other: i32) -> Ordering {
        self.cmp(&other)
    }
}

/// `col <op> lit`, or `lit <op> col` when `lit_first`, for a Float column
/// against a numeric literal (an Int one widened to `f64`, as the numeric
/// kernel widens it) or a Date column against a Date literal — the
/// thresholds and date ranges of worksheet range filters.
pub(crate) fn compare<'a>(
    op: BinOp,
    col: &'a Column,
    lit: &Value,
    lit_first: bool,
) -> Option<Step<'a>> {
    let want = accepts(op);
    // `lit < col` iff `col > lit`: swap the Less and Greater bits.
    let want = if lit_first {
        (want & 0b010) | (want & 0b001) << 2 | want >> 2
    } else {
        want
    };
    let valid = col.validity();
    macro_rules! step {
        ($cells:expr, $lit:expr) => {{
            let (cells, lit) = ($cells, $lit);
            Some(keep_valid(valid, move |i| {
                accepted(want, cells[i].compare(lit))
            }))
        }};
    }
    use DataType as T;
    match (col.dtype(), lit) {
        (T::Float, Value::Int(_) | Value::Float(_)) => step!(col.floats()?, lit.as_f64()?),
        (T::Date, Value::Date(d)) => step!(col.dates()?, *d),
        _ => None,
    }
}
