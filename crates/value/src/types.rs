//! Scalar types: [`DataType`], [`Value`], and the [`ReturnType`] rules of
//! scalar functions.
//!
//! Dates are stored as days since 1970-01-01 (proleptic Gregorian);
//! timestamps as microseconds since the epoch. Both match the encodings the
//! warehouses supported by Sigma expose to clients.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::calendar;

/// Logical type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    /// Days since 1970-01-01.
    Date,
    /// Microseconds since 1970-01-01T00:00:00.
    Timestamp,
}

impl DataType {
    /// Name used in SQL type syntax and error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Text => "VARCHAR",
            DataType::Date => "DATE",
            DataType::Timestamp => "TIMESTAMP",
        }
    }

    /// True for `Int` and `Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// True for `Date` and `Timestamp`.
    pub fn is_temporal(self) -> bool {
        matches!(self, DataType::Date | DataType::Timestamp)
    }

    /// The common supertype used for arithmetic/comparison coercion, if any.
    ///
    /// Int and Float unify to Float; equal types unify to themselves; Date
    /// and Timestamp unify to Timestamp. Everything else is incompatible.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            (Date, Timestamp) | (Timestamp, Date) => Some(Timestamp),
            _ => None,
        }
    }

    /// Parse a SQL type name (case-insensitive), accepting the aliases the
    /// supported dialects use.
    pub fn parse_sql(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => Some(DataType::Bool),
            "BIGINT" | "INT" | "INTEGER" | "SMALLINT" | "INT64" | "NUMBER" => Some(DataType::Int),
            "DOUBLE" | "FLOAT" | "FLOAT8" | "FLOAT64" | "REAL" | "DOUBLE PRECISION" => {
                Some(DataType::Float)
            }
            "VARCHAR" | "TEXT" | "STRING" | "CHAR" => Some(DataType::Text),
            "DATE" => Some(DataType::Date),
            "TIMESTAMP" | "DATETIME" | "TIMESTAMP_NTZ" => Some(DataType::Timestamp),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a scalar function's result type follows from its argument types.
/// The formula registry and the warehouse each keep one table of
/// functions, and both spell each function's result in this vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnType {
    /// Always this type.
    Fixed(DataType),
    /// Argument `i`'s type, or the fallback when it is an untyped NULL.
    ArgOr(usize, DataType),
    /// The first argument's type.
    First,
    /// Int when every argument is Int, else Float.
    Widen,
    /// The common supertype of every argument.
    Unify,
}

impl ReturnType {
    /// The result type over these argument types (`None` = untyped NULL).
    /// `Unify` fails with the first pair of types that do not unify.
    pub fn resolve(
        self,
        args: &[Option<DataType>],
    ) -> Result<Option<DataType>, (DataType, DataType)> {
        Ok(match self {
            ReturnType::Fixed(t) => Some(t),
            ReturnType::ArgOr(i, t) => args.get(i).copied().flatten().or(Some(t)),
            ReturnType::First => args.first().copied().flatten(),
            ReturnType::Widen if args.iter().all(|&t| t == Some(DataType::Int)) => {
                Some(DataType::Int)
            }
            ReturnType::Widen => Some(DataType::Float),
            ReturnType::Unify => {
                let mut acc = None;
                for &t in args {
                    acc = match (acc, t) {
                        (None, t) | (t, None) => t,
                        (Some(x), Some(y)) => Some(x.unify(y).ok_or((x, y))?),
                    };
                }
                acc
            }
        })
    }
}

/// A single scalar value. `Null` is typeless and coerces to any column type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since the epoch.
    Timestamp(i64),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type, or `None` for `Null`.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Numeric view (Int or Float), if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Temporal view in microseconds since the epoch (dates at midnight).
    pub fn as_micros(&self) -> Option<i64> {
        match self {
            Value::Date(d) => Some(*d as i64 * calendar::MICROS_PER_DAY),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Render the value the way result grids and CSV exports do.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Value::Text(s) => s.clone(),
            Value::Date(d) => calendar::format_date(*d),
            Value::Timestamp(t) => calendar::format_timestamp(*t),
        }
    }

    /// Borrowed view of this value (text by reference, everything else
    /// by copy).
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Text(s) => ValueRef::Text(s),
            Value::Date(d) => ValueRef::Date(*d),
            Value::Timestamp(t) => ValueRef::Timestamp(*t),
        }
    }

    /// Total order over values used by ORDER BY and sort keys — see
    /// [`ValueRef::total_cmp`], the one definition.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(other.as_ref())
    }

    /// SQL equality (null-unaware; callers handle three-valued logic).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

/// A borrowed scalar: a [`Value`] that does not own its text. Row loops
/// read cells as `ValueRef`s ([`crate::Column::value_ref`]) so visiting a
/// row never allocates; only a value that must outlive its column is
/// turned into a [`Value`] ([`ValueRef::to_value`]).
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since the epoch.
    Timestamp(i64),
}

impl ValueRef<'_> {
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The value's type, or `None` for `Null`.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Bool(_) => Some(DataType::Bool),
            ValueRef::Int(_) => Some(DataType::Int),
            ValueRef::Float(_) => Some(DataType::Float),
            ValueRef::Text(_) => Some(DataType::Text),
            ValueRef::Date(_) => Some(DataType::Date),
            ValueRef::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Numeric view (Int or Float), if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(v) => Some(*v as f64),
            ValueRef::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(*v),
            ValueRef::Float(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Temporal view in microseconds since the epoch (dates at midnight).
    pub fn as_micros(&self) -> Option<i64> {
        match self {
            ValueRef::Date(d) => Some(*d as i64 * calendar::MICROS_PER_DAY),
            ValueRef::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// An owned copy (allocates for text).
    pub fn to_value(&self) -> Value {
        match *self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Date(d) => Value::Date(d),
            ValueRef::Timestamp(t) => Value::Timestamp(t),
        }
    }

    /// Total order over values used by ORDER BY and sort keys.
    ///
    /// Nulls sort first; mixed Int/Float compare numerically; mixed
    /// Date/Timestamp compare on the timeline; otherwise mismatched types
    /// order by type tag so the ordering is total (the planner prevents
    /// genuinely heterogeneous comparisons from reaching execution).
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Timestamp(a), Timestamp(b)) => a.cmp(&b),
            (Date(a), Timestamp(b)) => (a as i64 * calendar::MICROS_PER_DAY).cmp(&b),
            (Timestamp(a), Date(b)) => a.cmp(&(b as i64 * calendar::MICROS_PER_DAY)),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(v: ValueRef<'_>) -> u8 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Bool(_) => 1,
        ValueRef::Int(_) | ValueRef::Float(_) => 2,
        ValueRef::Text(_) => 3,
        ValueRef::Date(_) | ValueRef::Timestamp(_) => 4,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            f.write_str("NULL")
        } else {
            f.write_str(&self.render())
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_rules() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Float.unify(DataType::Int), Some(DataType::Float));
        assert_eq!(DataType::Int.unify(DataType::Int), Some(DataType::Int));
        assert_eq!(
            DataType::Date.unify(DataType::Timestamp),
            Some(DataType::Timestamp)
        );
        assert_eq!(DataType::Text.unify(DataType::Int), None);
    }

    #[test]
    fn total_cmp_nulls_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(1)), Ordering::Less);
        assert_eq!(Value::Int(1).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn total_cmp_numeric_mixed() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn date_timestamp_on_timeline() {
        let d = Value::Date(1); // 1970-01-02
        let t = Value::Timestamp(calendar::MICROS_PER_DAY); // same instant
        assert_eq!(d.total_cmp(&t), Ordering::Equal);
        let later = Value::Timestamp(calendar::MICROS_PER_DAY + 1);
        assert_eq!(d.total_cmp(&later), Ordering::Less);
    }

    #[test]
    fn render_float_trailing() {
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Int(7).render(), "7");
    }

    #[test]
    fn parse_sql_aliases() {
        assert_eq!(DataType::parse_sql("int64"), Some(DataType::Int));
        assert_eq!(DataType::parse_sql("STRING"), Some(DataType::Text));
        assert_eq!(DataType::parse_sql("bogus"), None);
    }
}
