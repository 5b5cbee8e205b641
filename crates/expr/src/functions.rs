//! The function registry: every function the formula language supports,
//! with its category (single-row, aggregate, window, special — paper §3.1)
//! and arity. A scalar row whose rule fits one line also carries its
//! argument kinds, result type and SQL; [`crate::typecheck`] spells out
//! the rest.

use sigma_value::DataType as T;
use sigma_value::ReturnType::{self, ArgOr, First, Fixed, Unify, Widen};

/// Function category. The compiler keys lowering decisions on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Single-row (scalar) function.
    Scalar,
    /// Aggregate over the rows of the next finer grouping level.
    Aggregate,
    /// Window function over the rows of the enclosing partition.
    Window,
    /// `Lookup` / `Rollup`: ad-hoc joins against another element (§3.2).
    Special,
}

/// What one argument position accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    Any,
    Num,
    Text,
    /// A date or a timestamp.
    Temporal,
    /// A string literal naming a date unit, like `"quarter"`.
    Unit,
}

/// A scalar's type rule: the argument kinds and the result type.
#[derive(Debug, Clone, Copy)]
pub struct Signature {
    /// One kind per position; the last one also covers every later
    /// position, and an empty list accepts anything.
    pub args: &'static [Arg],
    pub ret: ReturnType,
}

impl Signature {
    /// The kind argument `i` must have.
    pub fn arg(&self, i: usize) -> Arg {
        self.args
            .get(i)
            .or(self.args.last())
            .copied()
            .unwrap_or(Arg::Any)
    }
}

/// A scalar's SQL when it is one call over its lowered arguments (a
/// [`Arg::Unit`] argument lowers to its lower-cased literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sql {
    /// `NAME(args...)`.
    Call(&'static str),
    /// `DATE_PART('unit', arg)`.
    Part(&'static str),
}

impl Sql {
    /// The SQL function called.
    pub fn name(self) -> &'static str {
        match self {
            Sql::Call(name) => name,
            Sql::Part(_) => "DATE_PART",
        }
    }
}

/// Registry entry for one function.
#[derive(Debug, Clone, Copy)]
pub struct FunctionDef {
    /// Canonical casing, as printed in formulas.
    pub name: &'static str,
    pub kind: FunctionKind,
    pub min_args: usize,
    /// `None` means variadic.
    pub max_args: Option<usize>,
    /// One-line description surfaced in docs and error messages.
    pub doc: &'static str,
    /// The type rule, when one row expresses it.
    pub sig: Option<Signature>,
    /// The SQL, when it is one call.
    pub sql: Option<Sql>,
}

const fn f(
    name: &'static str,
    kind: FunctionKind,
    min_args: usize,
    max_args: Option<usize>,
    doc: &'static str,
) -> FunctionDef {
    FunctionDef {
        name,
        kind,
        min_args,
        max_args,
        doc,
        sig: None,
        sql: None,
    }
}

/// A scalar with a one-row type rule and, unless `sql` is `None`, a
/// one-call lowering.
const fn s(
    name: &'static str,
    min_args: usize,
    max_args: Option<usize>,
    args: &'static [Arg],
    ret: ReturnType,
    sql: Option<Sql>,
    doc: &'static str,
) -> FunctionDef {
    FunctionDef {
        sig: Some(Signature { args, ret }),
        sql,
        ..f(name, Scalar, min_args, max_args, doc)
    }
}

use Arg::{Any, Num, Temporal, Text, Unit};
use FunctionKind::{Aggregate, Scalar, Special, Window};
use Sql::{Call, Part};

/// Every supported function. Kept sorted by category for readability.
#[rustfmt::skip]
pub static FUNCTIONS: &[FunctionDef] = &[
    // --- math ---
    s("Abs",        1, Some(1), &[Num],                 ArgOr(0, T::Float), Some(Call("ABS")), "Absolute value"),
    s("Round",      1, Some(2), &[Num],                 ArgOr(0, T::Float), Some(Call("ROUND")), "Round to N digits (default 0); half away from zero"),
    s("Floor",      1, Some(1), &[Num],                 Fixed(T::Int),      Some(Call("FLOOR")), "Round down to integer"),
    s("Ceiling",    1, Some(1), &[Num],                 Fixed(T::Int),      Some(Call("CEIL")), "Round up to integer"),
    s("Int",        1, Some(1), &[Num],                 Fixed(T::Int),      Some(Call("FLOOR")), "Truncate toward negative infinity"),
    s("Sqrt",       1, Some(1), &[Num],                 Fixed(T::Float),    Some(Call("SQRT")), "Square root"),
    s("Exp",        1, Some(1), &[Num],                 Fixed(T::Float),    Some(Call("EXP")), "e raised to the argument"),
    s("Ln",         1, Some(1), &[Num],                 Fixed(T::Float),    Some(Call("LN")), "Natural logarithm"),
    s("Log",        1, Some(2), &[Num],                 Fixed(T::Float),    Some(Call("LOG")), "Logarithm base 10, or base N"),
    s("Power",      2, Some(2), &[Num],                 Fixed(T::Float),    Some(Call("POWER")), "x raised to y"),
    s("Mod",        2, Some(2), &[Num],                 Widen,              Some(Call("MOD")), "Remainder of x / y"),
    s("Sign",       1, Some(1), &[Num],                 Fixed(T::Int),      Some(Call("SIGN")), "-1, 0, or 1"),
    s("Greatest",   1, None,    &[Any],                 Unify,              Some(Call("GREATEST")), "Largest of the arguments"),
    s("Least",      1, None,    &[Any],                 Unify,              Some(Call("LEAST")), "Smallest of the arguments"),
    // --- text ---
    s("Concat",     1, None,    &[Any],                 Fixed(T::Text),     Some(Call("CONCAT")), "Concatenate as text"),
    s("Upper",      1, Some(1), &[Text],                Fixed(T::Text),     Some(Call("UPPER")), "Uppercase"),
    s("Lower",      1, Some(1), &[Text],                Fixed(T::Text),     Some(Call("LOWER")), "Lowercase"),
    s("Trim",       1, Some(1), &[Text],                Fixed(T::Text),     Some(Call("TRIM")), "Strip leading/trailing whitespace"),
    s("LTrim",      1, Some(1), &[Text],                Fixed(T::Text),     Some(Call("LTRIM")), "Strip leading whitespace"),
    s("RTrim",      1, Some(1), &[Text],                Fixed(T::Text),     Some(Call("RTRIM")), "Strip trailing whitespace"),
    s("Len",        1, Some(1), &[Text],                Fixed(T::Int),      Some(Call("LENGTH")), "Length in characters"),
    s("Left",       2, Some(2), &[Text, Num],           Fixed(T::Text),     Some(Call("LEFT")), "First N characters"),
    s("Right",      2, Some(2), &[Text, Num],           Fixed(T::Text),     Some(Call("RIGHT")), "Last N characters"),
    s("Mid",        3, Some(3), &[Text, Num],           Fixed(T::Text),     Some(Call("SUBSTRING")), "Substring(start 1-based, length)"),
    s("Contains",   2, Some(2), &[Text],                Fixed(T::Bool),     Some(Call("CONTAINS")), "True if text contains the fragment"),
    s("StartsWith", 2, Some(2), &[Text],                Fixed(T::Bool),     Some(Call("STARTS_WITH")), "True if text starts with the fragment"),
    s("EndsWith",   2, Some(2), &[Text],                Fixed(T::Bool),     Some(Call("ENDS_WITH")), "True if text ends with the fragment"),
    s("Replace",    3, Some(3), &[Text],                Fixed(T::Text),     Some(Call("REPLACE")), "Replace every occurrence"),
    s("SplitPart",  3, Some(3), &[Text, Text, Num],     Fixed(T::Text),     Some(Call("SPLIT_PART")), "Nth field after splitting on a delimiter"),
    s("Lpad",       2, Some(3), &[Text, Num, Text],     Fixed(T::Text),     Some(Call("LPAD")), "Left-pad to length, at most 10,000 (pad text defaults to space)"),
    s("Rpad",       2, Some(3), &[Text, Num, Text],     Fixed(T::Text),     Some(Call("RPAD")), "Right-pad to length, at most 10,000"),
    s("Repeat",     2, Some(2), &[Text, Num],           Fixed(T::Text),     Some(Call("REPEAT")), "Repeat text N times, at most 10,000"),
    // --- logical / null handling ---
    f(
        "If",
        Scalar,
        2,
        None,
        "If(cond, value, [cond2, value2, ...], [else])",
    ),
    f(
        "Switch",
        Scalar,
        3,
        None,
        "Switch(expr, case, value, ..., [default])",
    ),
    s("IsNull",     1, Some(1), &[Any],                 Fixed(T::Bool),     None, "True when the argument is null"),
    s("IsNotNull",  1, Some(1), &[Any],                 Fixed(T::Bool),     None, "True when the argument is not null"),
    s("Coalesce",   1, None,    &[Any],                 Unify,              Some(Call("COALESCE")), "First non-null argument"),
    s("IfNull",     2, Some(2), &[Any],                 Unify,              Some(Call("COALESCE")), "Second argument when the first is null"),
    s("Nullif",     2, Some(2), &[Any],                 First,              Some(Call("NULLIF")), "Null when the arguments are equal"),
    f(
        "OneOf",
        Scalar,
        2,
        None,
        "True when the first argument equals any other",
    ),
    f("Between", Scalar, 3, Some(3), "True when low <= x <= high"),
    // --- conversion ---
    s("Number",     1, Some(1), &[Any],                 Fixed(T::Float),    None, "Convert to a number"),
    s("Text",       1, Some(1), &[Any],                 Fixed(T::Text),     None, "Convert to text"),
    s("Date",       1, Some(1), &[Any],                 Fixed(T::Date),     None, "Convert text/timestamp to a date"),
    s("DateTime",   1, Some(1), &[Any],                 Fixed(T::Timestamp), None, "Convert text/date to a timestamp"),
    // --- date & time ---
    s("Today",      0, Some(0), &[],                    Fixed(T::Date),     Some(Call("CURRENT_DATE")), "Current date (session clock)"),
    s("Now",        0, Some(0), &[],                    Fixed(T::Timestamp), Some(Call("CURRENT_TIMESTAMP")), "Current timestamp (session clock)"),
    s("DateTrunc",  2, Some(2), &[Unit, Temporal],      ArgOr(1, T::Date),  Some(Call("DATE_TRUNC")), "Truncate to a unit: DateTrunc(\"quarter\", d)"),
    s("DatePart",   2, Some(2), &[Unit, Temporal],      Fixed(T::Int),      Some(Call("DATE_PART")), "Extract a unit as a number"),
    s("DateAdd",    3, Some(3), &[Unit, Num, Temporal], ArgOr(2, T::Date),  Some(Call("DATEADD")), "DateAdd(\"month\", n, d)"),
    s("DateDiff",   3, Some(3), &[Unit, Temporal],      Fixed(T::Int),      Some(Call("DATEDIFF")), "Unit boundaries crossed between two dates"),
    s("Year",       1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("year")), "Year number"),
    s("Quarter",    1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("quarter")), "Quarter number (1-4)"),
    s("Month",      1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("month")), "Month number (1-12)"),
    s("Week",       1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("week")), "ISO week number"),
    s("Day",        1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("day")), "Day of month"),
    s("Weekday",    1, Some(1), &[Temporal],            Fixed(T::Int),      None, "Day of week (1 = Sunday)"),
    s("Hour",       1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("hour")), "Hour of day"),
    s("Minute",     1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("minute")), "Minute of hour"),
    s("Second",     1, Some(1), &[Temporal],            Fixed(T::Int),      Some(Part("second")), "Second of minute"),
    s("MakeDate",   3, Some(3), &[Num],                 Fixed(T::Date),     Some(Call("MAKE_DATE")), "Date from year, month, day"),
    // --- aggregates ---
    f("Sum", Aggregate, 1, Some(1), "Sum of non-null values"),
    f("Avg", Aggregate, 1, Some(1), "Mean of non-null values"),
    f("Min", Aggregate, 1, Some(1), "Smallest value"),
    f("Max", Aggregate, 1, Some(1), "Largest value"),
    f(
        "Count",
        Aggregate,
        0,
        Some(1),
        "Row count, or non-null count of the argument",
    ),
    f(
        "CountDistinct",
        Aggregate,
        1,
        Some(1),
        "Distinct non-null count",
    ),
    f(
        "CountIf",
        Aggregate,
        1,
        Some(1),
        "Rows where the condition holds",
    ),
    f("SumIf", Aggregate, 2, Some(2), "SumIf(cond, value)"),
    f("AvgIf", Aggregate, 2, Some(2), "AvgIf(cond, value)"),
    f("MinIf", Aggregate, 2, Some(2), "MinIf(cond, value)"),
    f("MaxIf", Aggregate, 2, Some(2), "MaxIf(cond, value)"),
    f("Median", Aggregate, 1, Some(1), "Median of non-null values"),
    f("StdDev", Aggregate, 1, Some(1), "Sample standard deviation"),
    f("Variance", Aggregate, 1, Some(1), "Sample variance"),
    f(
        "Percentile",
        Aggregate,
        2,
        Some(2),
        "Continuous percentile: Percentile(x, 0.9)",
    ),
    f(
        "ATTR",
        Aggregate,
        1,
        Some(1),
        "The single value if unique, else null",
    ),
    // --- window ---
    f(
        "RowNumber",
        Window,
        0,
        Some(0),
        "1-based position within the partition",
    ),
    f(
        "Rank",
        Window,
        0,
        Some(0),
        "Rank with gaps, by the level ordering",
    ),
    f("DenseRank", Window, 0, Some(0), "Rank without gaps"),
    f(
        "Ntile",
        Window,
        1,
        Some(1),
        "Bucket number of N equal-height buckets",
    ),
    f(
        "Lag",
        Window,
        1,
        Some(3),
        "Value from an earlier row: Lag(x, [offset], [default])",
    ),
    f("Lead", Window, 1, Some(3), "Value from a later row"),
    f("First", Window, 1, Some(1), "First value in the partition"),
    f("Last", Window, 1, Some(1), "Last value in the partition"),
    f(
        "Nth",
        Window,
        2,
        Some(2),
        "Nth value in the partition (1-based)",
    ),
    f("RunningSum", Window, 1, Some(1), "Cumulative sum"),
    f("RunningAvg", Window, 1, Some(1), "Cumulative mean"),
    f("RunningMin", Window, 1, Some(1), "Cumulative minimum"),
    f("RunningMax", Window, 1, Some(1), "Cumulative maximum"),
    f("RunningCount", Window, 0, Some(1), "Cumulative count"),
    f(
        "MovingAvg",
        Window,
        2,
        Some(3),
        "Mean over a row window: MovingAvg(x, back, [fwd])",
    ),
    f("MovingSum", Window, 2, Some(3), "Sum over a row window"),
    f("MovingMin", Window, 2, Some(3), "Min over a row window"),
    f("MovingMax", Window, 2, Some(3), "Max over a row window"),
    f(
        "FillDown",
        Window,
        1,
        Some(1),
        "Last non-null value at or before this row",
    ),
    f(
        "FillUp",
        Window,
        1,
        Some(1),
        "First non-null value at or after this row",
    ),
    // --- special (ad-hoc joins, §3.2) ---
    f(
        "Lookup",
        Special,
        3,
        None,
        "Lookup(targetExpr, localKey, targetKey, ...): foreign-key left join",
    ),
    f(
        "Rollup",
        Special,
        3,
        None,
        "Rollup(aggExpr, localKey, targetKey, ...): aggregate over the join target",
    ),
];

/// Look up a function by name (case-insensitive). Returns the registry
/// entry, whose `name` field carries the canonical casing.
pub fn registry(name: &str) -> Option<&'static FunctionDef> {
    FUNCTIONS.iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(registry("sum").unwrap().name, "Sum");
        assert_eq!(registry("COUNTDISTINCT").unwrap().name, "CountDistinct");
        assert!(registry("NoSuchFn").is_none());
    }

    #[test]
    fn no_duplicate_names() {
        for (i, a) in FUNCTIONS.iter().enumerate() {
            for b in &FUNCTIONS[i + 1..] {
                assert!(
                    !a.name.eq_ignore_ascii_case(b.name),
                    "duplicate function {}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn arity_ranges_consistent() {
        for d in FUNCTIONS {
            if let Some(max) = d.max_args {
                assert!(d.min_args <= max, "{} has inverted arity", d.name);
            }
        }
    }

    #[test]
    fn kinds_cover_paper_categories() {
        assert!(FUNCTIONS.iter().any(|d| d.kind == FunctionKind::Scalar));
        assert!(FUNCTIONS.iter().any(|d| d.kind == FunctionKind::Aggregate));
        assert!(FUNCTIONS.iter().any(|d| d.kind == FunctionKind::Window));
        assert_eq!(
            FUNCTIONS
                .iter()
                .filter(|d| d.kind == FunctionKind::Special)
                .count(),
            2
        );
    }
}
