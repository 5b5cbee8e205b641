//! The SQL abstract syntax tree.

use serde::{Deserialize, Serialize};
use sigma_value::{DataType, Value};

/// A possibly schema-qualified object name (`sales.flights`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectName(pub Vec<String>);

impl ObjectName {
    pub fn bare(name: impl Into<String>) -> ObjectName {
        ObjectName(vec![name.into()])
    }

    /// Unqualified trailing segment.
    pub fn base(&self) -> &str {
        self.0.last().map(String::as_str).unwrap_or("")
    }

    pub fn to_dotted(&self) -> String {
        self.0.join(".")
    }
}

/// Binary operators in SQL expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SqlBinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    /// `||` — string concatenation.
    Concat,
}

impl SqlBinaryOp {
    pub fn symbol(self) -> &'static str {
        use SqlBinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            And => "AND",
            Or => "OR",
            Concat => "||",
        }
    }

    pub fn precedence(self) -> u8 {
        use SqlBinaryOp::*;
        match self {
            Or => 1,
            And => 2,
            Eq | NotEq | Lt | LtEq | Gt | GtEq => 4,
            Concat => 5,
            Add | Sub => 6,
            Mul | Div | Mod => 7,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SqlUnaryOp {
    Neg,
    Not,
}

/// An ORDER BY term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderExpr {
    pub expr: SqlExpr,
    pub descending: bool,
    /// `None` follows the engine default (nulls first for ASC, mirroring
    /// nulls-first total order).
    pub nulls_last: Option<bool>,
}

impl OrderExpr {
    pub fn asc(expr: SqlExpr) -> OrderExpr {
        OrderExpr {
            expr,
            descending: false,
            nulls_last: None,
        }
    }
    pub fn desc(expr: SqlExpr) -> OrderExpr {
        OrderExpr {
            expr,
            descending: true,
            nulls_last: None,
        }
    }
}

/// Window frame bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameBound {
    UnboundedPreceding,
    Preceding(u64),
    CurrentRow,
    Following(u64),
    UnboundedFollowing,
}

/// `ROWS BETWEEN <start> AND <end>` (only ROWS frames are modeled; the
/// compiler never emits RANGE frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowFrame {
    pub start: FrameBound,
    pub end: FrameBound,
}

/// The OVER clause of a window function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WindowSpec {
    pub partition_by: Vec<SqlExpr>,
    pub order_by: Vec<OrderExpr>,
    pub frame: Option<WindowFrame>,
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SqlExpr {
    Literal(Value),
    /// Optionally table-qualified column reference.
    Column {
        table: Option<String>,
        name: String,
    },
    /// `*` (only valid inside COUNT(*) and SELECT lists).
    Star,
    Unary {
        op: SqlUnaryOp,
        expr: Box<SqlExpr>,
    },
    Binary {
        op: SqlBinaryOp,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    /// Scalar or aggregate function call.
    Func {
        name: String,
        args: Vec<SqlExpr>,
        distinct: bool,
    },
    /// Window function call with OVER clause.
    WindowFunc {
        name: String,
        args: Vec<SqlExpr>,
        ignore_nulls: bool,
        spec: WindowSpec,
    },
    /// Searched or simple CASE.
    Case {
        operand: Option<Box<SqlExpr>>,
        whens: Vec<(SqlExpr, SqlExpr)>,
        else_: Option<Box<SqlExpr>>,
    },
    Cast {
        expr: Box<SqlExpr>,
        dtype: DataType,
    },
    InList {
        expr: Box<SqlExpr>,
        list: Vec<SqlExpr>,
        negated: bool,
    },
    Between {
        expr: Box<SqlExpr>,
        low: Box<SqlExpr>,
        high: Box<SqlExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
    Like {
        expr: Box<SqlExpr>,
        pattern: Box<SqlExpr>,
        negated: bool,
    },
}

impl SqlExpr {
    pub fn col(name: impl Into<String>) -> SqlExpr {
        SqlExpr::Column {
            table: None,
            name: name.into(),
        }
    }

    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> SqlExpr {
        SqlExpr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> SqlExpr {
        SqlExpr::Literal(v.into())
    }

    pub fn null() -> SqlExpr {
        SqlExpr::Literal(Value::Null)
    }

    pub fn func(name: impl Into<String>, args: Vec<SqlExpr>) -> SqlExpr {
        SqlExpr::Func {
            name: name.into(),
            args,
            distinct: false,
        }
    }

    pub fn binary(op: SqlBinaryOp, left: SqlExpr, right: SqlExpr) -> SqlExpr {
        SqlExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: SqlExpr, right: SqlExpr) -> SqlExpr {
        SqlExpr::binary(SqlBinaryOp::Eq, left, right)
    }

    pub fn and(left: SqlExpr, right: SqlExpr) -> SqlExpr {
        SqlExpr::binary(SqlBinaryOp::And, left, right)
    }

    /// Fold a list of predicates into a conjunction (`None` for empty).
    pub fn conjunction(preds: impl IntoIterator<Item = SqlExpr>) -> Option<SqlExpr> {
        preds.into_iter().reduce(SqlExpr::and)
    }

    /// Visit each direct child in source order (a window visits its args,
    /// then PARTITION BY, then ORDER BY; a CASE its operand, each
    /// WHEN/THEN pair, then ELSE). This is the one place that lists a
    /// node's children; walkers recurse through it.
    pub fn for_each_child(&self, f: &mut dyn FnMut(&SqlExpr)) {
        match self {
            SqlExpr::Literal(_) | SqlExpr::Column { .. } | SqlExpr::Star => {}
            SqlExpr::Unary { expr, .. }
            | SqlExpr::Cast { expr, .. }
            | SqlExpr::IsNull { expr, .. } => f(expr),
            SqlExpr::Binary {
                left: a, right: b, ..
            }
            | SqlExpr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                f(a);
                f(b);
            }
            SqlExpr::Func { args, .. } => args.iter().for_each(f),
            SqlExpr::WindowFunc { args, spec, .. } => {
                args.iter().for_each(&mut *f);
                spec.partition_by.iter().for_each(&mut *f);
                spec.order_by.iter().for_each(|o| f(&o.expr));
            }
            SqlExpr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                else_.iter().for_each(|e| f(e));
            }
            SqlExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            SqlExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// [`SqlExpr::for_each_child`], mutably.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut SqlExpr)) {
        match self {
            SqlExpr::Literal(_) | SqlExpr::Column { .. } | SqlExpr::Star => {}
            SqlExpr::Unary { expr, .. }
            | SqlExpr::Cast { expr, .. }
            | SqlExpr::IsNull { expr, .. } => f(expr),
            SqlExpr::Binary {
                left: a, right: b, ..
            }
            | SqlExpr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                f(a);
                f(b);
            }
            SqlExpr::Func { args, .. } => args.iter_mut().for_each(f),
            SqlExpr::WindowFunc { args, spec, .. } => {
                args.iter_mut().for_each(&mut *f);
                spec.partition_by.iter_mut().for_each(&mut *f);
                spec.order_by.iter_mut().for_each(|o| f(&mut o.expr));
            }
            SqlExpr::Case {
                operand,
                whens,
                else_,
            } => {
                operand.iter_mut().for_each(|o| f(o));
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                else_.iter_mut().for_each(|e| f(e));
            }
            SqlExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            SqlExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }
}

/// One item in a SELECT projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
    Wildcard,
}

impl SelectItem {
    pub fn aliased(expr: SqlExpr, alias: impl Into<String>) -> SelectItem {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }

    pub fn bare(expr: SqlExpr) -> SelectItem {
        SelectItem::Expr { expr, alias: None }
    }
}

/// Join flavors the engine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinKind {
    Inner,
    Left,
    Full,
    Cross,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Join {
    pub kind: JoinKind,
    pub relation: TableRef,
    /// `None` only for CROSS joins.
    pub on: Option<SqlExpr>,
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    Table {
        name: ObjectName,
        alias: Option<String>,
    },
    Subquery {
        query: Box<Query>,
        alias: String,
    },
    /// Table function call, e.g. `RESULT_SCAN('q-42')` — the Snowflake-style
    /// mechanism the query directory uses to re-fetch persisted result sets.
    Function {
        name: String,
        args: Vec<SqlExpr>,
        alias: Option<String>,
    },
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub selection: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
    pub having: Option<SqlExpr>,
    /// Post-window filter (Snowflake QUALIFY). Dialects without QUALIFY
    /// print it via a wrapping subquery.
    pub qualify: Option<SqlExpr>,
}

impl Select {
    pub fn new() -> Select {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: None,
            joins: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
            qualify: None,
        }
    }
}

impl Default for Select {
    fn default() -> Self {
        Select::new()
    }
}

/// Set-operation tree under a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    Select(Box<Select>),
    UnionAll(Box<SetExpr>, Box<SetExpr>),
    /// `VALUES (..), (..)` — used for editable tables and CSV marshaling.
    Values(Vec<Vec<SqlExpr>>),
}

/// A full query: CTEs + body + final ordering/limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    pub ctes: Vec<(String, Query)>,
    pub body: SetExpr,
    pub order_by: Vec<OrderExpr>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl Query {
    pub fn from_select(select: Select) -> Query {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// Visit every FROM/JOIN relation: each CTE body's in order, then the
    /// body's (a union's left arm before its right, a SELECT's FROM before
    /// its joins). A subquery relation is visited, then the relations
    /// inside it. This is the one place that walks a query's relations.
    pub fn for_each_table_ref(&self, f: &mut dyn FnMut(&TableRef)) {
        for (_, cte) in &self.ctes {
            cte.for_each_table_ref(f);
        }
        self.body.for_each_table_ref(f);
    }

    /// [`Query::for_each_table_ref`], mutably.
    pub fn for_each_table_ref_mut(&mut self, f: &mut dyn FnMut(&mut TableRef)) {
        for (_, cte) in &mut self.ctes {
            cte.for_each_table_ref_mut(f);
        }
        self.body.for_each_table_ref_mut(f);
    }
}

impl SetExpr {
    fn for_each_table_ref(&self, f: &mut dyn FnMut(&TableRef)) {
        match self {
            SetExpr::Select(s) => {
                for t in s.from.iter().chain(s.joins.iter().map(|j| &j.relation)) {
                    f(t);
                    if let TableRef::Subquery { query, .. } = t {
                        query.for_each_table_ref(f);
                    }
                }
            }
            SetExpr::UnionAll(l, r) => {
                l.for_each_table_ref(f);
                r.for_each_table_ref(f);
            }
            SetExpr::Values(_) => {}
        }
    }

    fn for_each_table_ref_mut(&mut self, f: &mut dyn FnMut(&mut TableRef)) {
        match self {
            SetExpr::Select(s) => {
                let joins = s.joins.iter_mut().map(|j| &mut j.relation);
                for t in s.from.iter_mut().chain(joins) {
                    f(t);
                    if let TableRef::Subquery { query, .. } = t {
                        query.for_each_table_ref_mut(f);
                    }
                }
            }
            SetExpr::UnionAll(l, r) => {
                l.for_each_table_ref_mut(f);
                r.for_each_table_ref_mut(f);
            }
            SetExpr::Values(_) => {}
        }
    }
}

/// Top-level statements the warehouse accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    Query(Query),
    CreateTable {
        name: ObjectName,
        columns: Vec<(String, DataType)>,
        if_not_exists: bool,
    },
    CreateTableAs {
        name: ObjectName,
        query: Query,
        or_replace: bool,
    },
    Insert {
        table: ObjectName,
        /// `None` means positional, all columns.
        columns: Option<Vec<String>>,
        source: Query,
    },
    Update {
        table: ObjectName,
        assignments: Vec<(String, SqlExpr)>,
        selection: Option<SqlExpr>,
    },
    Delete {
        table: ObjectName,
        selection: Option<SqlExpr>,
    },
    DropTable {
        name: ObjectName,
        if_exists: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One expression per variant with column `k`'s name spelled by slot
    /// order: both child visitors must reach every slot, in order.
    #[test]
    fn child_visitors_reach_every_slot_in_order() {
        let c = SqlExpr::col;
        let b = |n| Box::new(SqlExpr::col(n));
        let window = WindowSpec {
            partition_by: vec![c("b"), c("c")],
            order_by: vec![OrderExpr::asc(c("d"))],
            frame: None,
        };
        #[rustfmt::skip]
        let cases = [
            (SqlExpr::lit(1), ""),
            (c("a"), ""),
            (SqlExpr::Star, ""),
            (SqlExpr::Unary { op: SqlUnaryOp::Neg, expr: b("a") }, "a"),
            (SqlExpr::binary(SqlBinaryOp::Add, c("a"), c("b")), "ab"),
            (SqlExpr::func("f", vec![c("a"), c("b"), c("c")]), "abc"),
            (SqlExpr::WindowFunc { name: "SUM".into(), args: vec![c("a")], ignore_nulls: false, spec: window }, "abcd"),
            (SqlExpr::Case { operand: Some(b("a")), whens: vec![(c("b"), c("c")), (c("d"), c("e"))], else_: Some(b("f")) }, "abcdef"),
            (SqlExpr::Cast { expr: b("a"), dtype: DataType::Int }, "a"),
            (SqlExpr::InList { expr: b("a"), list: vec![c("b"), c("c")], negated: false }, "abc"),
            (SqlExpr::Between { expr: b("a"), low: b("b"), high: b("c"), negated: false }, "abc"),
            (SqlExpr::IsNull { expr: b("a"), negated: false }, "a"),
            (SqlExpr::Like { expr: b("a"), pattern: b("b"), negated: false }, "ab"),
        ];
        let names = |e: &SqlExpr| {
            let mut seen = String::new();
            e.for_each_child(&mut |ch| {
                if let SqlExpr::Column { name, .. } = ch {
                    seen.push_str(name);
                }
            });
            seen
        };
        for (mut e, slots) in cases {
            assert_eq!(names(&e), slots, "{e:?}");
            e.for_each_child_mut(&mut |ch| {
                if let SqlExpr::Column { name, .. } = ch {
                    name.make_ascii_uppercase();
                }
            });
            assert_eq!(names(&e), slots.to_uppercase(), "{e:?}");
        }
    }

    #[test]
    fn conjunction_folds() {
        assert_eq!(SqlExpr::conjunction(vec![]), None);
        let one = SqlExpr::conjunction(vec![SqlExpr::lit(true)]).unwrap();
        assert_eq!(one, SqlExpr::lit(true));
        let two = SqlExpr::conjunction(vec![SqlExpr::col("a"), SqlExpr::col("b")]).unwrap();
        assert!(matches!(
            two,
            SqlExpr::Binary {
                op: SqlBinaryOp::And,
                ..
            }
        ));
    }

    /// Relations named in visit order: CTE bodies first, a union's left
    /// arm before its right, FROM before joins, a subquery before its
    /// insides. Both visitors see the same sequence.
    #[test]
    fn table_ref_visitors_reach_every_relation_in_order() {
        let mut q = crate::parser::parse_query(
            "WITH c1 AS (SELECT x FROM a JOIN b ON a.k = b.k) \
             SELECT x FROM c1 JOIN (SELECT x FROM d UNION ALL SELECT x FROM e) AS s ON c1.x = s.x \
             UNION ALL SELECT x FROM TABLE(RESULT_SCAN('q-1')) AS r JOIN f ON r.x = f.x",
        )
        .unwrap();
        let label = |t: &TableRef| match t {
            TableRef::Table { name, .. } => name.to_dotted(),
            TableRef::Subquery { alias, .. } => format!("({alias})"),
            TableRef::Function { name, .. } => name.clone(),
        };
        let want = ["a", "b", "c1", "(s)", "d", "e", "RESULT_SCAN", "f"];
        let mut seen = Vec::new();
        q.for_each_table_ref(&mut |t| seen.push(label(t)));
        assert_eq!(seen, want);
        let mut seen = Vec::new();
        q.for_each_table_ref_mut(&mut |t| seen.push(label(t)));
        assert_eq!(seen, want);
    }
}
