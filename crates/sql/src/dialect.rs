//! SQL dialects.
//!
//! The paper (§2) lists the warehouses Sigma supports: "currently
//! supporting Databricks, BigQuery, PostgreSQL, Redshift and Snowflake".
//! This module captures the printer-visible differences between them for
//! the SQL subset the compiler emits. `Generic` is the dialect the bundled
//! warehouse simulator parses (a superset of the common subset: it accepts
//! QUALIFY and IGNORE NULLS directly).

/// The supported dialect family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DialectKind {
    /// The bundled CDW simulator (accepts everything the printer emits).
    Generic,
    Snowflake,
    BigQuery,
    Postgres,
    Redshift,
    Databricks,
}

impl DialectKind {
    pub fn name(self) -> &'static str {
        match self {
            DialectKind::Generic => "generic",
            DialectKind::Snowflake => "snowflake",
            DialectKind::BigQuery => "bigquery",
            DialectKind::Postgres => "postgres",
            DialectKind::Redshift => "redshift",
            DialectKind::Databricks => "databricks",
        }
    }

    pub fn parse(name: &str) -> Option<DialectKind> {
        match name.to_ascii_lowercase().as_str() {
            "generic" | "cdw" => Some(DialectKind::Generic),
            "snowflake" => Some(DialectKind::Snowflake),
            "bigquery" => Some(DialectKind::BigQuery),
            "postgres" | "postgresql" => Some(DialectKind::Postgres),
            "redshift" => Some(DialectKind::Redshift),
            "databricks" => Some(DialectKind::Databricks),
            _ => None,
        }
    }
}

/// Printer-visible dialect behaviour.
#[derive(Debug, Clone, Copy)]
pub struct Dialect {
    pub kind: DialectKind,
}

impl Dialect {
    pub fn new(kind: DialectKind) -> Dialect {
        Dialect { kind }
    }

    pub fn generic() -> Dialect {
        Dialect {
            kind: DialectKind::Generic,
        }
    }

    /// Quote an identifier. BigQuery and Databricks use backticks; the
    /// rest use double quotes. Identifiers that are safe bare are not
    /// quoted, keeping emitted SQL readable.
    pub fn quote_ident(&self, ident: &str) -> String {
        let safe = !ident.is_empty()
            && ident
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && ident
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && !is_reserved(ident);
        if safe {
            return ident.to_string();
        }
        match self.kind {
            DialectKind::BigQuery | DialectKind::Databricks => {
                format!("`{}`", ident.replace('`', "``"))
            }
            _ => format!("\"{}\"", ident.replace('"', "\"\"")),
        }
    }

    /// Whether the dialect executes QUALIFY natively. Postgres lacks it;
    /// Redshift gained it only for some node types, so we treat it as
    /// unsupported there too and print a wrapping subquery instead.
    pub fn supports_qualify(&self) -> bool {
        matches!(
            self.kind,
            DialectKind::Generic
                | DialectKind::Snowflake
                | DialectKind::BigQuery
                | DialectKind::Databricks
        )
    }

    /// Whether `IGNORE NULLS` is written inside the function parens
    /// (BigQuery: `LAST_VALUE(x IGNORE NULLS)`) or after them (standard:
    /// `LAST_VALUE(x) IGNORE NULLS`).
    pub fn ignore_nulls_inside_parens(&self) -> bool {
        matches!(self.kind, DialectKind::BigQuery)
    }
}

/// Keywords that must be quoted when used as identifiers.
pub fn is_reserved(ident: &str) -> bool {
    const RESERVED: &[&str] = &[
        "all",
        "and",
        "as",
        "asc",
        "between",
        "by",
        "case",
        "cast",
        "create",
        "cross",
        "delete",
        "desc",
        "distinct",
        "drop",
        "else",
        "end",
        "exists",
        "false",
        "from",
        "full",
        "group",
        "having",
        "if",
        "ignore",
        "in",
        "inner",
        "insert",
        "into",
        "is",
        "join",
        "last",
        "left",
        "like",
        "limit",
        "not",
        "null",
        "nulls",
        "offset",
        "on",
        "or",
        "order",
        "outer",
        "over",
        "partition",
        "qualify",
        "replace",
        "right",
        "rows",
        "select",
        "set",
        "table",
        "then",
        "true",
        "union",
        "update",
        "values",
        "when",
        "where",
        "with",
        "first",
        "preceding",
        "following",
        "unbounded",
        "current",
        "row",
        "range",
        "date",
        "timestamp",
        "interval",
    ];
    RESERVED.contains(&ident.to_ascii_lowercase().as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_rules() {
        let d = Dialect::generic();
        assert_eq!(d.quote_ident("flights"), "flights");
        assert_eq!(d.quote_ident("Flight Date"), "\"Flight Date\"");
        assert_eq!(d.quote_ident("select"), "\"select\"");
        assert_eq!(d.quote_ident("tail_number"), "tail_number");
        assert_eq!(d.quote_ident("Mixed"), "\"Mixed\"");
        let bq = Dialect::new(DialectKind::BigQuery);
        assert_eq!(bq.quote_ident("Flight Date"), "`Flight Date`");
    }

    #[test]
    fn qualify_support() {
        assert!(Dialect::generic().supports_qualify());
        assert!(Dialect::new(DialectKind::Snowflake).supports_qualify());
        assert!(!Dialect::new(DialectKind::Postgres).supports_qualify());
        assert!(!Dialect::new(DialectKind::Redshift).supports_qualify());
    }

    #[test]
    fn dialect_kind_parse() {
        assert_eq!(
            DialectKind::parse("PostgreSQL"),
            Some(DialectKind::Postgres)
        );
        assert_eq!(
            DialectKind::parse("snowflake"),
            Some(DialectKind::Snowflake)
        );
        assert_eq!(DialectKind::parse("oracle"), None);
    }
}
