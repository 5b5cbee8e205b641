//! Query rewrites used by the service's stage-level cache: replacing
//! references to already-computed stages with `TABLE(RESULT_SCAN('<id>'))`
//! so the warehouse re-serves the persisted result set instead of
//! recomputing the stage.

use std::collections::HashMap;

use crate::ast::{Query, SqlExpr, TableRef};

/// Replace every single-part table reference whose (lower-cased) name is a
/// key of `scans` with a `TABLE(RESULT_SCAN('<query-id>'))` call. The
/// original binding is preserved: an aliased reference keeps its alias, an
/// unaliased one is aliased to the replaced name so qualified column
/// references still resolve. Returns how many references were rewritten.
pub fn substitute_result_scans(query: &mut Query, scans: &HashMap<String, String>) -> usize {
    let mut n = 0;
    query.for_each_table_ref_mut(&mut |t| {
        let TableRef::Table { name, alias } = t else {
            return;
        };
        let [base] = name.0.as_slice() else {
            return;
        };
        let Some(query_id) = scans.get(&base.to_ascii_lowercase()) else {
            return;
        };
        let binding = alias.clone().unwrap_or_else(|| base.clone());
        *t = TableRef::Function {
            name: "RESULT_SCAN".into(),
            args: vec![SqlExpr::lit(query_id.clone())],
            alias: Some(binding),
        };
        n += 1;
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::parser::parse_query;
    use crate::printer::print_query;

    fn scans(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn rewrites_from_and_joins_preserving_bindings() {
        let mut q = parse_query(
            "SELECT b.x, lvl1_0.y FROM base_0 AS b \
             JOIN lvl1_0 ON b.k = lvl1_0.k",
        )
        .unwrap();
        let n = substitute_result_scans(&mut q, &scans(&[("base_0", "q-1"), ("lvl1_0", "q-2")]));
        assert_eq!(n, 2);
        let sql = print_query(&q, &Dialect::generic());
        assert!(sql.contains("TABLE(RESULT_SCAN('q-1')) AS b"), "{sql}");
        assert!(sql.contains("TABLE(RESULT_SCAN('q-2')) AS lvl1_0"), "{sql}");
    }

    #[test]
    fn leaves_unmapped_and_dotted_names_alone() {
        let mut q = parse_query("SELECT x FROM db.schema.t JOIN other ON t.k = other.k").unwrap();
        let n = substitute_result_scans(&mut q, &scans(&[("t", "q-9")]));
        assert_eq!(n, 0);
        let sql = print_query(&q, &Dialect::generic());
        assert!(!sql.contains("RESULT_SCAN"), "{sql}");
    }

    #[test]
    fn reaches_subqueries() {
        let mut q =
            parse_query("SELECT x FROM (SELECT x FROM summary_0 AS s) AS sub WHERE x > 1").unwrap();
        let n = substitute_result_scans(&mut q, &scans(&[("summary_0", "q-3")]));
        assert_eq!(n, 1);
        let sql = print_query(&q, &Dialect::generic());
        assert!(sql.contains("TABLE(RESULT_SCAN('q-3')) AS s"), "{sql}");
    }
}
