//! The warehouse catalog: named tables and their metadata.
//!
//! Names are case-insensitive, matching the default collation of the
//! warehouses Sigma targets. The catalog also reports lightweight
//! statistics (row counts and byte sizes) that the browser prefetch policy
//! consults (paper §4: "lower cardinality tables" can be fully fetched and
//! evaluated locally).

use std::collections::HashMap;
use std::sync::Arc;

use sigma_value::{Batch, Schema};

use crate::error::CdwError;
use crate::storage::{StoredTable, DEFAULT_PARTITION_ROWS};

/// Per-table statistics, read off the stored partitions.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: usize,
    pub byte_size: usize,
}

/// A catalog of stored tables.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Keyed by lower-cased table name.
    tables: HashMap<String, StoredTable>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&key(name))
    }

    pub fn get(&self, name: &str) -> Result<&StoredTable, CdwError> {
        self.tables
            .get(&key(name))
            .ok_or_else(|| CdwError::catalog(format!("table not found: {name}")))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut StoredTable, CdwError> {
        self.tables
            .get_mut(&key(name))
            .ok_or_else(|| CdwError::catalog(format!("table not found: {name}")))
    }

    /// Register an empty table.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Arc<Schema>,
        if_not_exists: bool,
    ) -> Result<(), CdwError> {
        if self.contains(name) {
            if if_not_exists {
                return Ok(());
            }
            return Err(CdwError::catalog(format!("table already exists: {name}")));
        }
        self.tables.insert(key(name), StoredTable::empty(schema));
        Ok(())
    }

    /// Register a table from a batch, partitioning it for parallel scans.
    pub fn create_table_from_batch(
        &mut self,
        name: &str,
        batch: Batch,
        or_replace: bool,
    ) -> Result<(), CdwError> {
        self.create_table_from_batch_partitioned(name, batch, or_replace, DEFAULT_PARTITION_ROWS)
    }

    /// Register a table from explicit (possibly skewed) partitions.
    pub fn create_table_from_parts(
        &mut self,
        name: &str,
        parts: Vec<Batch>,
        or_replace: bool,
    ) -> Result<(), CdwError> {
        if self.contains(name) && !or_replace {
            return Err(CdwError::catalog(format!("table already exists: {name}")));
        }
        self.tables
            .insert(key(name), StoredTable::from_parts(parts)?);
        Ok(())
    }

    /// Register a table from a batch with an explicit partition size.
    pub fn create_table_from_batch_partitioned(
        &mut self,
        name: &str,
        batch: Batch,
        or_replace: bool,
        partition_rows: usize,
    ) -> Result<(), CdwError> {
        if self.contains(name) && !or_replace {
            return Err(CdwError::catalog(format!("table already exists: {name}")));
        }
        self.tables
            .insert(key(name), StoredTable::from_batch(batch, partition_rows));
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), CdwError> {
        if self.tables.remove(&key(name)).is_none() && !if_exists {
            return Err(CdwError::catalog(format!("table not found: {name}")));
        }
        Ok(())
    }

    /// Current statistics for a table.
    pub fn stats(&self, name: &str) -> Result<TableStats, CdwError> {
        let table = self.get(name)?;
        Ok(TableStats {
            row_count: table.num_rows(),
            byte_size: table.byte_size(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::{Column, DataType, Field};

    fn sample() -> Batch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("tag", DataType::Text),
        ]));
        Batch::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_texts(vec!["a".into(), "a".into(), "b".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table_from_batch("Flights", sample(), false)
            .unwrap();
        assert!(c.contains("FLIGHTS"));
        assert_eq!(c.get("flights").unwrap().num_rows(), 3);
        assert!(c
            .create_table_from_batch("fLiGhTs", sample(), false)
            .is_err());
        c.create_table_from_batch("flights", sample(), true)
            .unwrap();
    }

    #[test]
    fn drop_semantics() {
        let mut c = Catalog::new();
        c.create_table_from_batch("t", sample(), false).unwrap();
        c.drop_table("T", false).unwrap();
        assert!(c.drop_table("t", false).is_err());
        c.drop_table("t", true).unwrap();
    }

    #[test]
    fn stats() {
        let mut c = Catalog::new();
        c.create_table_from_batch("t", sample(), false).unwrap();
        let s = c.stats("t").unwrap();
        assert_eq!(s.row_count, 3);
    }
}
