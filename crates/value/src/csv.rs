//! CSV parsing and serialization with type inference.
//!
//! Used by the ad-hoc data path of the paper (§3.4): "Users can also add
//! their own CSV data as sources to any workbook element. The parsed file is
//! transparently marshaled into the user's warehouse as a database table."

use std::sync::Arc;

use crate::batch::{Batch, Field, Schema};
use crate::calendar;
use crate::column::ColumnBuilder;
use crate::error::ValueError;
use crate::types::{DataType, ValueRef};

/// Split raw CSV text into records of fields, honoring RFC-4180 quoting
/// (quoted fields may contain commas, newlines, and doubled quotes).
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>, ValueError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                any = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' => {
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                any = false;
            }
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                any = false;
            }
            _ => {
                field.push(c);
                any = true;
            }
        }
    }
    if in_quotes {
        return Err(ValueError::Csv("unterminated quoted field".into()));
    }
    if any || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Infer the narrowest type that parses every non-empty sample.
///
/// Order tried: Int -> Float -> Date -> Timestamp -> Bool -> Text.
pub fn infer_type<'a>(samples: impl Iterator<Item = &'a str>) -> DataType {
    let mut candidates = [true; 5]; // int, float, date, timestamp, bool
    let mut saw_any = false;
    for s in samples {
        let s = s.trim();
        if s.is_empty() {
            continue;
        }
        saw_any = true;
        if candidates[0] && s.parse::<i64>().is_err() {
            candidates[0] = false;
        }
        if candidates[1] && s.parse::<f64>().is_err() {
            candidates[1] = false;
        }
        if candidates[2] && calendar::parse_date(s).is_none() {
            candidates[2] = false;
        }
        if candidates[3] && calendar::parse_timestamp(s).is_none() {
            candidates[3] = false;
        }
        if candidates[4] && !matches!(s.to_ascii_lowercase().as_str(), "true" | "false") {
            candidates[4] = false;
        }
        if !candidates.iter().any(|&c| c) {
            return DataType::Text;
        }
    }
    if !saw_any {
        return DataType::Text;
    }
    if candidates[0] {
        DataType::Int
    } else if candidates[1] {
        DataType::Float
    } else if candidates[2] {
        DataType::Date
    } else if candidates[3] {
        DataType::Timestamp
    } else if candidates[4] {
        DataType::Bool
    } else {
        DataType::Text
    }
}

/// Options for [`read_csv`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// First record is a header row.
    pub has_header: bool,
    /// Rows sampled for type inference (all rows if None).
    pub infer_rows: Option<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            has_header: true,
            infer_rows: Some(1000),
        }
    }
}

/// Parse CSV text into a [`Batch`], inferring column types.
///
/// Empty fields become NULL. Fields that fail to parse under the inferred
/// type fall back to NULL rather than failing the whole load — matching how
/// the paper's Scenario 3 tolerates "dirty" pasted data that users then fix
/// with direct editing.
pub fn read_csv(text: &str, options: &CsvOptions) -> Result<Batch, ValueError> {
    let records = parse_records(text)?;
    if records.is_empty() {
        return Err(ValueError::Csv("empty input".into()));
    }
    let (header, data) = if options.has_header {
        (records[0].clone(), &records[1..])
    } else {
        let cols = records[0].len();
        (
            (0..cols).map(|i| format!("column_{}", i + 1)).collect(),
            &records[..],
        )
    };
    let ncols = header.len();
    for (i, rec) in data.iter().enumerate() {
        if rec.len() != ncols {
            return Err(ValueError::Csv(format!(
                "row {} has {} fields, expected {ncols}",
                i + 1,
                rec.len()
            )));
        }
    }

    let sample_n = options.infer_rows.unwrap_or(data.len()).min(data.len());
    let mut fields = Vec::with_capacity(ncols);
    let mut schema = Schema::empty();
    for (c, raw_name) in header.iter().enumerate() {
        let dtype = infer_type(data[..sample_n].iter().map(|r| r[c].as_str()));
        // De-duplicate header names the way spreadsheets do.
        let mut name = if raw_name.trim().is_empty() {
            format!("column_{}", c + 1)
        } else {
            raw_name.trim().to_string()
        };
        let mut suffix = 2;
        while schema.index_of(&name).is_some() {
            name = format!("{} ({suffix})", raw_name.trim());
            suffix += 1;
        }
        schema.push(Field::new(name, dtype)).expect("deduped");
        fields.push(dtype);
    }

    let mut builders: Vec<ColumnBuilder> = fields
        .iter()
        .map(|&t| ColumnBuilder::new(t, data.len()))
        .collect();
    for rec in data {
        for (c, raw) in rec.iter().enumerate() {
            builders[c]
                .push_ref(parse_field(raw, fields[c]))
                .expect("type guaranteed by parse_field");
        }
    }
    Batch::new(
        Arc::new(schema),
        builders.into_iter().map(|b| b.finish()).collect(),
    )
}

/// Parse one field under a known type; empty or unparseable becomes NULL.
/// A Text field borrows from the record.
pub fn parse_field(raw: &str, dtype: DataType) -> ValueRef<'_> {
    let s = raw.trim();
    if s.is_empty() {
        return ValueRef::Null;
    }
    let parsed = match dtype {
        DataType::Int => s.parse::<i64>().ok().map(ValueRef::Int),
        DataType::Float => s.parse::<f64>().ok().map(ValueRef::Float),
        DataType::Bool => match s.to_ascii_lowercase().as_str() {
            "true" => Some(ValueRef::Bool(true)),
            "false" => Some(ValueRef::Bool(false)),
            _ => None,
        },
        DataType::Date => calendar::parse_date(s).map(ValueRef::Date),
        DataType::Timestamp => calendar::parse_timestamp(s).map(ValueRef::Timestamp),
        DataType::Text => Some(ValueRef::Text(raw)),
    };
    parsed.unwrap_or(ValueRef::Null)
}

/// Serialize a batch to CSV with a header row.
pub fn write_csv(batch: &Batch) -> String {
    let mut out = String::new();
    let names: Vec<String> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| quote_field(&f.name))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..batch.num_rows() {
        let row: Vec<String> = (0..batch.num_columns())
            .map(|c| quote_field(&batch.value(r, c).render()))
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn quote_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    #[test]
    fn basic_inference() {
        let csv = "id,name,score,joined\n1,alice,3.5,2020-01-01\n2,bob,4.0,2020-02-01\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        assert_eq!(b.num_rows(), 2);
        let s = b.schema();
        assert_eq!(s.field_named("id").unwrap().dtype, DataType::Int);
        assert_eq!(s.field_named("name").unwrap().dtype, DataType::Text);
        assert_eq!(s.field_named("score").unwrap().dtype, DataType::Float);
        assert_eq!(s.field_named("joined").unwrap().dtype, DataType::Date);
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let csv = "a,b\n\"x,y\",\"line1\nline2\"\n\"he said \"\"hi\"\"\",plain\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.value(0, 0), Value::Text("x,y".into()));
        assert_eq!(b.value(0, 1), Value::Text("line1\nline2".into()));
        assert_eq!(b.value(1, 0), Value::Text("he said \"hi\"".into()));
    }

    #[test]
    fn empty_fields_are_null() {
        let csv = "a,b\n1,\n,2\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        assert_eq!(b.value(0, 1), Value::Null);
        assert_eq!(b.value(1, 0), Value::Null);
    }

    #[test]
    fn dirty_values_fall_back_to_null() {
        // Inference sample says Int; a later dirty row becomes NULL.
        let rows: Vec<String> = (0..50).map(|i| format!("{i}")).collect();
        let csv = format!("n\n{}\nnot_a_number\n", rows.join("\n"));
        let opts = CsvOptions {
            has_header: true,
            infer_rows: Some(10),
        };
        let b = read_csv(&csv, &opts).unwrap();
        assert_eq!(b.schema().field(0).dtype, DataType::Int);
        assert_eq!(b.value(50, 0), Value::Null);
    }

    #[test]
    fn header_dedup_and_blank_names() {
        let csv = "x,x,\n1,2,3\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        let names = b.schema().names().join("|");
        assert_eq!(names, "x|x (2)|column_3");
    }

    #[test]
    fn ragged_rows_rejected() {
        let csv = "a,b\n1\n";
        assert!(read_csv(csv, &CsvOptions::default()).is_err());
    }

    #[test]
    fn round_trip_write_read() {
        let csv = "a,b\n1,\"x,y\"\n2,plain\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        let out = write_csv(&b);
        let b2 = read_csv(&out, &CsvOptions::default()).unwrap();
        assert_eq!(b.num_rows(), b2.num_rows());
        assert_eq!(b.value(0, 1), b2.value(0, 1));
    }

    #[test]
    fn no_header_mode() {
        let csv = "1,hello\n2,world\n";
        let b = read_csv(
            csv,
            &CsvOptions {
                has_header: false,
                infer_rows: None,
            },
        )
        .unwrap();
        assert_eq!(b.schema().names(), vec!["column_1", "column_2"]);
        assert_eq!(b.num_rows(), 2);
    }

    #[test]
    fn crlf_endings() {
        let csv = "a,b\r\n1,2\r\n3,4\r\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.value(1, 1), Value::Int(4));
    }

    #[test]
    fn bool_inference() {
        let csv = "flag\ntrue\nfalse\nTRUE\n";
        let b = read_csv(csv, &CsvOptions::default()).unwrap();
        assert_eq!(b.schema().field(0).dtype, DataType::Bool);
        assert_eq!(b.value(2, 0), Value::Bool(true));
    }
}
