//! Binary [`Batch`] serialization — the spill-file format.
//!
//! The out-of-core operators in `sigma-cdw` (spilling aggregation,
//! external merge sort, Grace hash join) write intermediate batches to
//! disk and must read back **exactly** what they wrote: equality down to
//! float bit patterns (NaN payloads, `-0.0`) and down to the arbitrary
//! default values stored in null slots, because batch equality compares
//! physical storage. The codec therefore serializes physical storage
//! verbatim:
//!
//! * floats as `to_bits` little-endian words (never through text or
//!   `f64` comparison semantics),
//! * the validity mask as-is (present or absent — an all-true mask is
//!   not normalized away),
//! * null slots' payload bytes included, so `decode(encode(b)) == b`
//!   under derived `PartialEq`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "SGB1"
//! u32 field_count
//! per field:  u16 name_len, name bytes (UTF-8), u8 dtype
//! u64 row_count
//! per column:
//!   u8 has_validity; if 1: row_count bytes of 0/1
//!   payload: Bool = row_count bytes; Int/Timestamp = 8·rows; Float =
//!   8·rows (f64::to_bits); Date = 4·rows; Text = per string u32 len +
//!   bytes
//! ```
//!
//! Decoding validates every length against the remaining input and
//! returns [`ValueError`] on truncation or corruption — a half-written
//! spill file surfaces as an execution error, never a panic.

use std::sync::Arc;

use crate::batch::{Batch, Field, Schema};
use crate::column::{Column, ColumnData, TextData};
use crate::error::ValueError;
use crate::types::DataType;

const MAGIC: &[u8; 4] = b"SGB1";

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Date => 4,
        DataType::Timestamp => 5,
    }
}

fn tag_dtype(t: u8) -> Result<DataType, ValueError> {
    Ok(match t {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Date,
        5 => DataType::Timestamp,
        _ => return Err(ValueError::invalid(format!("codec: bad dtype tag {t}"))),
    })
}

/// Serialize a batch to the spill-file wire format.
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    // Rough pre-size: payload plus a little framing slack.
    let mut buf = Vec::with_capacity(batch.byte_size() + 64);
    buf.extend_from_slice(MAGIC);
    let schema = batch.schema();
    buf.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for f in schema.fields() {
        buf.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(f.name.as_bytes());
        buf.push(dtype_tag(f.dtype));
    }
    buf.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());
    for col in batch.columns() {
        let (data, validity) = col.raw_parts();
        match validity {
            Some(mask) => {
                buf.push(1);
                buf.extend(mask.iter().map(|&b| b as u8));
            }
            None => buf.push(0),
        }
        match data {
            ColumnData::Bool(v) => buf.extend(v.iter().map(|&b| b as u8)),
            ColumnData::Int(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            ColumnData::Text(t) => {
                for s in t.view().iter() {
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
            ColumnData::Date(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Timestamp(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
    buf
}

/// Bounds-checked cursor over the encoded bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ValueError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ValueError::invalid("codec: truncated input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ValueError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ValueError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ValueError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ValueError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A corruption-safe element count: errors (instead of attempting a
    /// huge allocation, or overflowing a width multiply) when `count`
    /// elements of at least `min_width` bytes each cannot possibly fit in
    /// the remaining input.
    fn counted(&self, count: usize, min_width: usize) -> Result<usize, ValueError> {
        match count.checked_mul(min_width) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(ValueError::invalid(format!(
                "codec: count {count} (x{min_width}B) exceeds remaining {}B",
                self.remaining()
            ))),
        }
    }
}

/// Deserialize one batch from bytes produced by [`encode_batch`].
pub fn decode_batch(bytes: &[u8]) -> Result<Batch, ValueError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.bytes(4)? != MAGIC {
        return Err(ValueError::invalid("codec: bad magic"));
    }
    // Every count read from the wire is validated against the remaining
    // input *before* sizing an allocation or multiplying by a width: a
    // corrupted length word must surface as an error, never a huge
    // `Vec::with_capacity` abort or a wrapped `rows * width`.
    let nfields = c.u32()? as usize;
    let nfields = c.counted(nfields, 3)?; // name_len + name + dtype >= 3B
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name_len = c.u16()? as usize;
        let name = std::str::from_utf8(c.bytes(name_len)?)
            .map_err(|_| ValueError::invalid("codec: field name not UTF-8"))?
            .to_string();
        let dtype = tag_dtype(c.u8()?)?;
        fields.push(Field::new(name, dtype));
    }
    let rows = c.u64()? as usize;
    let mut columns = Vec::with_capacity(nfields);
    for f in &fields {
        let validity = match c.u8()? {
            0 => None,
            1 => Some(c.bytes(rows)?.iter().map(|&b| b != 0).collect::<Vec<_>>()),
            t => return Err(ValueError::invalid(format!("codec: bad validity tag {t}"))),
        };
        let data = match f.dtype {
            DataType::Bool => ColumnData::Bool(c.bytes(rows)?.iter().map(|&b| b != 0).collect()),
            DataType::Int => ColumnData::Int(
                c.bytes(c.counted(rows, 8)? * 8)?
                    .chunks_exact(8)
                    .map(|w| i64::from_le_bytes(w.try_into().unwrap()))
                    .collect(),
            ),
            DataType::Float => ColumnData::Float(
                c.bytes(c.counted(rows, 8)? * 8)?
                    .chunks_exact(8)
                    .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().unwrap())))
                    .collect(),
            ),
            DataType::Text => {
                let rows = c.counted(rows, 4)?; // u32 len each
                                                // One pass to bounds-check every length and size the flat
                                                // buffer exactly, one to fill it.
                let start = c.pos;
                let mut text_bytes = 0;
                for _ in 0..rows {
                    let len = c.u32()? as usize;
                    c.bytes(len)?;
                    text_bytes += len;
                }
                if u32::try_from(text_bytes).is_err() {
                    return Err(ValueError::invalid("codec: text column exceeds 4 GiB"));
                }
                c.pos = start;
                let mut t = TextData::with_capacity(rows, text_bytes);
                for _ in 0..rows {
                    let len = c.u32()? as usize;
                    let s = std::str::from_utf8(c.bytes(len)?)
                        .map_err(|_| ValueError::invalid("codec: text not UTF-8"))?;
                    t.push(s);
                }
                ColumnData::Text(t)
            }
            DataType::Date => ColumnData::Date(
                c.bytes(c.counted(rows, 4)? * 4)?
                    .chunks_exact(4)
                    .map(|w| i32::from_le_bytes(w.try_into().unwrap()))
                    .collect(),
            ),
            DataType::Timestamp => ColumnData::Timestamp(
                c.bytes(c.counted(rows, 8)? * 8)?
                    .chunks_exact(8)
                    .map(|w| i64::from_le_bytes(w.try_into().unwrap()))
                    .collect(),
            ),
        };
        columns.push(Column::from_raw(data, validity));
    }
    if c.pos != bytes.len() {
        return Err(ValueError::invalid("codec: trailing bytes"));
    }
    Batch::new(Arc::new(Schema::new(fields)), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn roundtrip(b: &Batch) -> Batch {
        decode_batch(&encode_batch(b)).expect("decode")
    }

    #[test]
    fn typical_batch_round_trips() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("t", DataType::Text),
            Field::new("b", DataType::Bool),
            Field::new("d", DataType::Date),
            Field::new("ts", DataType::Timestamp),
        ]));
        let b = Batch::new(
            schema,
            vec![
                Column::from_opt_ints(vec![Some(i64::MIN), None, Some(7)]),
                Column::from_opt_floats(vec![Some(-0.0), Some(f64::NAN), None]),
                Column::from_opt_texts(vec![Some("héllo".into()), Some(String::new()), None]),
                Column::from_bools(vec![true, false, true]),
                Column::from_dates(vec![-719_162, 0, 2_932_896]),
                Column::from_timestamps(vec![i64::MIN, 0, i64::MAX]),
            ],
        )
        .unwrap();
        let d = roundtrip(&b);
        assert_eq!(d.schema(), b.schema());
        assert_eq!(d.num_rows(), b.num_rows());
        // Bitwise float check (== would pass NaN↔anything and -0.0↔0.0).
        let (orig, dec) = (b.column(1).floats().unwrap(), d.column(1).floats().unwrap());
        for (x, y) in orig.iter().zip(dec) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(d.value(0, 2), Value::Text("héllo".into()));
        assert_eq!(d.value(2, 2), Value::Null);
    }

    #[test]
    fn empty_batch_round_trips() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let b = Batch::empty(schema);
        let d = roundtrip(&b);
        assert_eq!(d, b);
        // And a zero-column batch.
        let none = Batch::empty(Arc::new(Schema::empty()));
        assert_eq!(roundtrip(&none), none);
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let b = Batch::new(schema, vec![Column::from_ints(vec![1, 2, 3])]).unwrap();
        let bytes = encode_batch(&b);
        // Truncations at every prefix length must error cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_batch(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_batch(&long).is_err());
        // A corrupted row-count word must error, not attempt a huge
        // allocation or overflow the width multiply. Layout for the
        // single field "x": magic(4) + nfields(4) + name_len(2) +
        // name(1) + dtype(1) = 12, so rows lives at [12..20).
        for huge in [u64::MAX, 1 << 60, 1 << 32] {
            let mut bad_rows = bytes.clone();
            bad_rows[12..20].copy_from_slice(&huge.to_le_bytes());
            assert!(decode_batch(&bad_rows).is_err(), "rows={huge}");
        }
        // Same for a corrupted field count.
        let mut bad_fields = bytes.clone();
        bad_fields[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch(&bad_fields).is_err());
        // And for a corrupted text-length word: huge string lengths must
        // error cleanly too.
        let tschema = Arc::new(Schema::new(vec![Field::new("t", DataType::Text)]));
        let tb = Batch::new(tschema, vec![Column::from_texts(vec!["abc".into()])]).unwrap();
        let tbytes = encode_batch(&tb);
        let text_len_at = tbytes.len() - 4 - 3; // last record: u32 len + "abc"
        let mut bad_text = tbytes.clone();
        bad_text[text_len_at..text_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch(&bad_text).is_err());
    }
}
