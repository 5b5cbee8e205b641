//! Typed columnar vectors with validity tracking.
//!
//! A [`Column`] stores values of a single [`DataType`] densely, with an
//! optional validity mask (absent means "no nulls"). Null slots hold an
//! arbitrary default in the data vector and must never be read through the
//! typed accessors without consulting validity.
//!
//! Fixed-width types are plain vectors. **Text is flat**: one contiguous
//! UTF-8 buffer holding every string back to back plus an offsets vector
//! (`rows + 1` entries), not a `Vec<String>`. Gathering, slicing,
//! concatenating, decoding or building a Text column therefore costs a
//! constant number of allocations per *column* — never one per cell — and
//! reading a cell ([`Texts::get`], [`Column::value_ref`]) borrows from the
//! buffer. Only [`Column::value`] (an owned [`Value`]) copies a string out.

use serde::{Content, Deserialize, Serialize};

use crate::error::ValueError;
use crate::types::{DataType, Value, ValueRef};

/// Flat Text storage: string `i` is `bytes[offsets[i]..offsets[i + 1]]`.
/// `offsets` always starts with 0 and has one entry more than there are
/// strings. Offsets are `u32`: one Text column holds at most 4 GiB of
/// string bytes (pushing past that panics, like a capacity overflow).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TextData {
    bytes: String,
    offsets: Vec<u32>,
}

impl TextData {
    pub(crate) fn with_capacity(rows: usize, bytes: usize) -> TextData {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        TextData {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn view(&self) -> Texts<'_> {
        Texts {
            bytes: &self.bytes,
            offsets: &self.offsets,
        }
    }

    pub(crate) fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.seal();
    }

    /// End the current string at the end of the buffer.
    fn seal(&mut self) {
        let end = u32::try_from(self.bytes.len()).expect("text column exceeds 4 GiB");
        self.offsets.push(end);
    }

    /// Build from `rows` string slices whose total length is `bytes` —
    /// exactly two allocations whatever the row count.
    fn collect<'a>(rows: usize, bytes: usize, strs: impl Iterator<Item = &'a str>) -> TextData {
        let mut out = TextData::with_capacity(rows, bytes);
        for s in strs {
            out.push(s);
        }
        out
    }

    fn from_strings(v: &[String]) -> TextData {
        let bytes = v.iter().map(String::len).sum();
        TextData::collect(v.len(), bytes, v.iter().map(String::as_str))
    }

    /// Gather by optional index (`None` = the empty-string default).
    fn gather(
        &self,
        rows: usize,
        indices: impl Iterator<Item = Option<usize>> + Clone,
    ) -> TextData {
        let view = self.view();
        let pick = move |ix: Option<usize>| ix.map_or("", |i| view.get(i));
        let bytes = indices.clone().map(|ix| pick(ix).len()).sum();
        TextData::collect(rows, bytes, indices.map(pick))
    }

    fn slice(&self, offset: usize, len: usize) -> TextData {
        let (start, end) = (self.offsets[offset], self.offsets[offset + len]);
        let mut offsets = Vec::with_capacity(len + 1);
        offsets.extend(
            self.offsets[offset..=offset + len]
                .iter()
                .map(|o| o - start),
        );
        TextData {
            bytes: self.bytes[start as usize..end as usize].to_string(),
            offsets,
        }
    }
}

impl Serialize for TextData {
    /// A sequence of strings — what `Vec<String>` serializes as.
    fn to_content(&self) -> Content {
        Content::Seq(
            self.view()
                .iter()
                .map(|s| Content::Str(s.to_string()))
                .collect(),
        )
    }
}

impl Deserialize for TextData {
    fn from_content(content: &Content) -> Result<TextData, serde::Error> {
        Ok(TextData::from_strings(&Vec::<String>::from_content(
            content,
        )?))
    }
}

/// Read-only view of a Text column's strings (validity not applied — pair
/// with [`Column::validity`], like the typed slice accessors).
#[derive(Debug, Clone, Copy)]
pub struct Texts<'a> {
    bytes: &'a str,
    offsets: &'a [u32],
}

impl<'a> Texts<'a> {
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// String at row `i`, borrowed from the column. Panics out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> &'a str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a str> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

impl std::ops::Index<usize> for Texts<'_> {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// Physical storage for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(TextData),
    Date(Vec<i32>),
    Timestamp(Vec<i64>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Text(t) => t.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text(_) => DataType::Text,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Timestamp(_) => DataType::Timestamp,
        }
    }

    fn with_capacity(dtype: DataType, cap: usize) -> ColumnData {
        match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text(TextData::with_capacity(cap, 0)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            DataType::Timestamp => ColumnData::Timestamp(Vec::with_capacity(cap)),
        }
    }
}

/// An immutable column of values sharing one [`DataType`].
///
/// Internals are `Arc`-shared: cloning a column (and therefore a `Batch`)
/// is O(1), which keeps scans, caches, and plan rewrites cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    data: std::sync::Arc<ColumnData>,
    /// `None` means every slot is valid. `Some(mask)` marks valid slots true.
    validity: Option<std::sync::Arc<Vec<bool>>>,
}

/// Split `Option`s into a validity mask and default-filled payloads.
fn split_opts<T: Default>(v: Vec<Option<T>>) -> (Vec<T>, Vec<bool>) {
    let validity = v.iter().map(Option::is_some).collect();
    let data = v.into_iter().map(Option::unwrap_or_default).collect();
    (data, validity)
}

impl Column {
    /// Build a column of `dtype` from scalar values, coercing `Int -> Float`
    /// and `Date -> Timestamp` where the declared type requires it.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Column, ValueError> {
        let mut b = ColumnBuilder::new(dtype, values.len());
        for v in values {
            b.push_ref(v.as_ref())?;
        }
        Ok(b.finish())
    }

    /// An all-null column of the given type and length.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let mut b = ColumnBuilder::new(dtype, len);
        for _ in 0..len {
            b.push_null();
        }
        b.finish()
    }

    pub fn from_bools(v: Vec<bool>) -> Column {
        Column::from_raw(ColumnData::Bool(v), None)
    }
    pub fn from_ints(v: Vec<i64>) -> Column {
        Column::from_raw(ColumnData::Int(v), None)
    }
    pub fn from_floats(v: Vec<f64>) -> Column {
        Column::from_raw(ColumnData::Float(v), None)
    }
    pub fn from_texts(v: Vec<String>) -> Column {
        Column::new_text(v, None)
    }
    pub fn from_dates(v: Vec<i32>) -> Column {
        Column::from_raw(ColumnData::Date(v), None)
    }
    pub fn from_timestamps(v: Vec<i64>) -> Column {
        Column::from_raw(ColumnData::Timestamp(v), None)
    }

    pub fn from_opt_ints(v: Vec<Option<i64>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_int(data, Some(validity))
    }
    pub fn from_opt_floats(v: Vec<Option<f64>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_float(data, Some(validity))
    }
    pub fn from_opt_texts(v: Vec<Option<String>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_text(data, Some(validity))
    }
    pub fn from_opt_bools(v: Vec<Option<bool>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_bool(data, Some(validity))
    }
    pub fn from_opt_dates(v: Vec<Option<i32>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_date(data, Some(validity))
    }
    pub fn from_opt_timestamps(v: Vec<Option<i64>>) -> Column {
        let (data, validity) = split_opts(v);
        Column::new_timestamp(data, Some(validity))
    }

    /// Typed constructors from raw kernel output: dense data plus an
    /// optional validity mask (`true` = valid). An all-true mask is
    /// normalized away so downstream fast paths see "no nulls"; null
    /// slots must hold the builder defaults (`0` / `0.0` / `false` /
    /// empty string) so bit-exact comparisons and the spill codec agree
    /// with [`ColumnBuilder`] output.
    pub fn new_bool(data: Vec<bool>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Bool(data), validity).normalized()
    }
    /// See [`Column::new_bool`].
    pub fn new_int(data: Vec<i64>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Int(data), validity).normalized()
    }
    /// See [`Column::new_bool`].
    pub fn new_float(data: Vec<f64>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Float(data), validity).normalized()
    }
    /// See [`Column::new_bool`]. The strings are copied into the column's
    /// flat buffer; code that produces text row by row should push into a
    /// [`ColumnBuilder`] ([`ColumnBuilder::push_str`]) instead of
    /// collecting `String`s first.
    pub fn new_text(data: Vec<String>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Text(TextData::from_strings(&data)), validity).normalized()
    }
    /// See [`Column::new_bool`].
    pub fn new_date(data: Vec<i32>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Date(data), validity).normalized()
    }
    /// See [`Column::new_bool`].
    pub fn new_timestamp(data: Vec<i64>, validity: Option<Vec<bool>>) -> Column {
        Column::from_raw(ColumnData::Timestamp(data), validity).normalized()
    }

    /// Drop the validity mask if it is all-true.
    fn normalized(mut self) -> Column {
        if let Some(mask) = &self.validity {
            if mask.iter().all(|&b| b) {
                self.validity = None;
            }
        }
        self
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(mask) => !mask[i],
            None => false,
        }
    }

    pub fn null_count(&self) -> usize {
        match &self.validity {
            Some(mask) => mask.iter().filter(|&&b| !b).count(),
            None => 0,
        }
    }

    /// Raw validity mask (`true` = valid), `None` when every slot is
    /// valid. Pair with the typed slice accessors ([`Column::ints`] and
    /// friends) to drive null handling in columnar kernels without a
    /// per-row [`Column::is_null`] call.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_ref().map(|m| m.as_slice())
    }

    /// Borrowed scalar at row `i` — never allocates; what row loops read.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        if self.is_null(i) {
            return ValueRef::Null;
        }
        match self.data.as_ref() {
            ColumnData::Bool(v) => ValueRef::Bool(v[i]),
            ColumnData::Int(v) => ValueRef::Int(v[i]),
            ColumnData::Float(v) => ValueRef::Float(v[i]),
            ColumnData::Text(t) => ValueRef::Text(t.view().get(i)),
            ColumnData::Date(v) => ValueRef::Date(v[i]),
            ColumnData::Timestamp(v) => ValueRef::Timestamp(v[i]),
        }
    }

    /// Owned scalar at row `i` (copies text out of the column).
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// Iterate scalars (clones text values).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Raw typed data, ignoring validity. Callers must pair with `is_null`.
    pub fn bools(&self) -> Option<&[bool]> {
        match self.data.as_ref() {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }
    pub fn ints(&self) -> Option<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }
    pub fn floats(&self) -> Option<&[f64]> {
        match self.data.as_ref() {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }
    pub fn texts(&self) -> Option<Texts<'_>> {
        match self.data.as_ref() {
            ColumnData::Text(t) => Some(t.view()),
            _ => None,
        }
    }
    pub fn dates(&self) -> Option<&[i32]> {
        match self.data.as_ref() {
            ColumnData::Date(v) => Some(v),
            _ => None,
        }
    }
    pub fn timestamps(&self) -> Option<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    /// Gather rows by index. Panics on out-of-bounds.
    pub fn take(&self, indices: &[usize]) -> Column {
        let validity = self
            .validity
            .as_ref()
            .map(|mask| indices.iter().map(|&i| mask[i]).collect::<Vec<_>>());
        // Drop an all-true mask produced by gathering only valid slots.
        let validity = validity.filter(|m| m.iter().any(|&b| !b));
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Text(t) => {
                ColumnData::Text(t.gather(indices.len(), indices.iter().map(|&i| Some(i))))
            }
            ColumnData::Date(v) => ColumnData::Date(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Timestamp(v) => {
                ColumnData::Timestamp(indices.iter().map(|&i| v[i]).collect())
            }
        };
        Column::from_raw(data, validity)
    }

    /// Keep rows where `mask` is true. `mask.len()` must equal `self.len()`.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }

    /// Gather rows by *optional* index: `None` produces a null slot
    /// holding the builder default payload, so the output is
    /// byte-identical to pushing `Value::Null` through a
    /// [`ColumnBuilder`]. This is the vectorized form of per-row
    /// `builder.push(src.value(i))` loops (join null-extension, window
    /// navigation functions) without boxing a [`Value`] per cell.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        fn gather<T: Copy>(src: &[T], indices: &[Option<usize>], default: T) -> Vec<T> {
            indices
                .iter()
                .map(|ix| ix.map_or(default, |i| src[i]))
                .collect()
        }
        let validity: Vec<bool> = indices
            .iter()
            .map(|ix| ix.is_some_and(|i| !self.is_null(i)))
            .collect();
        let validity = Some(validity).filter(|m| m.iter().any(|&b| !b));
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices, false)),
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices, 0)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices, 0.0)),
            ColumnData::Text(t) => {
                ColumnData::Text(t.gather(indices.len(), indices.iter().copied()))
            }
            ColumnData::Date(v) => ColumnData::Date(gather(v, indices, 0)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(gather(v, indices, 0)),
        };
        Column::from_raw(data, validity)
    }

    /// Contiguous sub-range `[offset, offset+len)` — a straight range
    /// copy (no per-element index gather; the morsel executor slices hot
    /// paths with this).
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        let validity = self
            .validity
            .as_ref()
            .map(|m| m[offset..offset + len].to_vec())
            .filter(|m| m.iter().any(|&b| !b));
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(v[offset..offset + len].to_vec()),
            ColumnData::Int(v) => ColumnData::Int(v[offset..offset + len].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[offset..offset + len].to_vec()),
            ColumnData::Text(t) => ColumnData::Text(t.slice(offset, len)),
            ColumnData::Date(v) => ColumnData::Date(v[offset..offset + len].to_vec()),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(v[offset..offset + len].to_vec()),
        };
        Column::from_raw(data, validity)
    }

    /// Concatenate same-typed columns. Payload vectors are extended
    /// slice-at-a-time (no per-cell [`Value`] boxing); null slots are
    /// rewritten to the builder defaults so the result is byte-identical
    /// to pushing every value through a [`ColumnBuilder`].
    pub fn concat(parts: &[&Column]) -> Result<Column, ValueError> {
        fn extend<T: Copy>(out: &mut Vec<T>, part: &Column, src: &[T], default: T) {
            match part.validity() {
                None => out.extend_from_slice(src),
                Some(mask) => out.extend(
                    src.iter()
                        .zip(mask)
                        .map(|(&v, &ok)| if ok { v } else { default }),
                ),
            }
        }
        let Some(first) = parts.first() else {
            return Err(ValueError::invalid("concat of zero columns"));
        };
        let mismatch = |part: &Column| ValueError::TypeMismatch {
            expected: first.dtype().name().to_string(),
            found: part.dtype().name().to_string(),
        };
        macro_rules! concat_as {
            ($variant:ident, $accessor:ident, $default:expr) => {{
                let mut out = Vec::with_capacity(parts.iter().map(|c| c.len()).sum());
                for part in parts {
                    let src = part.$accessor().ok_or_else(|| mismatch(part))?;
                    extend(&mut out, part, src, $default);
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match first.data.as_ref() {
            ColumnData::Bool(_) => concat_as!(Bool, bools, false),
            ColumnData::Int(_) => concat_as!(Int, ints, 0i64),
            ColumnData::Float(_) => concat_as!(Float, floats, 0.0f64),
            ColumnData::Text(_) => {
                let mut views = Vec::with_capacity(parts.len());
                for part in parts {
                    views.push((part.texts().ok_or_else(|| mismatch(part))?, part.validity()));
                }
                let strs = || {
                    views.iter().flat_map(|(texts, mask)| {
                        texts
                            .iter()
                            .enumerate()
                            .map(move |(i, s)| if mask.is_none_or(|m| m[i]) { s } else { "" })
                    })
                };
                let rows = parts.iter().map(|c| c.len()).sum();
                let bytes = strs().map(str::len).sum();
                ColumnData::Text(TextData::collect(rows, bytes, strs()))
            }
            ColumnData::Date(_) => concat_as!(Date, dates, 0i32),
            ColumnData::Timestamp(_) => concat_as!(Timestamp, timestamps, 0i64),
        };
        let any_invalid = parts
            .iter()
            .any(|c| c.validity().is_some_and(|m| m.iter().any(|&b| !b)));
        let validity = any_invalid.then(|| {
            let mut mask = Vec::with_capacity(data.len());
            for part in parts {
                match part.validity() {
                    Some(m) => mask.extend_from_slice(m),
                    None => mask.extend(std::iter::repeat_n(true, part.len())),
                }
            }
            mask
        });
        Ok(Column::from_raw(data, validity))
    }

    /// Number of distinct non-null values (exact; used by prefetch policy
    /// and pivot-value discovery).
    pub fn distinct_count(&self) -> usize {
        let keys = crate::hash::KeyCols::new(&[self]);
        let mut seen = crate::hash::KeyIndex::new();
        for i in (0..self.len()).filter(|&i| !self.is_null(i)) {
            seen.intern_row(&keys, i);
        }
        seen.len()
    }

    /// Bytes one row's entry in a Text column's offsets vector occupies.
    pub const TEXT_OFFSET_BYTES: usize = std::mem::size_of::<u32>();

    /// Fixed per-column overhead in [`Column::byte_size`]: the
    /// heap-allocated `ColumnData` enum behind the `Arc` (discriminant +
    /// inline buffer headers) plus the two `Arc` control blocks'
    /// strong/weak counters.
    pub const FIXED_BYTES: usize = std::mem::size_of::<ColumnData>() + 2 * 16;

    /// Heap footprint in bytes, the figure cache/memory budgets charge.
    ///
    /// The accounting is deliberately complete — decisions like "does this
    /// operator state fit in the execution memory budget" are only as good
    /// as the estimate feeding them:
    ///
    /// * fixed-width payloads at their physical width (`Int`/`Timestamp` 8,
    ///   `Float` 8, `Date` 4, `Bool` 1 — `Vec<bool>` stores one byte per
    ///   element),
    /// * **Text**: the string bytes plus [`Column::TEXT_OFFSET_BYTES`] per
    ///   offsets entry (`rows + 1` of them — an empty string still costs
    ///   its offset),
    /// * the **null bitmap**: one byte per row when a validity mask is
    ///   present (`Vec<bool>`),
    /// * [`Column::FIXED_BYTES`] of per-column container overhead.
    ///
    /// O(1) for every type (a Text column never walks its strings).
    pub fn byte_size(&self) -> usize {
        let base = match self.data.as_ref() {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Text(t) => t.bytes.len() + t.offsets.len() * Self::TEXT_OFFSET_BYTES,
            ColumnData::Date(v) => v.len() * 4,
            ColumnData::Timestamp(v) => v.len() * 8,
        };
        Self::FIXED_BYTES + base + self.validity.as_ref().map_or(0, |m| m.len())
    }

    /// Crate-internal raw view for the binary codec: physical data
    /// (including the arbitrary defaults stored in null slots, which must
    /// round-trip bit-exactly) plus the validity mask.
    pub(crate) fn raw_parts(&self) -> (&ColumnData, Option<&[bool]>) {
        (
            self.data.as_ref(),
            self.validity.as_ref().map(|m| m.as_slice()),
        )
    }

    /// Crate-internal constructor from raw storage (the codec's decode
    /// path). `validity` is taken verbatim — no all-true normalization —
    /// so `decode(encode(c))` reproduces `c` exactly.
    pub(crate) fn from_raw(data: ColumnData, validity: Option<Vec<bool>>) -> Column {
        Column {
            data: std::sync::Arc::new(data),
            validity: validity.map(std::sync::Arc::new),
        }
    }
}

/// Cast a scalar to `target`, erroring on lossy/unsupported casts.
pub fn cast_value(v: Value, target: DataType) -> Result<Value, ValueError> {
    use crate::calendar;
    if v.is_null() {
        return Ok(Value::Null);
    }
    if v.dtype() == Some(target) {
        return Ok(v);
    }
    let err = |v: &Value| ValueError::Parse {
        input: v.render(),
        target: target.name().to_string(),
    };
    match target {
        DataType::Bool => match &v {
            Value::Text(s) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
                "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
                _ => Err(err(&v)),
            },
            Value::Int(i) => Ok(Value::Bool(*i != 0)),
            _ => Err(err(&v)),
        },
        DataType::Int => match &v {
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Text(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| err(&v)),
            _ => Err(err(&v)),
        },
        DataType::Float => match &v {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
            Value::Text(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(&v)),
            _ => Err(err(&v)),
        },
        DataType::Text => Ok(Value::Text(v.render())),
        DataType::Date => match &v {
            Value::Timestamp(t) => Ok(Value::Date(t.div_euclid(calendar::MICROS_PER_DAY) as i32)),
            Value::Text(s) => calendar::parse_date(s)
                .map(Value::Date)
                .ok_or_else(|| err(&v)),
            _ => Err(err(&v)),
        },
        DataType::Timestamp => match &v {
            Value::Date(d) => Ok(Value::Timestamp(*d as i64 * calendar::MICROS_PER_DAY)),
            Value::Text(s) => calendar::parse_timestamp(s)
                .map(Value::Timestamp)
                .ok_or_else(|| err(&v)),
            _ => Err(err(&v)),
        },
    }
}

/// Incrementally builds a [`Column`], tracking validity lazily.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Vec<bool>,
    any_null: bool,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType, capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            data: ColumnData::with_capacity(dtype, capacity),
            validity: Vec::with_capacity(capacity),
            any_null: false,
        }
    }

    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push_null(&mut self) {
        self.any_null = true;
        self.validity.push(false);
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Text(t) => t.push(""),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Timestamp(v) => v.push(0),
        }
    }

    /// Push a scalar, coercing `Int -> Float` and `Date -> Timestamp` when
    /// the builder's type requires it.
    pub fn push(&mut self, v: Value) -> Result<(), ValueError> {
        self.push_ref(v.as_ref())
    }

    /// [`ColumnBuilder::push`] for a borrowed scalar: text is copied
    /// straight into the column's buffer, no `String` in between.
    pub fn push_ref(&mut self, v: ValueRef<'_>) -> Result<(), ValueError> {
        match (&mut self.data, v) {
            (_, ValueRef::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::Bool(vec), ValueRef::Bool(x)) => vec.push(x),
            (ColumnData::Int(vec), ValueRef::Int(x)) => vec.push(x),
            (ColumnData::Float(vec), ValueRef::Float(x)) => vec.push(x),
            (ColumnData::Float(vec), ValueRef::Int(x)) => vec.push(x as f64),
            (ColumnData::Text(t), ValueRef::Text(x)) => t.push(x),
            (ColumnData::Date(vec), ValueRef::Date(x)) => vec.push(x),
            (ColumnData::Timestamp(vec), ValueRef::Timestamp(x)) => vec.push(x),
            (ColumnData::Timestamp(vec), ValueRef::Date(x)) => {
                vec.push(x as i64 * crate::calendar::MICROS_PER_DAY)
            }
            (_, v) => {
                return Err(ValueError::TypeMismatch {
                    expected: self.dtype().name().to_string(),
                    found: v.dtype().map_or("", DataType::name).to_string(),
                })
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Push a string into a Text builder.
    pub fn push_str(&mut self, s: &str) -> Result<(), ValueError> {
        self.push_ref(ValueRef::Text(s))
    }

    /// Push one row into a Text builder by letting `write` **append** its
    /// text to the column's buffer — how kernels emit computed text
    /// (concatenations, case folds, replacements) without a `String` per
    /// row. `write` returns whether the row has a value: `false` discards
    /// what it appended and pushes NULL. It must only append; panics if it
    /// shortened the buffer.
    pub fn push_str_with(
        &mut self,
        write: impl FnOnce(&mut String) -> bool,
    ) -> Result<(), ValueError> {
        let ColumnData::Text(t) = &mut self.data else {
            return Err(ValueError::TypeMismatch {
                expected: self.dtype().name().to_string(),
                found: DataType::Text.name().to_string(),
            });
        };
        let start = t.bytes.len();
        let valid = write(&mut t.bytes);
        assert!(t.bytes.len() >= start, "push_str_with callback truncated");
        if !valid {
            t.bytes.truncate(start);
            self.any_null = true;
        }
        t.seal();
        self.validity.push(valid);
        Ok(())
    }

    pub fn finish(mut self) -> Column {
        if let ColumnData::Text(t) = &mut self.data {
            // The byte buffer grew by doubling; a finished column may live
            // as long as a table does.
            t.bytes.shrink_to_fit();
        }
        Column::from_raw(self.data, self.any_null.then_some(self.validity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `byte_size` must charge the null bitmap and the string heap, not
    /// just raw payload width — budget decisions depend on it. The
    /// expected figures are computed by hand from the documented formula.
    #[test]
    #[allow(clippy::identity_op)] // per-string terms spelled out row by row
    fn byte_size_known_columns() {
        // 4 ints, no nulls: fixed + 4*8.
        let ints = Column::from_ints(vec![1, 2, 3, 4]);
        assert_eq!(ints.byte_size(), Column::FIXED_BYTES + 32);

        // 3 ints with a null: fixed + 3*8 payload + 3-byte validity bitmap.
        let opt = Column::from_opt_ints(vec![Some(1), None, Some(3)]);
        assert_eq!(opt.byte_size(), Column::FIXED_BYTES + 24 + 3);

        // Text: the string bytes plus one offsets entry per row and one
        // more for the end; the null slot holds an empty string but still
        // pays its offset, and the mask adds one byte per row.
        let texts =
            Column::from_opt_texts(vec![Some("ab".to_string()), None, Some("xyz".to_string())]);
        assert_eq!(
            texts.byte_size(),
            Column::FIXED_BYTES + Column::TEXT_OFFSET_BYTES * (3 + 1) + (2 + 0 + 3) + 3
        );

        // Dates are 4 bytes, bools 1 byte (Vec<bool> is byte-per-element).
        assert_eq!(
            Column::from_dates(vec![0, 1]).byte_size(),
            Column::FIXED_BYTES + 8
        );
        assert_eq!(
            Column::from_bools(vec![true, false, true]).byte_size(),
            Column::FIXED_BYTES + 3
        );
    }

    #[test]
    fn raw_constructors_normalize_and_expose_validity() {
        // All-true masks are dropped, so kernels can branch on `validity()`.
        let dense = Column::new_int(vec![1, 2], Some(vec![true, true]));
        assert!(dense.validity().is_none());
        assert_eq!(dense.null_count(), 0);

        let sparse = Column::new_float(vec![1.5, 0.0], Some(vec![true, false]));
        assert_eq!(sparse.validity(), Some(&[true, false][..]));
        assert_eq!(sparse.value(1), Value::Null);
        assert_eq!(sparse.dtype(), DataType::Float);

        // Every dtype has a raw constructor and the Option-based family.
        assert_eq!(
            Column::new_bool(vec![true], None).value(0),
            Value::Bool(true)
        );
        assert_eq!(
            Column::new_text(vec!["x".into()], None).value(0),
            Value::Text("x".into())
        );
        assert_eq!(Column::new_date(vec![3], None).dtype(), DataType::Date);
        assert_eq!(
            Column::new_timestamp(vec![5], None).dtype(),
            DataType::Timestamp
        );
        assert!(Column::from_opt_bools(vec![Some(true), None]).is_null(1));
        assert!(Column::from_opt_dates(vec![None, Some(1)]).is_null(0));
        assert!(Column::from_opt_timestamps(vec![Some(9), None]).is_null(1));
    }

    #[test]
    fn build_and_read_with_nulls() {
        let col = Column::from_opt_ints(vec![Some(1), None, Some(3)]);
        assert_eq!(col.len(), 3);
        assert_eq!(col.dtype(), DataType::Int);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(3));
    }

    #[test]
    fn no_nulls_drops_mask() {
        let col = Column::from_opt_ints(vec![Some(1), Some(2)]);
        assert_eq!(col.null_count(), 0);
        assert!(!col.is_null(0));
    }

    #[test]
    fn builder_coerces_int_to_float() {
        let mut b = ColumnBuilder::new(DataType::Float, 2);
        b.push(Value::Int(2)).unwrap();
        b.push(Value::Float(0.5)).unwrap();
        let col = b.finish();
        assert_eq!(col.floats().unwrap(), &[2.0, 0.5]);
    }

    #[test]
    fn builder_rejects_mismatch() {
        let mut b = ColumnBuilder::new(DataType::Int, 1);
        assert!(b.push(Value::Text("x".into())).is_err());
    }

    #[test]
    fn take_filter_slice() {
        let col = Column::from_opt_ints(vec![Some(10), None, Some(30), Some(40)]);
        let taken = col.take(&[3, 0]);
        assert_eq!(taken.value(0), Value::Int(40));
        assert_eq!(taken.value(1), Value::Int(10));
        let filtered = col.filter(&[true, true, false, false]);
        assert_eq!(filtered.len(), 2);
        assert!(filtered.is_null(1));
        let sliced = col.slice(1, 2);
        assert_eq!(sliced.len(), 2);
        assert!(sliced.is_null(0));
        assert_eq!(sliced.value(1), Value::Int(30));
    }

    /// `take_opt` is the vectorized form of a builder loop pushing
    /// `src.value(i)` / `Value::Null` — outputs must match that loop
    /// byte-for-byte (null slots hold builder defaults, all-valid masks
    /// are dropped).
    #[test]
    fn take_opt_matches_builder_loop() {
        let col =
            Column::from_opt_texts(vec![Some("a".to_string()), None, Some("ccc".to_string())]);
        let indices = [Some(2), None, Some(1), Some(0), None];
        let fast = col.take_opt(&indices);
        let mut b = ColumnBuilder::new(DataType::Text, indices.len());
        for ix in indices {
            match ix {
                Some(i) => b.push(col.value(i)).unwrap(),
                None => b.push_null(),
            }
        }
        assert_eq!(fast, b.finish());

        // No `None`s over a dense source: the mask is dropped entirely.
        let dense = Column::from_ints(vec![1, 2, 3]).take_opt(&[Some(0), Some(2)]);
        assert!(dense.validity().is_none());
        assert_eq!(dense.ints().unwrap(), &[1, 3]);
    }

    /// The slice-at-a-time `concat` must be byte-identical to the
    /// builder-based one it replaced: null slots rewritten to defaults,
    /// no validity mask unless a real null is present.
    #[test]
    fn concat_matches_builder_loop() {
        let cases: Vec<Vec<Column>> = vec![
            vec![
                Column::from_opt_ints(vec![Some(1), None]),
                Column::from_ints(vec![7, 8, 9]),
            ],
            vec![
                Column::from_opt_texts(vec![Some("xy".into()), None]),
                Column::from_texts(vec!["z".into()]),
            ],
            vec![
                Column::from_opt_floats(vec![None, Some(2.5)]),
                Column::from_opt_floats(vec![Some(-0.0)]),
            ],
            // All-valid parts: result must carry no mask at all.
            vec![
                Column::from_bools(vec![true]),
                Column::from_bools(vec![false, true]),
            ],
        ];
        for cols in cases {
            let refs: Vec<&Column> = cols.iter().collect();
            let fast = Column::concat(&refs).unwrap();
            let mut b = ColumnBuilder::new(cols[0].dtype(), fast.len());
            for part in &cols {
                for i in 0..part.len() {
                    b.push(part.value(i)).unwrap();
                }
            }
            assert_eq!(fast, b.finish());
        }
    }

    #[test]
    fn concat_checks_types() {
        let a = Column::from_ints(vec![1]);
        let b = Column::from_ints(vec![2]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 2);
        let t = Column::from_texts(vec!["x".into()]);
        assert!(Column::concat(&[&a, &t]).is_err());
    }

    #[test]
    fn distinct_count_ignores_nulls() {
        let col = Column::from_opt_ints(vec![Some(1), Some(1), None, Some(2)]);
        assert_eq!(col.distinct_count(), 2);
    }

    #[test]
    fn cast_value_bool_text() {
        assert_eq!(
            cast_value(Value::Text("TRUE".into()), DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert!(cast_value(Value::Text("maybe".into()), DataType::Bool).is_err());
    }
}
