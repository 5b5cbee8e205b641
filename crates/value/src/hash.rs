//! Row keys: the canonical byte encoding of a key row, and the one index
//! that maps such keys to dense ids.
//!
//! Group-by, distinct, join and window-partition operators all ask the
//! same question — "have I seen this key row, and which one was it?".
//! The answer has two halves:
//!
//! * **The encoding** ([`encode_value`], [`KeyCols::encode`]) decides which
//!   rows are the same key. `encode(a) == encode(b)` iff the rows are
//!   equal as *group keys*: `Int(2)` and `Float(2.0)` encode identically,
//!   every NaN collapses to one key, `-0.0` is `0.0`, a `Date` equals the
//!   `Timestamp` of its midnight, and NULL equals NULL. Text carries its
//!   length, so `("ab", "c")` and `("a", "bc")` differ.
//! * **[`KeyIndex`]** interns encoded keys: each distinct key is stored
//!   once in an arena and gets the next dense id, in first-seen order.
//!   Looking a row up costs one encode into a reused buffer, one hash and
//!   (almost always) one byte compare — no allocation per row. Operators
//!   hang their per-key state (aggregate states, row lists) off the id in
//!   plain vectors.
//!
//! First-seen ids are what make every consumer deterministic: the id
//! sequence depends on row order alone, never on hash values or table
//! size.

use crate::column::{Column, Texts};
use crate::types::{Value, ValueRef};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_NUM: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_TEMPORAL: u8 = 4;

/// Append the canonical encoding of one scalar to `buf`.
pub fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    encode_value_ref(v.as_ref(), buf)
}

/// [`encode_value`] for a borrowed scalar.
pub fn encode_value_ref(v: ValueRef<'_>, buf: &mut Vec<u8>) {
    match v {
        ValueRef::Null => buf.push(TAG_NULL),
        ValueRef::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(b as u8);
        }
        // Ints that fit exactly in f64 share an encoding with the equal
        // float, so mixed-type keys group correctly.
        ValueRef::Int(i) => encode_num(i as f64, buf),
        ValueRef::Float(f) => encode_num(f, buf),
        ValueRef::Text(s) => encode_text(s, buf),
        ValueRef::Date(d) => encode_micros(d as i64 * crate::calendar::MICROS_PER_DAY, buf),
        ValueRef::Timestamp(t) => encode_micros(t, buf),
    }
}

fn encode_num(f: f64, buf: &mut Vec<u8>) {
    // Canonicalize -0.0 to +0.0 and all NaNs to one bit pattern.
    let canon = if f == 0.0 {
        0.0f64
    } else if f.is_nan() {
        f64::NAN
    } else {
        f
    };
    buf.push(TAG_NUM);
    buf.extend_from_slice(&canon.to_bits().to_le_bytes());
}

fn encode_text(s: &str, buf: &mut Vec<u8>) {
    buf.push(TAG_TEXT);
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_micros(t: i64, buf: &mut Vec<u8>) {
    buf.push(TAG_TEMPORAL);
    buf.extend_from_slice(&t.to_le_bytes());
}

/// Append the encoding of row `row` of each key column to `buf`.
/// (One-off form; loops resolve the columns once with [`KeyCols`].)
pub fn encode_key(columns: &[&Column], row: usize, buf: &mut Vec<u8>) {
    for col in columns {
        encode_value_ref(col.value_ref(row), buf);
    }
}

/// Key columns resolved to typed slices once, so encoding a row is a
/// match on a local enum per column instead of a trip through each
/// column's `Arc` and type tag.
pub struct KeyCols<'a> {
    cols: Vec<(KeyData<'a>, Option<&'a [bool]>)>,
}

enum KeyData<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Text(Texts<'a>),
    Date(&'a [i32]),
    Timestamp(&'a [i64]),
}

impl<'a> KeyCols<'a> {
    pub fn new(columns: &[&'a Column]) -> KeyCols<'a> {
        let cols = columns
            .iter()
            .map(|c| {
                let data = if let Some(v) = c.ints() {
                    KeyData::Int(v)
                } else if let Some(v) = c.floats() {
                    KeyData::Float(v)
                } else if let Some(v) = c.texts() {
                    KeyData::Text(v)
                } else if let Some(v) = c.dates() {
                    KeyData::Date(v)
                } else if let Some(v) = c.timestamps() {
                    KeyData::Timestamp(v)
                } else {
                    KeyData::Bool(c.bools().expect("six column types"))
                };
                (data, c.validity())
            })
            .collect();
        KeyCols { cols }
    }

    /// Does any key column hold NULL at `row`? (Join keys never match on
    /// NULL; callers skip such rows before interning.)
    pub fn any_null(&self, row: usize) -> bool {
        self.cols
            .iter()
            .any(|(_, mask)| mask.is_some_and(|m| !m[row]))
    }

    /// The encoding of key row `row`, written over `buf` (a buffer the
    /// caller reuses from row to row).
    pub fn key<'b>(&self, row: usize, buf: &'b mut Vec<u8>) -> &'b [u8] {
        buf.clear();
        self.encode(row, buf);
        buf
    }

    /// Append the encoding of key row `row` to `buf` — byte-identical to
    /// [`encode_key`] over the same columns.
    pub fn encode(&self, row: usize, buf: &mut Vec<u8>) {
        for (data, mask) in &self.cols {
            if mask.is_some_and(|m| !m[row]) {
                buf.push(TAG_NULL);
                continue;
            }
            match data {
                KeyData::Bool(v) => {
                    buf.push(TAG_BOOL);
                    buf.push(v[row] as u8);
                }
                KeyData::Int(v) => encode_num(v[row] as f64, buf),
                KeyData::Float(v) => encode_num(v[row], buf),
                KeyData::Text(v) => encode_text(v.get(row), buf),
                KeyData::Date(v) => {
                    encode_micros(v[row] as i64 * crate::calendar::MICROS_PER_DAY, buf)
                }
                KeyData::Timestamp(v) => encode_micros(v[row], buf),
            }
        }
    }
}

/// Hash of an encoded key. Not a keyed hash: ids never depend on it (they
/// are first-seen), so it only has to spread keys, and it has to be cheap
/// — SipHash on a 13-byte key costs more than the rest of the lookup.
/// Multiply-and-fold per 8-byte word; the fold brings the well-mixed high
/// half down, because the table indexes with the low bits and numeric
/// keys differ mostly in their high bytes. (Measured at load 0.5: 1.45
/// probes per insert on sequential ints, dates, floats and text keys —
/// what a random function gives.)
fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| {
        let x = (h ^ word).wrapping_mul(K);
        x ^ (x >> 32)
    };
    let mut h = (key.len() as u64).wrapping_mul(K);
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = mix(h, u64::from_le_bytes(tail));
    h.wrapping_mul(K) ^ (h >> 29)
}

/// Encoded key → dense id, ids handed out in first-seen order.
///
/// Open addressing over a power-of-two slot table; each distinct key's
/// bytes live once in `arena`. `entries[id]` is the key's end offset in
/// the arena and its hash (kept so growing the table never re-reads keys).
/// Memory is O(distinct keys); an empty index allocates nothing.
#[derive(Debug, Default)]
pub struct KeyIndex {
    arena: Vec<u8>,
    entries: Vec<(usize, u64)>,
    /// `id + 1`, or 0 for an empty slot.
    slots: Vec<u32>,
    /// Reused buffer for [`KeyIndex::intern_row`].
    scratch: Vec<u8>,
}

impl KeyIndex {
    pub fn new() -> KeyIndex {
        KeyIndex::default()
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The encoded bytes of key `id`.
    pub fn key(&self, id: usize) -> &[u8] {
        let start = if id == 0 { 0 } else { self.entries[id - 1].0 };
        &self.arena[start..self.entries[id].0]
    }

    /// Every interned key, in id order.
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|id| self.key(id))
    }

    /// Slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: &[u8], hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return slot,
                tagged => {
                    let id = tagged as usize - 1;
                    if self.entries[id].1 == hash && self.key(id) == key {
                        return slot;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Id of `key` if it was interned.
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(key, hash_key(key))] {
            0 => None,
            tagged => Some(tagged as usize - 1),
        }
    }

    /// Id of `key`, interning it with the next id if new; the flag says
    /// whether it was new.
    pub fn intern(&mut self, key: &[u8]) -> (usize, bool) {
        // Keep the table at most half full.
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash_key(key);
        let slot = self.probe(key, hash);
        if let Some(id) = (self.slots[slot] as usize).checked_sub(1) {
            return (id, false);
        }
        let id = self.entries.len();
        self.arena.extend_from_slice(key);
        self.entries.push((self.arena.len(), hash));
        self.slots[slot] = u32::try_from(id + 1).expect("key index holds at most 2^32 - 1 keys");
        (id, true)
    }

    /// [`KeyIndex::intern`] of key row `row` of `cols`.
    pub fn intern_row(&mut self, cols: &KeyCols<'_>, row: usize) -> (usize, bool) {
        let mut key = std::mem::take(&mut self.scratch);
        let out = self.intern(cols.key(row, &mut key));
        self.scratch = key;
        out
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(size, 0);
        let mask = size - 1;
        for (id, &(_, hash)) in self.entries.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: &Value) -> Vec<u8> {
        let mut b = Vec::new();
        encode_value(v, &mut b);
        b
    }

    #[test]
    fn int_float_equal_values_share_encoding() {
        assert_eq!(enc(&Value::Int(2)), enc(&Value::Float(2.0)));
        assert_ne!(enc(&Value::Int(2)), enc(&Value::Float(2.5)));
    }

    #[test]
    fn zero_and_nan_canonicalized() {
        assert_eq!(enc(&Value::Float(0.0)), enc(&Value::Float(-0.0)));
        let nan1 = f64::NAN;
        let nan2 = f64::from_bits(nan1.to_bits() | 1);
        assert_eq!(enc(&Value::Float(nan1)), enc(&Value::Float(nan2)));
    }

    #[test]
    fn date_timestamp_same_instant_share_encoding() {
        assert_eq!(
            enc(&Value::Date(3)),
            enc(&Value::Timestamp(3 * crate::calendar::MICROS_PER_DAY))
        );
    }

    #[test]
    fn text_prefix_safety() {
        // ("ab", "c") must not collide with ("a", "bc").
        let mut k1 = Vec::new();
        encode_value(&Value::Text("ab".into()), &mut k1);
        encode_value(&Value::Text("c".into()), &mut k1);
        let mut k2 = Vec::new();
        encode_value(&Value::Text("a".into()), &mut k2);
        encode_value(&Value::Text("bc".into()), &mut k2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn encode_key_matches_encode_value() {
        let col = Column::from_opt_ints(vec![Some(5), None]);
        let mut fast = Vec::new();
        encode_key(&[&col], 0, &mut fast);
        assert_eq!(fast, enc(&Value::Int(5)));
        let mut null_key = Vec::new();
        encode_key(&[&col], 1, &mut null_key);
        assert_eq!(null_key, enc(&Value::Null));
    }

    #[test]
    fn key_cols_encode_matches_encode_key() {
        let cols = [
            Column::from_opt_ints(vec![Some(5), None]),
            Column::from_texts(vec!["ab".into(), "".into()]),
            Column::from_dates(vec![3, -1]),
            Column::from_opt_bools(vec![None, Some(true)]),
        ];
        let refs: Vec<&Column> = cols.iter().collect();
        let keys = KeyCols::new(&refs);
        for row in 0..2 {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            keys.encode(row, &mut fast);
            encode_key(&refs, row, &mut slow);
            assert_eq!(fast, slow);
        }
        assert!(keys.any_null(0) && keys.any_null(1));
    }

    #[test]
    fn key_index_hands_out_first_seen_ids() {
        let mut index = KeyIndex::new();
        assert_eq!(index.find(b"a"), None);
        let mut ids = Vec::new();
        // Enough keys to force several table growths.
        for i in 0..1000u32 {
            let key = (i % 300).to_le_bytes();
            let (id, new) = index.intern(&key);
            assert_eq!(new, i < 300);
            ids.push(id);
        }
        assert_eq!(index.len(), 300);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, i % 300);
            assert_eq!(index.key(*id), &((i % 300) as u32).to_le_bytes());
        }
        assert_eq!(index.find(&7u32.to_le_bytes()), Some(7));
        assert_eq!(index.find(&300u32.to_le_bytes()), None);
        // The empty key is a key like any other (global aggregates).
        assert_eq!(index.intern(b""), (300, true));
        assert_eq!(index.find(b""), Some(300));
        assert_eq!(index.keys().count(), 301);
    }
}
