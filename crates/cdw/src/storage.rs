//! Partitioned columnar table storage and spill-file management.
//!
//! Tables hold their rows as a list of same-schema [`Batch`] partitions, the
//! unit of parallel scanning. Writes append new partitions; UPDATE/DELETE
//! rewrite affected partitions in place (the simulator favors simplicity
//! over MVCC — the paper's warehouses own that problem).
//!
//! The spill half ([`SpillWriter`] / [`SpillHandle`] / [`SpillReader`])
//! backs the memory-budgeted operators in [`crate::exec`]: a spill file is
//! a sequence of length-prefixed records in the `sigma_value::codec` wire
//! format, written once, then read back sequentially (pages of an external
//! sort run, per-bucket rows of a spilling aggregation or Grace join).
//! Files live under a per-process directory in the OS temp dir and are
//! deleted when their handle drops, so even a panicking query leaks at
//! most the files of its own process lifetime. Ownership keeps cleanup
//! panic-safe without registries: writers and handles live either on the
//! query thread or inside the scheduler's per-item slots, so any
//! unwind — a worker killed mid-read, an I/O error mid-write — drops
//! them and removes their files. Whichever drop empties the directory
//! also removes it, so a finished process leaves no residue at all.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sigma_value::{codec, Batch, Schema};

use crate::error::CdwError;

/// Default number of rows per partition for bulk loads.
pub const DEFAULT_PARTITION_ROWS: usize = 65_536;

/// One stored table. Cloning it bumps one `Arc` per column per
/// partition, which is how a [`crate::plan::Plan::Scan`] holds the rows
/// it was planned against.
#[derive(Clone)]
pub struct StoredTable {
    schema: Arc<Schema>,
    partitions: Vec<Batch>,
}

/// The shape, not the rows: a plan's `Debug` text stays readable.
impl std::fmt::Debug for StoredTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredTable")
            .field("schema", &self.schema)
            .field("rows", &self.num_rows())
            .field("partitions", &self.partitions.len())
            .finish()
    }
}

impl StoredTable {
    pub fn empty(schema: Arc<Schema>) -> StoredTable {
        StoredTable {
            schema,
            partitions: Vec::new(),
        }
    }

    /// Build from a single batch, splitting into partitions of
    /// `partition_rows` rows.
    pub fn from_batch(batch: Batch, partition_rows: usize) -> StoredTable {
        let schema = batch.schema().clone();
        let mut partitions = Vec::new();
        let rows = batch.num_rows();
        if rows == 0 {
            return StoredTable { schema, partitions };
        }
        let step = partition_rows.max(1);
        let mut start = 0;
        while start < rows {
            let len = step.min(rows - start);
            partitions.push(batch.slice(start, len));
            start += len;
        }
        StoredTable { schema, partitions }
    }

    /// Build from explicit partitions (possibly wildly uneven — skew
    /// tests and benches use this to pin scheduler behavior that uniform
    /// `from_batch` splits can't reach). Partitions must agree with the
    /// first batch's column types positionally; empty partitions are
    /// legal and preserved.
    pub fn from_parts(parts: Vec<Batch>) -> Result<StoredTable, CdwError> {
        let Some(first) = parts.first() else {
            return Err(CdwError::exec("from_parts requires at least one batch"));
        };
        let mut table = StoredTable::empty(first.schema().clone());
        for part in parts {
            table.append(part)?;
        }
        Ok(table)
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn partitions(&self) -> &[Batch] {
        &self.partitions
    }

    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|b| b.num_rows()).sum()
    }

    pub fn byte_size(&self) -> usize {
        self.partitions.iter().map(|b| b.byte_size()).sum()
    }

    /// Append a batch (schema must match by type, positionally).
    pub fn append(&mut self, batch: Batch) -> Result<(), CdwError> {
        if batch.num_columns() != self.schema.len() {
            return Err(CdwError::exec(format!(
                "insert has {} columns, table has {}",
                batch.num_columns(),
                self.schema.len()
            )));
        }
        for (i, field) in self.schema.fields().iter().enumerate() {
            if batch.column(i).dtype() != field.dtype {
                return Err(CdwError::exec(format!(
                    "insert column {} has type {}, expected {}",
                    field.name,
                    batch.column(i).dtype(),
                    field.dtype
                )));
            }
        }
        // Re-tag the batch with the table's schema so names line up.
        let retagged =
            Batch::new(self.schema.clone(), batch.columns().to_vec()).map_err(CdwError::from)?;
        self.partitions.push(retagged);
        Ok(())
    }

    /// Replace all partitions (used by UPDATE/DELETE rewrites and CTAS
    /// OR REPLACE).
    pub fn replace_all(&mut self, batch: Batch, partition_rows: usize) {
        let table = StoredTable::from_batch(batch, partition_rows);
        self.schema = table.schema;
        self.partitions = table.partitions;
    }

    /// Materialize the whole table as one batch.
    pub fn to_batch(&self) -> Batch {
        if self.partitions.is_empty() {
            return Batch::empty(self.schema.clone());
        }
        let refs: Vec<&Batch> = self.partitions.iter().collect();
        Batch::concat(&refs).expect("partitions share a schema")
    }
}

// ---------------------------------------------------------------------
// spill files
// ---------------------------------------------------------------------

/// Monotone id source for spill-file names (process-wide, so concurrent
/// queries and worker threads never collide).
static NEXT_SPILL_ID: AtomicU64 = AtomicU64::new(0);

fn spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("sigma-spill-{}", std::process::id()))
}

/// Reclaim the per-process directory once it holds no files. `remove_dir`
/// refuses non-empty directories, so calling it after every file removal
/// deletes the directory exactly when the last spill file is gone (and is
/// a cheap no-op otherwise).
fn remove_spill_dir_if_empty(path: &std::path::Path) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
}

fn io_err(what: &str, e: std::io::Error) -> CdwError {
    CdwError::exec(format!("spill {what}: {e}"))
}

/// Writes one spill file as a sequence of length-prefixed encoded batches.
///
/// Each [`SpillWriter::append`] call adds one record; record order is the
/// read-back order, which the spilling operators rely on for determinism
/// (e.g. aggregation appends one record per input partition, in partition
/// index order). `finish` seals the file into a [`SpillHandle`].
pub struct SpillWriter {
    file: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
    records: usize,
}

impl SpillWriter {
    /// Create a fresh, uniquely named spill file.
    pub fn create() -> Result<SpillWriter, CdwError> {
        let dir = spill_dir();
        let id = NEXT_SPILL_ID.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{id}.spill"));
        // A concurrently dropping handle may reclaim the (momentarily
        // empty) directory between our mkdir and the file create; retry
        // the pair until the create lands inside a directory that our
        // own file then keeps alive.
        let mut attempts = 0;
        let file = loop {
            match std::fs::create_dir_all(&dir) {
                // Reported when the directory this call lost the mkdir
                // race for is reclaimed before its is-a-directory check;
                // the create below decides whether to go around again.
                Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => {
                    return Err(io_err("mkdir", e));
                }
                _ => {}
            }
            match File::create(&path) {
                Ok(f) => break f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && attempts < 16 => {
                    attempts += 1;
                }
                Err(e) => return Err(io_err("create", e)),
            }
        };
        Ok(SpillWriter {
            file: BufWriter::new(file),
            path,
            bytes: 0,
            records: 0,
        })
    }

    /// Append one batch record; returns the bytes written (payload +
    /// 8-byte length prefix), which the caller charges to its spill stats.
    pub fn append(&mut self, batch: &Batch) -> Result<usize, CdwError> {
        let payload = codec::encode_batch(batch);
        self.file
            .write_all(&(payload.len() as u64).to_le_bytes())
            .and_then(|()| self.file.write_all(&payload))
            .map_err(|e| io_err("write", e))?;
        let written = payload.len() + 8;
        self.bytes += written as u64;
        self.records += 1;
        Ok(written)
    }

    /// Seal the file. The handle owns the on-disk bytes from here on.
    pub fn finish(mut self) -> Result<SpillHandle, CdwError> {
        self.file.flush().map_err(|e| io_err("flush", e))?;
        Ok(SpillHandle {
            path: std::mem::take(&mut self.path),
            bytes: self.bytes,
            records: self.records,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        // A writer dropped without `finish` — an error return or a panic
        // unwinding through the owning worker — removes its file.
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.path);
            remove_spill_dir_if_empty(&self.path);
        }
    }
}

/// A sealed spill file; deletes itself on drop.
pub struct SpillHandle {
    path: PathBuf,
    bytes: u64,
    records: usize,
}

impl SpillHandle {
    /// Total on-disk size (payload plus framing).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of batch records in the file.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Open a sequential reader over the records.
    pub fn reader(&self) -> Result<SpillReader, CdwError> {
        let file = File::open(&self.path).map_err(|e| io_err("open", e))?;
        Ok(SpillReader {
            file: BufReader::new(file),
            remaining: self.records,
            bytes_left: self.bytes,
        })
    }

    /// Read every record into memory (used where record count is small —
    /// e.g. one record per input partition).
    pub fn read_all(&self) -> Result<Vec<Batch>, CdwError> {
        let mut reader = self.reader()?;
        let mut out = Vec::with_capacity(self.records);
        while let Some(batch) = reader.next_batch()? {
            out.push(batch);
        }
        Ok(out)
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        remove_spill_dir_if_empty(&self.path);
    }
}

/// Streams records back from a spill file in append order.
pub struct SpillReader {
    file: BufReader<File>,
    remaining: usize,
    /// Bytes the handle says are left to read — bounds each record's
    /// length prefix, so a corrupted prefix errors instead of sizing a
    /// huge allocation.
    bytes_left: u64,
}

impl SpillReader {
    /// The next record, or `None` once the file is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<Batch>, CdwError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut len = [0u8; 8];
        self.file
            .read_exact(&mut len)
            .map_err(|e| io_err("read len", e))?;
        let len = u64::from_le_bytes(len);
        if len > self.bytes_left.saturating_sub(8) {
            return Err(CdwError::exec(format!(
                "spill record length {len} exceeds file remainder {}",
                self.bytes_left.saturating_sub(8)
            )));
        }
        self.bytes_left -= len + 8;
        let mut payload = vec![0u8; len as usize];
        self.file
            .read_exact(&mut payload)
            .map_err(|e| io_err("read payload", e))?;
        codec::decode_batch(&payload)
            .map(Some)
            .map_err(CdwError::from)
    }
}

/// Unit-test support for asserting on the shared spill directory. All
/// unit tests of one crate run as threads of a single process, so they
/// share one `sigma-spill-{pid}` directory; any test that creates spill
/// files or asserts the directory's global state must hold this lock or
/// it races with its neighbors. (Integration-test binaries are separate
/// processes and get their own directories.)
#[cfg(test)]
pub(crate) mod spill_test_support {
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Serialize spill-dir tests. Recovers from poisoning so one failed
    /// spill test doesn't cascade into the rest.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spill files currently on disk (missing directory = none).
    pub(crate) fn live_spill_files() -> Vec<PathBuf> {
        match std::fs::read_dir(super::spill_dir()) {
            Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// True when every spill file is gone AND the per-process directory
    /// itself has been reclaimed.
    pub(crate) fn spill_dir_reclaimed() -> bool {
        !super::spill_dir().exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::{Column, DataType, Field};

    fn batch(n: usize) -> Batch {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        Batch::new(schema, vec![Column::from_ints((0..n as i64).collect())]).unwrap()
    }

    #[test]
    fn partitioning() {
        let t = StoredTable::from_batch(batch(10), 4);
        assert_eq!(t.partitions().len(), 3);
        assert_eq!(t.partitions()[0].num_rows(), 4);
        assert_eq!(t.partitions()[2].num_rows(), 2);
        assert_eq!(t.num_rows(), 10);
        let whole = t.to_batch();
        assert_eq!(whole.num_rows(), 10);
        assert_eq!(whole.value(9, 0), sigma_value::Value::Int(9));
    }

    #[test]
    fn append_validates_types() {
        let mut t = StoredTable::from_batch(batch(2), 10);
        assert!(t.append(batch(3)).is_ok());
        assert_eq!(t.num_rows(), 5);
        let wrong = Batch::new(
            Arc::new(Schema::new(vec![Field::new("x", DataType::Text)])),
            vec![Column::from_texts(vec!["a".into()])],
        )
        .unwrap();
        assert!(t.append(wrong).is_err());
    }

    #[test]
    fn empty_table() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let t = StoredTable::empty(schema);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.to_batch().num_rows(), 0);
    }

    /// Size accounting must charge what the partitions actually hold —
    /// including the null bitmap and a Text column's string bytes and
    /// offsets (the figures the execution memory budget consults).
    /// Verified against the documented per-column formula.
    #[test]
    #[allow(clippy::identity_op)] // per-string terms spelled out row by row
    fn byte_size_counts_bitmap_and_string_heap() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("n", DataType::Int),
            Field::new("s", DataType::Text),
        ]));
        let b = Batch::new(
            schema,
            vec![
                Column::from_opt_ints(vec![Some(1), None, Some(3), None]),
                Column::from_texts(vec!["aa".into(), "".into(), "cccc".into(), "d".into()]),
            ],
        )
        .unwrap();
        let int_bytes = Column::FIXED_BYTES + 4 * 8 + 4; // payload + bitmap
        let text_bytes =
            Column::FIXED_BYTES + (4 + 1) * Column::TEXT_OFFSET_BYTES + (2 + 0 + 4 + 1);
        assert_eq!(b.byte_size(), int_bytes + text_bytes);

        // Partitioning re-materializes rows, so the table total matches the
        // sum of its partitions' real footprints (2+2 rows here).
        let t = StoredTable::from_batch(b, 2);
        assert_eq!(t.partitions().len(), 2);
        assert_eq!(
            t.byte_size(),
            t.partitions().iter().map(Batch::byte_size).sum::<usize>()
        );
        let p0 = &t.partitions()[0]; // rows (1, "aa"), (null, "")
        assert_eq!(
            p0.byte_size(),
            (Column::FIXED_BYTES + 16 + 2)
                + (Column::FIXED_BYTES + (2 + 1) * Column::TEXT_OFFSET_BYTES + 2)
        );
    }

    #[test]
    fn spill_write_read_roundtrip_and_cleanup() {
        let _guard = spill_test_support::lock();
        let mut w = SpillWriter::create().unwrap();
        let b1 = batch(5);
        let b2 = batch(3);
        let n1 = w.append(&b1).unwrap();
        let n2 = w.append(&b2).unwrap();
        // Empty batches are legal records (partition alignment markers).
        let empty = Batch::empty(b1.schema().clone());
        w.append(&empty).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.records(), 3);
        assert_eq!(h.bytes(), (n1 + n2) as u64 + empty_record_bytes(&empty));
        let back = h.read_all().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], b1);
        assert_eq!(back[1], b2);
        assert_eq!(back[2].num_rows(), 0);
        // Streaming reader sees the same sequence then ends.
        let mut r = h.reader().unwrap();
        assert_eq!(r.next_batch().unwrap().unwrap(), b1);
        assert_eq!(r.next_batch().unwrap().unwrap(), b2);
        assert_eq!(r.next_batch().unwrap().unwrap().num_rows(), 0);
        assert!(r.next_batch().unwrap().is_none());
        // Dropping the handle removes the file.
        let path = h.path.clone();
        assert!(path.exists());
        drop(h);
        assert!(!path.exists());
    }

    fn empty_record_bytes(empty: &Batch) -> u64 {
        (sigma_value::encode_batch(empty).len() + 8) as u64
    }

    /// A corrupted record length prefix must surface as an error, never a
    /// huge allocation.
    #[test]
    fn corrupted_length_prefix_is_an_error() {
        let _guard = spill_test_support::lock();
        let mut w = SpillWriter::create().unwrap();
        w.append(&batch(4)).unwrap();
        let h = w.finish().unwrap();
        let mut raw = std::fs::read(&h.path).unwrap();
        raw[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&h.path, raw).unwrap();
        let mut r = h.reader().unwrap();
        assert!(r.next_batch().is_err());
    }

    #[test]
    fn unfinished_writer_cleans_up() {
        let _guard = spill_test_support::lock();
        let mut w = SpillWriter::create().unwrap();
        w.append(&batch(2)).unwrap();
        let path = w.path.clone();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists());
        assert!(
            spill_test_support::spill_dir_reclaimed(),
            "empty spill dir should be removed with its last file"
        );
    }

    /// A panic unwinding through the thread that owns a mid-write spill
    /// file must remove it — the Drop impl runs during unwinding exactly
    /// as on the error-return path.
    #[test]
    fn panicking_writer_cleans_up_mid_write() {
        let _guard = spill_test_support::lock();
        let mut w = SpillWriter::create().unwrap();
        w.append(&batch(4)).unwrap();
        let path = w.path.clone();
        assert!(path.exists());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _owned_by_worker = w;
            panic!("worker killed mid-spill");
        }));
        assert!(unwound.is_err());
        assert!(!path.exists(), "panicked writer leaked {path:?}");
        assert!(spill_test_support::spill_dir_reclaimed());
    }

    /// The mkdir/rmdir race: one thread's dropping handle may reclaim the
    /// momentarily-empty directory while another thread is between its
    /// `create_dir_all` and `File::create`. The create-retry in
    /// `SpillWriter::create` must absorb this — hammer create/drop pairs
    /// from two threads and require every create to succeed.
    #[test]
    fn concurrent_create_and_reclaim_never_fails() {
        let _guard = spill_test_support::lock();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..200 {
                        let mut w = SpillWriter::create().expect("create survives dir reclaim");
                        w.append(&batch(1)).unwrap();
                        drop(w.finish().unwrap());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(spill_test_support::live_spill_files().is_empty());
        assert!(spill_test_support::spill_dir_reclaimed());
    }
}
