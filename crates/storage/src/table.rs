//! Slotted row tables with primary-key enforcement and secondary indexes.

use crate::buffer_pool::BufferPool;
use crate::column::{Bitmap, ColumnSlice};
use crate::error::{StorageError, StorageResult};
use crate::index::{HashIndex, IndexKind, SecondaryIndex};
use crate::pages::{page_rows_for, PagePin, RowStore, SlotPin};
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::stats::{ColumnStats, TableStats, NDV_CAP};
use crate::value::{DataType, Value};
use rustc_hash::FxHashSet;
use std::hash::Hash;
use std::sync::Arc;

/// An in-memory table.
///
/// Rows live in stable slots: deleting a row tombstones its slot and the
/// slot is recycled by a later insert, so [`RowId`]s held by indexes remain
/// valid for live rows. The primary key (if declared in the schema) is
/// enforced with a unique hash index that is maintained on every mutation.
///
/// The paged rows are the table's only stored form: every write path
/// updates them and nothing else besides the indexes. The engine's
/// vectorized kernels read typed column chunks that each page builds from
/// its own rows on first use (see [`crate::pages`]).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// The rows, split into fixed-size pages managed by a [`BufferPool`]
    /// (see [`crate::pages`]). Slot indices are global; only residency is
    /// managed per page.
    rows: RowStore,
    free: Vec<u64>,
    live: usize,
    pk_index: Option<HashIndex>,
    indexes: Vec<SecondaryIndex>,
    /// Monotonic content version, bumped by `Catalog::table_mut` every time
    /// a writer checks the table out for mutation. Incremental checkpoints
    /// compare it against the version captured at the last checkpoint to
    /// decide whether the table must be re-serialized into a delta.
    content_epoch: u64,
}

impl Table {
    /// Create an empty table. A primary-key index is created automatically
    /// when the schema declares key columns.
    pub fn new(schema: TableSchema) -> Table {
        Table::with_pool(schema, BufferPool::unbounded())
    }

    /// Create an empty table whose row pages are managed by `pool`.
    /// [`Table::new`] binds the process-wide unbounded pool; the catalog
    /// rebinds tables to its own pool on install (see
    /// `Catalog::reclaim_pages`).
    pub fn with_pool(schema: TableSchema, pool: Arc<BufferPool>) -> Table {
        let pk_index = if schema.primary_key.is_empty() { None } else { Some(HashIndex::new()) };
        let types = schema.columns.iter().map(|c| c.dtype.clone()).collect();
        let rows = RowStore::new(types, page_rows_for(&schema), pool);
        Table {
            schema,
            rows,
            free: Vec::new(),
            live: 0,
            pk_index,
            indexes: Vec::new(),
            content_epoch: 0,
        }
    }

    /// Rebind the row pages to another buffer pool (catalog install and
    /// recovery wiring). No-op when already bound to `pool`.
    pub(crate) fn bind_pool(&mut self, pool: &Arc<BufferPool>) {
        self.rows.rebind(pool);
    }

    /// One clock-sweep reclaim pass over this table's pages (see
    /// `RowStore::reclaim`). Returns pages evicted.
    pub(crate) fn reclaim_pages(&mut self, force: bool) -> StorageResult<usize> {
        self.rows.reclaim(force)
    }

    /// Rows per page of the paged row store (power of two; schema-derived).
    pub fn page_rows(&self) -> usize {
        self.rows.page_rows()
    }

    /// Number of pages currently backing the row store.
    pub fn page_count(&self) -> usize {
        self.rows.page_count()
    }

    /// Monotonic content version (see the field doc). Two observations of
    /// the same table with equal content epochs are guaranteed unchanged;
    /// unequal epochs mean a writer checked the table out in between.
    pub fn content_epoch(&self) -> u64 {
        self.content_epoch
    }

    /// Bump the content version. Called by `Catalog::table_mut` alongside
    /// dirty-set maintenance, before the writer touches any row.
    pub(crate) fn bump_content_epoch(&mut self) {
        self.content_epoch += 1;
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a validated row; returns its id. The stored representation is
    /// canonicalized (Ints bound for Float columns widen to `Value::Float`,
    /// see [`TableSchema::canonicalize_row`]) so join/group/index keys over
    /// a column always share one physical type.
    pub fn insert(&mut self, mut row: Row) -> StorageResult<RowId> {
        self.schema.validate_row(&row)?;
        self.schema.canonicalize_row(&mut row);
        if let Some(key) = self.schema.key_of(&row) {
            let pk = self.pk_index.as_ref().expect("pk index exists when key declared");
            if !pk.get(&key).is_empty() {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: key.to_string(),
                });
            }
        }
        let rid = match self.free.pop() {
            Some(slot) => {
                self.rows.set(slot as usize, Some(row));
                RowId(slot)
            }
            None => {
                self.rows.push(Some(row));
                RowId(self.rows.len() as u64 - 1)
            }
        };
        self.live += 1;
        let row_ref = self.rows.get(rid.idx()).expect("just inserted");
        if let Some(key) = self.schema.key_of(row_ref) {
            self.pk_index.as_mut().expect("pk index").insert(key, rid);
        }
        // Borrow juggling: clone the row for index maintenance to keep the
        // hot path simple; secondary indexes are rare on write-heavy tables.
        if !self.indexes.is_empty() {
            let row_clone = row_ref.clone();
            for idx in &mut self.indexes {
                idx.insert(&row_clone, rid);
            }
        }
        Ok(rid)
    }

    /// Append a batch of rows at the tail in one shot — the bulk-ingest
    /// fast path. Compared with a loop over [`Table::insert`]:
    ///
    /// - validation, canonicalization, and primary-key checks (against the
    ///   index **and** within the batch) run up front, so a failure leaves
    ///   the table untouched instead of half-ingested;
    /// - secondary indexes are extended in one pass at the end, not per row.
    ///
    /// Rows always land in fresh tail slots (`first..first+n`), never in
    /// recycled free-list slots, so the batch is contiguous — which is what
    /// lets the WAL describe it with a single compact `BulkInsert` record.
    /// Returns `(first_slot, row_count)`.
    pub fn bulk_append(&mut self, rows: Vec<Row>) -> StorageResult<(u64, usize)> {
        let mut canon: Vec<Row> = Vec::with_capacity(rows.len());
        let mut batch_keys: FxHashSet<Value> = FxHashSet::default();
        for mut row in rows {
            self.schema.validate_row(&row)?;
            self.schema.canonicalize_row(&mut row);
            if let Some(key) = self.schema.key_of(&row) {
                let pk = self.pk_index.as_ref().expect("pk index exists when key declared");
                if !pk.get(&key).is_empty() || !batch_keys.insert(key.clone()) {
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: key.to_string(),
                    });
                }
            }
            canon.push(row);
        }
        let first = self.rows.len();
        let n = canon.len();
        if n == 0 {
            return Ok((first as u64, 0));
        }
        for row in canon {
            self.rows.push(Some(row));
        }
        self.live += n;
        for slot in first..first + n {
            let rid = RowId(slot as u64);
            let row = self.rows.get(slot).expect("just appended");
            if let Some(key) = self.schema.key_of(row) {
                self.pk_index.as_mut().expect("pk index").insert(key, rid);
            }
            for idx in &mut self.indexes {
                idx.insert(row, rid);
            }
        }
        Ok((first as u64, n))
    }

    /// Fetch a live row (faulting its page in if evicted).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid.idx())
    }

    /// Replace a live row in place (same slot, indexes maintained).
    /// Returns the previous contents. Canonicalizes like [`Table::insert`].
    pub fn update(&mut self, rid: RowId, mut new_row: Row) -> StorageResult<Row> {
        self.schema.validate_row(&new_row)?;
        self.schema.canonicalize_row(&mut new_row);
        let old = self
            .rows
            .get(rid.idx())
            .cloned()
            .ok_or_else(|| StorageError::RowNotFound { table: self.schema.name.clone(), row: rid.0 })?;
        // Primary-key change must stay unique.
        let old_key = self.schema.key_of(&old);
        let new_key = self.schema.key_of(&new_row);
        if let (Some(ok), Some(nk)) = (&old_key, &new_key) {
            if ok != nk {
                let pk = self.pk_index.as_ref().expect("pk index");
                if !pk.get(nk).is_empty() {
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: nk.to_string(),
                    });
                }
            }
        }
        if let Some(pk) = self.pk_index.as_mut() {
            if let Some(ok) = &old_key {
                pk.remove(ok, rid);
            }
            if let Some(nk) = new_key {
                pk.insert(nk, rid);
            }
        }
        for idx in &mut self.indexes {
            idx.remove(&old, rid);
            idx.insert(&new_row, rid);
        }
        self.rows.set(rid.idx(), Some(new_row));
        Ok(old)
    }

    /// Delete a live row; returns its contents.
    pub fn delete(&mut self, rid: RowId) -> StorageResult<Row> {
        let row = self
            .rows
            .take(rid.idx())
            .ok_or_else(|| StorageError::RowNotFound { table: self.schema.name.clone(), row: rid.0 })?;
        self.free.push(rid.0);
        self.live -= 1;
        if let Some(key) = self.schema.key_of(&row) {
            self.pk_index.as_mut().expect("pk index").remove(&key, rid);
        }
        for idx in &mut self.indexes {
            idx.remove(&row, rid);
        }
        Ok(row)
    }

    /// Re-insert a previously deleted row into a specific slot (transaction
    /// rollback support). The slot must be free. The row is canonicalized
    /// like [`Table::insert`] so restored state is physically identical to
    /// freshly ingested state.
    pub(crate) fn restore(&mut self, rid: RowId, mut row: Row) -> StorageResult<()> {
        if rid.idx() >= self.rows.len() || self.rows.get(rid.idx()).is_some() {
            return Err(StorageError::Internal(format!(
                "restore into occupied or out-of-range slot {rid} of '{}'",
                self.schema.name
            )));
        }
        self.schema.canonicalize_row(&mut row);
        if let Some(pos) = self.free.iter().position(|s| *s == rid.0) {
            self.free.swap_remove(pos);
        }
        self.rows.set(rid.idx(), Some(row));
        self.live += 1;
        let row_ref = self.rows.get(rid.idx()).expect("just restored");
        if let Some(key) = self.schema.key_of(row_ref) {
            self.pk_index.as_mut().expect("pk index").insert(key, rid);
        }
        for idx in &mut self.indexes {
            idx.insert(row_ref, rid);
        }
        Ok(())
    }

    /// Place a row into an exact slot, growing the slot vector with
    /// tombstones as needed (WAL redo support: rows must land at the ids
    /// the log recorded, which free-list replay cannot guarantee because
    /// rolled-back transactions never reach the log). The caller is
    /// expected to call [`Table::rebuild_free`] once after replay.
    pub(crate) fn place_at(&mut self, rid: RowId, row: Row) -> StorageResult<()> {
        if rid.idx() >= self.rows.len() {
            let want = rid.idx().checked_add(1).ok_or_else(|| {
                StorageError::Corrupt(format!("row id {rid} overflows the slot space"))
            })?;
            self.rows.resize_none(want);
        }
        self.restore(rid, row)
    }

    /// Recompute the free list from the slot vector (after WAL redo, which
    /// places rows at exact slots rather than popping the free list).
    pub(crate) fn rebuild_free(&mut self) {
        let mut free = Vec::new();
        for pin in self.pin_pages(0..self.slot_count()) {
            for (i, slot) in pin.rows().iter().enumerate() {
                if slot.is_none() {
                    free.push((pin.first_slot() + i) as u64);
                }
            }
        }
        self.free = free;
    }

    /// Materialized slot vector (live rows and tombstones), for tests and
    /// snapshot round-trips. The snapshot must preserve slot positions
    /// exactly so that [`RowId`]s in the WAL suffix and in factorized link
    /// vectors stay valid. Checkpoint encoding itself streams page by page
    /// via [`Table::pin_pages`] instead of materializing this vector.
    #[cfg(test)]
    pub(crate) fn slots_vec(&self) -> Vec<Option<Row>> {
        self.rows.slots_vec()
    }

    /// Pin the pages covering `range` one at a time, in slot order: the
    /// unit of columnar execution and of full-table walks (statistics,
    /// snapshot encoding, index backfill). Bounds behave like
    /// [`Table::pin_slots`]. Pages evicted to the spill store are decoded
    /// without being re-installed as resident while the pool is over
    /// budget, so a walk that drops each pin before taking the next stays
    /// within the frame budget.
    pub fn pin_pages(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = PagePin> + '_ {
        self.rows.pin_pages(range.start, range.end)
    }

    /// Pin the pages covering `range` and return an owning handle whose
    /// rows can be borrowed without touching the table again (morsel
    /// execution: one pin per morsel, dropped when the morsel completes).
    /// Bounds behave exactly like [`Table::scan_slots`]: the end is
    /// clamped, a start past the end yields an empty pin.
    pub fn pin_slots(&self, range: std::ops::Range<usize>) -> SlotPin {
        self.rows.pin(range.start, range.end)
    }

    /// Rebuild a table from a checkpointed slot vector: rows are validated,
    /// canonicalized, and indexed; the free list is derived from the
    /// tombstone positions. Production decoding streams slots one at a time
    /// through [`Table::load_slot`] instead; this materialized-vector form
    /// exists for round-trip tests.
    #[cfg(test)]
    pub(crate) fn from_slots(schema: TableSchema, slots: Vec<Option<Row>>) -> StorageResult<Table> {
        let mut t = Table::new(schema);
        for slot in slots {
            t.load_slot(slot)?;
        }
        t.rebuild_free();
        Ok(t)
    }

    /// Append one checkpointed slot (row or tombstone) at the next slot
    /// index: the streaming unit of the snapshot decoder. Each page it
    /// completes gets its column-chunk view built on the spot. The caller
    /// is expected to run [`Table::rebuild_free`] once after the last slot.
    pub(crate) fn load_slot(&mut self, slot: Option<Row>) -> StorageResult<()> {
        let i = self.rows.len();
        match slot {
            None => self.rows.push(None),
            Some(mut row) => {
                self.schema.validate_row(&row)?;
                self.schema.canonicalize_row(&mut row);
                self.rows.push(Some(row));
                self.live += 1;
                let rid = RowId(i as u64);
                let row_ref = self.rows.get(i).expect("just loaded");
                if let Some(key) = self.schema.key_of(row_ref) {
                    self.pk_index.as_mut().expect("key_of implies pk index").insert(key, rid);
                }
                for idx in &mut self.indexes {
                    idx.insert(row_ref, rid);
                }
            }
        }
        // A full page's rows are still in cache: build its view now rather
        // than on the first read after recovery, which would fault them in
        // again.
        let len = self.rows.len();
        if len.is_multiple_of(self.rows.page_rows()) {
            self.rows.build_view(len / self.rows.page_rows() - 1);
        }
        Ok(())
    }

    /// Number of physical slots (live rows plus tombstones). Slot indexes
    /// `0..slot_count()` partition the table into contiguous ranges, which
    /// is what morsel-driven executors hand out to worker threads.
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterate the live rows whose slots fall in `range` (a morsel). The
    /// iterator borrows the table, so callers stream rows without cloning.
    ///
    /// # Bounds
    ///
    /// `range.end` may overshoot [`Table::slot_count`] — the final morsel of
    /// a fixed-size partition legitimately does — and is clamped. A
    /// `range.start` beyond `slot_count`, however, is caller off-by-one
    /// morsel math (a partition scheme can never produce one): it yields an
    /// empty iterator in release builds but panics under `debug_assertions`
    /// so kernel code cannot silently mask the bug.
    pub fn scan_slots(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (RowId, &Row)> {
        debug_assert!(
            range.start <= self.rows.len(),
            "scan_slots range starts at {} but '{}' has only {} slots",
            range.start,
            self.schema.name,
            self.rows.len()
        );
        self.rows
            .iter_range(range.start, range.end)
            .map(|(i, row)| (RowId(i as u64), row))
    }

    /// Iterate live rows with their ids.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.scan_slots(0..self.rows.len())
    }

    /// Materialize all live rows (cloned).
    pub fn all_rows(&self) -> Vec<Row> {
        self.scan().map(|(_, r)| r.clone()).collect()
    }

    /// Primary-key point lookup.
    pub fn lookup_pk(&self, key: &Value) -> Option<(RowId, &Row)> {
        let pk = self.pk_index.as_ref()?;
        let rid = *pk.get(key).first()?;
        self.get(rid).map(|r| (rid, r))
    }

    /// Create a named secondary index over the given columns and backfill it.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        kind: IndexKind,
    ) -> StorageResult<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::IndexExists(name));
        }
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(StorageError::ColumnNotFound {
                    table: self.schema.name.clone(),
                    column: format!("#{c}"),
                });
            }
        }
        let mut idx = SecondaryIndex::new(name, columns, kind);
        for pin in self.pin_pages(0..self.slot_count()) {
            for (i, slot) in pin.rows().iter().enumerate() {
                if let Some(row) = slot {
                    idx.insert(row, RowId((pin.first_slot() + i) as u64));
                }
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop a secondary index by name.
    pub fn drop_index(&mut self, name: &str) -> StorageResult<()> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name == name)
            .ok_or_else(|| StorageError::IndexNotFound(name.to_string()))?;
        self.indexes.remove(pos);
        Ok(())
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[SecondaryIndex] {
        &self.indexes
    }

    /// Find a secondary index whose key is exactly `columns` (in order), or
    /// the primary key if it matches. Returns the rows for `key`.
    pub fn index_lookup(&self, columns: &[usize], key: &Value) -> Option<Vec<(RowId, &Row)>> {
        if columns == self.schema.primary_key.as_slice() && self.pk_index.is_some() {
            return Some(self.lookup_pk(key).into_iter().collect());
        }
        let idx = self.indexes.iter().find(|i| i.columns == columns)?;
        Some(
            idx.lookup(key)
                .into_iter()
                .filter_map(|rid| self.get(rid).map(|r| (rid, r)))
                .collect(),
        )
    }

    /// Does an equality-capable index exist on exactly these columns?
    pub fn has_index_on(&self, columns: &[usize]) -> bool {
        (!self.schema.primary_key.is_empty() && columns == self.schema.primary_key.as_slice())
            || self.indexes.iter().any(|i| i.columns == columns)
    }

    /// Compute fresh statistics in one pass over the pages' column chunks,
    /// one pinned page at a time.
    ///
    /// Produces exactly what [`TableStats::compute`] produces over the live
    /// rows — same NDV saturation at the cap, same total-order min/max
    /// (floats by `total_cmp`), same widths — but Int/Float/Bool columns
    /// hash raw scalars and text columns visit each distinct string of a
    /// page once. Array/struct columns (no typed slice) read the rows. The
    /// chunks built here stay cached on the pages for the queries that
    /// follow.
    pub fn compute_stats(&self) -> TableStats {
        let mut cols: Vec<ColumnAcc> =
            self.schema.columns.iter().map(|c| ColumnAcc::new(&c.dtype)).collect();
        for pin in self.pin_pages(0..self.slot_count()) {
            for (c, acc) in cols.iter_mut().enumerate() {
                acc.add_page(pin.live(), pin.column(c), pin.rows(), c);
            }
        }
        let row_count = self.live as u64;
        let (columns, bytes): (Vec<ColumnStats>, Vec<u64>) =
            cols.into_iter().map(|c| c.finish(row_count)).unzip();
        TableStats { row_count, columns, total_bytes: bytes.iter().sum() }
    }

    /// Remove all rows (indexes cleared too). Schema is kept.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.free.clear();
        self.live = 0;
        if let Some(pk) = &mut self.pk_index {
            *pk = HashIndex::new();
        }
        let specs: Vec<(String, Vec<usize>, IndexKind)> = self
            .indexes
            .iter()
            .map(|i| (i.name.clone(), i.columns.clone(), i.kind()))
            .collect();
        self.indexes.clear();
        for (name, cols, kind) in specs {
            let _ = self.create_index(name, cols, kind);
        }
    }
}

/// One column's statistics over keys `K`, accumulated page by page: the
/// NDV set (saturating at [`NDV_CAP`]), min/max, NULLs, and the summed
/// cell widths of [`Value::approx_size`].
struct Keyed<K> {
    set: FxHashSet<K>,
    min: Option<K>,
    max: Option<K>,
    nulls: u64,
    bytes: u64,
}

impl<K: Clone + Eq + Hash> Keyed<K> {
    fn new() -> Keyed<K> {
        Keyed { set: FxHashSet::default(), min: None, max: None, nulls: 0, bytes: 0 }
    }

    /// Record a non-NULL key under the column's total order `lt`
    /// (idempotent per distinct key, so callers may pass a repeated key
    /// once).
    #[inline]
    fn key(&mut self, k: K, lt: impl Fn(&K, &K) -> bool) {
        if self.min.as_ref().is_none_or(|m| lt(&k, m)) {
            self.min = Some(k.clone());
        }
        if self.max.as_ref().is_none_or(|m| lt(m, &k)) {
            self.max = Some(k.clone());
        }
        if self.set.len() < NDV_CAP {
            self.set.insert(k);
        }
    }

    fn finish(self, rows: u64, to_value: impl Fn(K) -> Value) -> (ColumnStats, u64) {
        let out = ColumnStats {
            ndv: self.set.len() as u64,
            null_count: self.nulls,
            min: self.min.map(&to_value),
            max: self.max.map(&to_value),
            avg_width: if rows > 0 { self.bytes as f64 / rows as f64 } else { 0.0 },
            avg_array_len: 0.0,
        };
        (out, self.bytes)
    }
}

/// [`Keyed`] statistics per column type. Scalars key by raw bits (Floats
/// by bit pattern: `Value` float equality is `total_cmp == Equal`, which
/// holds iff the bits match); array/struct columns key by the `Value` and
/// also track the average array length.
enum ColumnAcc {
    Int(Keyed<i64>),
    Float(Keyed<u64>),
    Bool(Keyed<bool>),
    Str(Keyed<Arc<str>>),
    Other(Keyed<Value>, f64, u64),
}

impl ColumnAcc {
    fn new(dtype: &DataType) -> ColumnAcc {
        match dtype {
            DataType::Int => ColumnAcc::Int(Keyed::new()),
            DataType::Float => ColumnAcc::Float(Keyed::new()),
            DataType::Bool => ColumnAcc::Bool(Keyed::new()),
            DataType::Text => ColumnAcc::Str(Keyed::new()),
            DataType::Array(_) | DataType::Struct(_) => ColumnAcc::Other(Keyed::new(), 0.0, 0),
        }
    }

    /// Fold the live cells of one page's column `col`.
    fn add_page(
        &mut self,
        live: &Bitmap,
        slice: Option<ColumnSlice<'_>>,
        rows: &[Option<Row>],
        col: usize,
    ) {
        let live = (0..live.len()).filter(|&i| live.get(i));
        match (self, slice) {
            (ColumnAcc::Int(a), Some(ColumnSlice::Int { data, valid })) => {
                for i in live {
                    if valid.get(i) {
                        a.bytes += 8;
                        a.key(data[i], |x, y| x < y);
                    } else {
                        a.nulls += 1;
                        a.bytes += 1;
                    }
                }
            }
            (ColumnAcc::Float(a), Some(ColumnSlice::Float { data, valid })) => {
                for i in live {
                    if valid.get(i) {
                        a.bytes += 8;
                        a.key(data[i].to_bits(), |x, y| {
                            f64::from_bits(*x).total_cmp(&f64::from_bits(*y)).is_lt()
                        });
                    } else {
                        a.nulls += 1;
                        a.bytes += 1;
                    }
                }
            }
            (ColumnAcc::Bool(a), Some(ColumnSlice::Bool { data, valid })) => {
                for i in live {
                    if valid.get(i) {
                        a.bytes += 1;
                        a.key(data[i], |x, y| x < y);
                    } else {
                        a.nulls += 1;
                        a.bytes += 1;
                    }
                }
            }
            (ColumnAcc::Str(a), Some(ColumnSlice::Str { codes, valid, dict })) => {
                // Each distinct string of the page is keyed once.
                let mut seen = vec![false; dict.len()];
                for i in live {
                    if valid.get(i) {
                        let code = codes[i] as usize;
                        a.bytes += 16 + dict[code].len() as u64;
                        if !seen[code] {
                            seen[code] = true;
                            a.key(Arc::clone(&dict[code]), |x, y| x < y);
                        }
                    } else {
                        a.nulls += 1;
                        a.bytes += 1;
                    }
                }
            }
            (ColumnAcc::Other(a, arr_sum, arr_count), _) => {
                for i in live {
                    let v = &rows[i].as_ref().expect("live slot")[col];
                    a.bytes += v.approx_size() as u64;
                    if v.is_null() {
                        a.nulls += 1;
                        continue;
                    }
                    if let Value::Array(vs) = v {
                        *arr_sum += vs.len() as f64;
                        *arr_count += 1;
                    }
                    a.key(v.clone(), |x, y| x < y);
                }
            }
            _ => unreachable!("page chunks are typed by the same schema"),
        }
    }

    /// The column's statistics plus its total bytes.
    fn finish(self, rows: u64) -> (ColumnStats, u64) {
        match self {
            ColumnAcc::Int(a) => a.finish(rows, Value::Int),
            ColumnAcc::Float(a) => a.finish(rows, |k| Value::Float(f64::from_bits(k))),
            ColumnAcc::Bool(a) => a.finish(rows, Value::Bool),
            ColumnAcc::Str(a) => a.finish(rows, Value::Str),
            ColumnAcc::Other(a, arr_sum, arr_count) => {
                let (mut out, bytes) = a.finish(rows, |v| v);
                out.avg_array_len = if arr_count > 0 { arr_sum / arr_count as f64 } else { 0.0 };
                (out, bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::PageChunks;
    use crate::schema::Column;
    use crate::value::DataType;

    fn people() -> Table {
        Table::new(TableSchema::new(
            "people",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
            ],
            vec![0],
        ))
    }

    fn row(id: i64, name: &str, age: i64) -> Row {
        vec![Value::Int(id), Value::str(name), Value::Int(age)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        assert_eq!(t.get(rid).unwrap()[1], Value::str("ada"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        assert!(matches!(t.insert(row(1, "bob", 20)), Err(StorageError::DuplicateKey { .. })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_append_matches_per_row_insert() {
        let mut a = people();
        let mut b = people();
        let rows: Vec<Row> = (0..50).map(|i| row(i, "p", i % 7)).collect();
        for r in rows.clone() {
            a.insert(r).unwrap();
        }
        let (first, n) = b.bulk_append(rows).unwrap();
        assert_eq!((first, n), (0, 50));
        assert_eq!(a.all_rows(), b.all_rows());
        assert_eq!(a.compute_stats(), b.compute_stats());
        assert_eq!(b.lookup_pk(&Value::Int(17)).unwrap().1[0], Value::Int(17));
    }

    #[test]
    fn bulk_append_rejects_duplicates_atomically() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        // Duplicate against the existing primary-key index ...
        assert!(matches!(
            t.bulk_append(vec![row(2, "b", 1), row(1, "dup", 2)]),
            Err(StorageError::DuplicateKey { .. })
        ));
        // ... and within the batch itself.
        assert!(matches!(
            t.bulk_append(vec![row(3, "c", 1), row(3, "c2", 2)]),
            Err(StorageError::DuplicateKey { .. })
        ));
        assert_eq!(t.len(), 1, "failed batch leaves the table untouched");
        assert_eq!(t.slot_count(), 1);
        assert!(t.lookup_pk(&Value::Int(2)).is_none());
    }

    #[test]
    fn bulk_append_lands_at_tail_not_free_slots() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let (first, n) = t.bulk_append(vec![row(3, "eve", 25), row(4, "kim", 30)]).unwrap();
        assert_eq!((first, n), (2, 2), "batch is contiguous at the tail");
        assert!(t.get(RowId(0)).is_none(), "freed slot is not recycled by a batch");
        assert_eq!(t.len(), 3);
        // The freed slot is still available to the per-row path afterwards.
        assert_eq!(t.insert(row(5, "joe", 40)).unwrap(), r1);
    }

    #[test]
    fn bulk_append_canonicalizes_and_indexes_once() {
        let mut t = Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        ));
        t.create_index("by_score", vec![1], IndexKind::Hash).unwrap();
        t.bulk_append(vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(2), Value::Float(5.0)],
        ])
        .unwrap();
        assert!(matches!(t.get(RowId(0)).unwrap()[1], Value::Float(f) if f == 5.0));
        assert_eq!(t.index_lookup(&[1], &Value::Float(5.0)).unwrap().len(), 2);
        // The page view is slot-aligned with the batch too.
        let pin = t.pin_pages(0..2).next().unwrap();
        assert_eq!(pin.column(0).unwrap().value_at(1), Value::Int(2));
    }

    #[test]
    fn delete_frees_slot_and_reuses_it() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        let old = t.delete(r1).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(t.len(), 1);
        let r3 = t.insert(row(3, "eve", 25)).unwrap();
        assert_eq!(r3, r1, "freed slot is recycled");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pk_lookup_follows_updates() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        t.update(rid, row(5, "ada", 37)).unwrap();
        assert!(t.lookup_pk(&Value::Int(1)).is_none());
        let (_, r) = t.lookup_pk(&Value::Int(5)).unwrap();
        assert_eq!(r[2], Value::Int(37));
    }

    #[test]
    fn update_to_existing_key_rejected() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        assert!(matches!(t.update(rid, row(2, "ada", 36)), Err(StorageError::DuplicateKey { .. })));
        // Unchanged on failure.
        assert_eq!(t.lookup_pk(&Value::Int(1)).unwrap().1[1], Value::str("ada"));
    }

    #[test]
    fn secondary_index_maintained_across_mutations() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 36)).unwrap();
        t.create_index("by_age", vec![2], IndexKind::Hash).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 2);
        t.update(r1, row(1, "ada", 40)).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 1);
        assert_eq!(t.index_lookup(&[2], &Value::Int(40)).unwrap().len(), 1);
        t.delete(r1).unwrap();
        assert!(t.index_lookup(&[2], &Value::Int(40)).unwrap().is_empty());
    }

    #[test]
    fn restore_undoes_delete_exactly() {
        let mut t = people();
        let rid = t.insert(row(1, "ada", 36)).unwrap();
        let old = t.delete(rid).unwrap();
        t.restore(rid, old).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.lookup_pk(&Value::Int(1)).is_some());
        assert!(t.restore(rid, row(1, "x", 0)).is_err(), "occupied slot rejected");
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let ids: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn scan_slots_partitions_scan() {
        let mut t = people();
        for i in 0..10 {
            t.insert(row(i, "p", i)).unwrap();
        }
        t.delete(RowId(4)).unwrap();
        let full: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        let mut pieced = Vec::new();
        for start in (0..t.slot_count()).step_by(3) {
            pieced.extend(
                t.scan_slots(start..start + 3).map(|(_, r)| r[0].as_int().unwrap()),
            );
        }
        assert_eq!(pieced, full, "contiguous slot morsels cover the scan exactly once");
        // A tail morsel may overshoot slot_count at its *end*; it is clamped.
        let tail: Vec<i64> = t.scan_slots(8..200).map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(tail, vec![8, 9]);
    }

    #[test]
    #[should_panic(expected = "scan_slots range starts at")]
    #[cfg(debug_assertions)]
    fn scan_slots_start_past_end_is_caller_bug() {
        let mut t = people();
        t.insert(row(1, "ada", 36)).unwrap();
        // A start beyond slot_count can never come from a correct morsel
        // partition; it must panic loudly in debug builds.
        let _ = t.scan_slots(100..200).count();
    }

    #[test]
    fn truncate_clears_rows_keeps_indexes() {
        let mut t = people();
        t.create_index("by_age", vec![2], IndexKind::BTree).unwrap();
        t.insert(row(1, "ada", 36)).unwrap();
        t.truncate();
        assert_eq!(t.len(), 0);
        assert!(t.has_index_on(&[2]));
        t.insert(row(1, "ada", 36)).unwrap();
        assert_eq!(t.index_lookup(&[2], &Value::Int(36)).unwrap().len(), 1);
    }

    #[test]
    fn float_column_canonicalizes_int_ingest() {
        let mut t = Table::new(TableSchema::new(
            "m",
            vec![Column::not_null("id", DataType::Int), Column::new("score", DataType::Float)],
            vec![0],
        ));
        let rid = t.insert(vec![Value::Int(1), Value::Int(5)]).unwrap();
        assert!(
            matches!(t.get(rid).unwrap()[1], Value::Float(f) if f == 5.0),
            "Int widened to Float at ingest"
        );
        // Index keys see the canonical representation too.
        t.create_index("by_score", vec![1], IndexKind::Hash).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(5.0)]).unwrap();
        assert_eq!(t.index_lookup(&[1], &Value::Float(5.0)).unwrap().len(), 2);
        // Update path canonicalizes as well.
        t.update(rid, vec![Value::Int(1), Value::Int(7)]).unwrap();
        assert!(matches!(t.get(rid).unwrap()[1], Value::Float(f) if f == 7.0));
    }

    #[test]
    fn stats_reflect_live_rows() {
        let mut t = people();
        let r1 = t.insert(row(1, "ada", 36)).unwrap();
        t.insert(row(2, "bob", 20)).unwrap();
        t.delete(r1).unwrap();
        let stats = t.compute_stats();
        assert_eq!(stats.row_count, 1);
        assert_eq!(stats.columns[0].min, Some(Value::Int(2)));
    }

    /// A table with every column shape, churned through insert / update /
    /// delete / restore so the column view has tombstones, recycled slots,
    /// and dead dictionary entries.
    fn churned_mixed_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "mixed",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("score", DataType::Float),
                Column::new("flag", DataType::Bool),
                Column::new("tag", DataType::Text),
                Column::new("mv", DataType::Int.array_of()),
            ],
            vec![0],
        ));
        for i in 0..20i64 {
            t.insert(vec![
                Value::Int(i),
                if i % 4 == 0 { Value::Null } else { Value::Int(i * 3) }, // widens to Float
                if i % 5 == 0 { Value::Null } else { Value::Bool(i % 2 == 0) },
                if i % 3 == 0 { Value::Null } else { Value::str(["red", "green", "blue"][(i % 3) as usize]) },
                if i % 6 == 0 { Value::Null } else { Value::Array(vec![Value::Int(i), Value::Int(i + 1)]) },
            ])
            .unwrap();
        }
        let gone = t.delete(RowId(3)).unwrap();
        t.delete(RowId(7)).unwrap();
        t.delete(RowId(19)).unwrap(); // trailing tombstone
        t.restore(RowId(3), gone).unwrap();
        t.update(RowId(5), vec![Value::Int(105), Value::Float(-0.0), Value::Bool(false), Value::str("red"), Value::Null])
            .unwrap();
        t.insert(vec![Value::Int(200), Value::Float(f64::NAN), Value::Null, Value::str("violet"), Value::Null])
            .unwrap(); // recycles a freed slot
        t
    }

    #[test]
    fn stats_match_a_scan_of_live_rows() {
        let t = churned_mixed_table();
        let scanned = TableStats::compute(t.scan().map(|(_, r)| r.as_slice()), t.schema().arity());
        assert_eq!(t.compute_stats(), scanned, "page-by-page stats must equal a scan");
    }

    /// Every scalar cell of every page view, floats by bit pattern, with
    /// the live bits: a bit-for-bit fingerprint of the views of `range`.
    fn view_cells(t: &Table, range: std::ops::Range<usize>) -> Vec<String> {
        let mut out = Vec::new();
        for pin in t.pin_pages(range) {
            for i in pin.range() {
                let mut cell = format!("{}:{}", pin.first_slot() + i, pin.live().get(i));
                for c in 0..t.schema().arity() {
                    match pin.column(c) {
                        Some(ColumnSlice::Float { data, valid }) => {
                            cell += &format!(" {}/{:x}", valid.get(i), data[i].to_bits())
                        }
                        Some(s) => cell += &format!(" {:?}", s.value_at(i)),
                        None => cell += " -",
                    }
                }
                out.push(cell);
            }
        }
        out
    }

    /// The view cells `view_cells` should report, derived from the rows.
    fn row_cells(t: &Table) -> Vec<String> {
        let arity = t.schema().arity();
        (0..t.slot_count())
            .map(|slot| {
                let row = t.get(RowId(slot as u64));
                let mut cell = format!("{slot}:{}", row.is_some());
                for c in 0..arity {
                    let v = row.map_or(Value::Null, |r| r[c].clone());
                    match (&t.schema().columns[c].dtype, v) {
                        (DataType::Array(_) | DataType::Struct(_), _) => cell += " -",
                        (DataType::Float, Value::Float(f)) => cell += &format!(" true/{:x}", f.to_bits()),
                        (DataType::Float, _) => cell += " false/0",
                        (_, v) => cell += &format!(" {v:?}"),
                    }
                }
                cell
            })
            .collect()
    }

    #[test]
    fn page_view_matches_rows_after_every_write_path() {
        let t = churned_mixed_table();
        assert_eq!(view_cells(&t, 0..t.slot_count()), row_cells(&t));
        let live: usize = t.pin_pages(0..t.slot_count()).map(|p| p.live().count_ones()).sum();
        assert_eq!(live, t.len());
        // Round-trip through a checkpointed slot vector and truncate.
        let rebuilt = Table::from_slots(t.schema().clone(), t.slots_vec()).unwrap();
        assert_eq!(view_cells(&rebuilt, 0..rebuilt.slot_count()), row_cells(&t));
        let mut t2 = t.clone();
        t2.truncate();
        assert_eq!(t2.pin_pages(0..t.slot_count()).count(), 0, "truncate drops every page");
        t2.insert(vec![Value::Int(1), Value::Null, Value::Null, Value::str("x"), Value::Null]).unwrap();
        assert_eq!(view_cells(&t2, 0..1), row_cells(&t2));
    }

    #[test]
    fn page_view_reflects_a_write_to_its_page() {
        let mut t = churned_mixed_table();
        let before = view_cells(&t, 0..t.slot_count()); // builds every view
        t.update(RowId(2), vec![Value::Int(2), Value::Float(0.5), Value::Bool(true), Value::str("new"), Value::Null])
            .unwrap();
        let after = view_cells(&t, 0..t.slot_count());
        assert_ne!(before, after, "the write reached the view");
        assert_eq!(after, row_cells(&t), "rebuilt view equals the rows");
        t.delete(RowId(4)).unwrap();
        t.insert(vec![Value::Int(300), Value::Null, Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(view_cells(&t, 0..t.slot_count()), row_cells(&t));
    }

    #[test]
    fn page_view_of_pinned_snapshot_survives_writer_detach() {
        let mut t = churned_mixed_table();
        let old_cells = view_cells(&t, 0..t.slot_count());
        let old_view: *const PageChunks = t.pin_pages(0..1).next().unwrap().chunks();
        let snap = t.clone(); // shares the page and its view
        t.update(RowId(0), vec![Value::Int(0), Value::Null, Value::Null, Value::str("w"), Value::Null])
            .unwrap();
        let snap_view: *const PageChunks = snap.pin_pages(0..1).next().unwrap().chunks();
        assert!(std::ptr::eq(old_view, snap_view), "snapshot keeps the view it had");
        assert_eq!(view_cells(&snap, 0..snap.slot_count()), old_cells);
        let new_view: *const PageChunks = t.pin_pages(0..1).next().unwrap().chunks();
        assert!(!std::ptr::eq(old_view, new_view), "writer detached a page without the view");
        assert_eq!(view_cells(&t, 0..t.slot_count()), row_cells(&t));
    }

    #[test]
    fn page_view_rebuilds_bit_for_bit_after_eviction() {
        let dir = std::env::temp_dir().join(format!(
            "erbium-page-view-{}-{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = BufferPool::bounded(1, dir.join("pages.erb"));
        let mut t = Table::with_pool(churned_mixed_table().schema().clone(), pool.clone());
        for i in 0..2000i64 {
            t.insert(vec![
                Value::Int(i),
                if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 3.0) },
                Value::Bool(i % 2 == 0),
                Value::str(format!("s{}", i % 37)),
                Value::Array(vec![Value::Int(i)]),
            ])
            .unwrap();
        }
        assert!(t.page_count() > 2, "data spans several pages");
        let views = view_cells(&t, 0..t.slot_count());
        pool.note_txn_end();
        assert!(t.reclaim_pages(true).unwrap() > 0, "tiny budget must evict");
        let misses = pool.stats().misses;
        assert_eq!(view_cells(&t, 0..t.slot_count()), views, "re-faulted views are identical");
        assert!(pool.stats().misses > misses, "views were rebuilt from re-faulted pages");
        std::fs::remove_dir_all(&dir).ok();
    }
}
