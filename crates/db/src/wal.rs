//! The write-ahead log: checksummed, LSN-stamped records in one
//! append-only file per database directory.
//!
//! Every durable write a [`crate::Database`] performs — registration,
//! ingest batch, tombstone DELETE, overwrite UPDATE, transaction
//! commit, `CREATE SNAPSHOT` — lands here as one framed record before
//! the call returns. [`crate::Database::open`] replays the log through
//! the crate-private `recovery` module to reconstruct catalogue,
//! deltas, statistics and version counters; compaction doubles as the
//! **checkpoint** that rewrites the log down to image records (see
//! `rewrite`).
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic record*            magic  = "VAGGWAL1"
//! record := len:u32 crc:u64 lsn:u64 payload[len]
//! ```
//!
//! All integers little-endian. `crc` is an FNV-1a 64 hash over the LSN
//! bytes followed by the payload, so a record misfiled at the wrong LSN
//! fails its checksum too. LSNs are strictly consecutive; the first
//! record's LSN sets the base (a checkpoint rewrite keeps numbering,
//! so LSNs never restart).
//!
//! ## Corruption handling
//!
//! A **torn tail** — a partial frame at EOF, or a checksum mismatch on
//! the *last* record — is what an interrupted write leaves behind:
//! `read_log` keeps every record before it and reports the valid
//! length, and recovery truncates the file there. A checksum mismatch
//! with further records *behind* it, or a non-consecutive LSN, is real
//! corruption and fails recovery with a typed [`WalError`].
//!
//! Durability model: records are buffered and flushed to the OS at
//! every commit boundary (each autocommit write, each `COMMIT`). That
//! survives process crashes — the scenario the recovery tests model —
//! without paying an fsync per statement.

use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// The 8-byte file header every vagg WAL starts with.
pub(crate) const MAGIC: [u8; 8] = *b"VAGGWAL1";

/// Frame overhead in bytes: `len:u32 + crc:u64 + lsn:u64`.
pub(crate) const FRAME: usize = 4 + 8 + 8;

/// The autocommit transaction id: records tagged 0 are applied on
/// replay without waiting for a commit record.
pub(crate) const AUTOCOMMIT: u64 = 0;

/// Why a write-ahead log could not be written or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalError {
    /// An underlying filesystem operation failed (the message carries
    /// the OS error).
    Io(String),
    /// The file does not start with the vagg WAL magic — not a log.
    BadMagic,
    /// A record's checksum disagrees with its content and records
    /// *follow* it — mid-log corruption, unrecoverable (a mismatch on
    /// the final record is a torn tail instead, which recovery
    /// truncates).
    BadChecksum {
        /// Byte offset of the corrupt frame.
        offset: u64,
    },
    /// A record's LSN is not the successor of the previous record's —
    /// the log was spliced or rewritten out of order.
    OutOfOrderLsn {
        /// The LSN the sequence required.
        expected: u64,
        /// The LSN the record carries.
        found: u64,
    },
    /// An interrupted write left a partial or checksum-failing frame at
    /// end of file. Recovery keeps everything before `valid_len` and
    /// truncates the tail.
    TornTail {
        /// Byte length of the valid prefix.
        valid_len: u64,
    },
    /// A frame passed its checksum but its payload does not decode —
    /// an encoder/decoder mismatch, not a disk fault.
    Corrupt {
        /// Byte offset of the undecodable frame.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a vagg write-ahead log (bad magic)"),
            WalError::BadChecksum { offset } => {
                write!(
                    f,
                    "wal checksum mismatch at offset {offset} (mid-log corruption)"
                )
            }
            WalError::OutOfOrderLsn { expected, found } => {
                write!(
                    f,
                    "wal lsn out of order: expected {expected}, found {found}"
                )
            }
            WalError::TornTail { valid_len } => {
                write!(f, "torn wal tail after offset {valid_len}")
            }
            WalError::Corrupt { offset } => {
                write!(f, "undecodable wal record at offset {offset}")
            }
        }
    }
}

impl Error for WalError {}

impl WalError {
    fn io(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

/// One logical WAL record. `txn` 0 ([`AUTOCOMMIT`]) applies immediately
/// on replay; any other id is buffered until its [`WalRecord::Commit`]
/// is seen (or, for sharded records, until the coordinator's commit set
/// vouches for it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A (re-)registration or a checkpoint image: full column content
    /// plus the exact version counters to reinstall.
    Register {
        /// Transaction (or cross-shard group) id.
        txn: u64,
        /// Table name.
        table: String,
        /// Schema version to force on replay.
        schema_version: u64,
        /// Data version to force on replay.
        data_version: u64,
        /// Column name → values.
        columns: Vec<(String, Vec<u32>)>,
    },
    /// One ingested row batch.
    Batch {
        /// Transaction id.
        txn: u64,
        /// Table name.
        table: String,
        /// Column name → values.
        columns: Vec<(String, Vec<u32>)>,
    },
    /// Tombstoned physical rows (resolved before logging).
    Delete {
        /// Transaction id.
        txn: u64,
        /// Table name.
        table: String,
        /// Physical row ids.
        rows: Vec<u32>,
    },
    /// Overwritten physical rows (resolved before logging).
    Update {
        /// Transaction id.
        txn: u64,
        /// Table name.
        table: String,
        /// Physical row ids.
        rows: Vec<u32>,
        /// `(column, value)` assignments applied to every row.
        sets: Vec<(String, u32)>,
    },
    /// Makes every earlier record of `txn` durable and visible.
    Commit {
        /// The committing transaction id.
        txn: u64,
    },
    /// `CREATE SNAPSHOT name` — replay recreates the named version from
    /// the replayed state at this position.
    CreateSnapshot {
        /// The version's name.
        name: String,
    },
    /// A checkpointed named version: frozen content per table, so the
    /// name survives even though its creation predates the checkpoint.
    SnapshotImage {
        /// The version's name.
        name: String,
        /// Per table: `(table, data version at creation, columns)`.
        tables: Vec<FrozenTable>,
    },
}

/// One frozen table inside a [`WalRecord::SnapshotImage`]: `(table,
/// data version at creation, column contents)`.
pub(crate) type FrozenTable = (String, u64, Vec<(String, Vec<u32>)>);

impl WalRecord {
    /// The table or named snapshot the record is about, for a message.
    fn subject(&self) -> &str {
        match self {
            WalRecord::Register { table, .. }
            | WalRecord::Batch { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::Update { table, .. } => table,
            WalRecord::CreateSnapshot { name } | WalRecord::SnapshotImage { name, .. } => name,
            WalRecord::Commit { .. } => "a commit",
        }
    }

    /// The transaction id the record belongs to (records without write
    /// payload — snapshot records — are autocommit).
    pub(crate) fn txn(&self) -> u64 {
        match self {
            WalRecord::Register { txn, .. }
            | WalRecord::Batch { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Commit { txn } => *txn,
            WalRecord::CreateSnapshot { .. } | WalRecord::SnapshotImage { .. } => AUTOCOMMIT,
        }
    }
}

// ---------------------------------------------------------------------
// Payload encoding: tag byte + length-prefixed fields, little-endian.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_u32(out, v);
    }
}

fn put_columns(out: &mut Vec<u8>, columns: &[(String, Vec<u32>)]) {
    put_u32(out, columns.len() as u32);
    for (name, values) in columns {
        put_str(out, name);
        put_u32s(out, values);
    }
}

/// A decode cursor; every getter fails soft (the caller maps the
/// failure to [`WalError::Corrupt`] with the frame offset).
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn u32s(&mut self) -> Option<Vec<u32>> {
        let n = self.u32()? as usize;
        // Bounded by the frame length the checksum vouched for.
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        (0..n).map(|_| self.u32()).collect()
    }

    fn columns(&mut self) -> Option<Vec<(String, Vec<u32>)>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| Some((self.str()?, self.u32s()?))).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Appends `record`'s payload to `out` — straight into the writer's
/// buffer, behind the frame header [`WalWriter::append`] back-patches.
fn encode_into(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Register {
            txn,
            table,
            schema_version,
            data_version,
            columns,
        } => {
            out.push(1);
            put_u64(out, *txn);
            put_str(out, table);
            put_u64(out, *schema_version);
            put_u64(out, *data_version);
            put_columns(out, columns);
        }
        WalRecord::Batch {
            txn,
            table,
            columns,
        } => {
            out.push(2);
            put_u64(out, *txn);
            put_str(out, table);
            put_columns(out, columns);
        }
        WalRecord::Delete { txn, table, rows } => {
            out.push(3);
            put_u64(out, *txn);
            put_str(out, table);
            put_u32s(out, rows);
        }
        WalRecord::Update {
            txn,
            table,
            rows,
            sets,
        } => {
            out.push(4);
            put_u64(out, *txn);
            put_str(out, table);
            put_u32s(out, rows);
            put_u32(out, sets.len() as u32);
            for (column, value) in sets {
                put_str(out, column);
                put_u32(out, *value);
            }
        }
        WalRecord::Commit { txn } => {
            out.push(5);
            put_u64(out, *txn);
        }
        WalRecord::CreateSnapshot { name } => {
            out.push(6);
            put_str(out, name);
        }
        WalRecord::SnapshotImage { name, tables } => {
            out.push(7);
            put_str(out, name);
            put_u32(out, tables.len() as u32);
            for (table, data_version, columns) in tables {
                put_str(out, table);
                put_u64(out, *data_version);
                put_columns(out, columns);
            }
        }
    }
}

fn decode(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let tag = *c.take(1)?.first()?;
    let record = match tag {
        1 => WalRecord::Register {
            txn: c.u64()?,
            table: c.str()?,
            schema_version: c.u64()?,
            data_version: c.u64()?,
            columns: c.columns()?,
        },
        2 => WalRecord::Batch {
            txn: c.u64()?,
            table: c.str()?,
            columns: c.columns()?,
        },
        3 => WalRecord::Delete {
            txn: c.u64()?,
            table: c.str()?,
            rows: c.u32s()?,
        },
        4 => {
            let txn = c.u64()?;
            let table = c.str()?;
            let rows = c.u32s()?;
            let n = c.u32()? as usize;
            let sets = (0..n)
                .map(|_| Some((c.str()?, c.u32()?)))
                .collect::<Option<Vec<_>>>()?;
            WalRecord::Update {
                txn,
                table,
                rows,
                sets,
            }
        }
        5 => WalRecord::Commit { txn: c.u64()? },
        6 => WalRecord::CreateSnapshot { name: c.str()? },
        7 => {
            let name = c.str()?;
            let n = c.u32()? as usize;
            let tables = (0..n)
                .map(|_| Some((c.str()?, c.u64()?, c.columns()?)))
                .collect::<Option<Vec<_>>>()?;
            WalRecord::SnapshotImage { name, tables }
        }
        _ => return None,
    };
    c.done().then_some(record)
}

/// FNV-1a 64 over the LSN bytes followed by the payload.
fn checksum(lsn: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in lsn.to_le_bytes().iter().chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// A payload's length as the frame header stores it.
///
/// # Panics
///
/// If `payload` bytes do not fit a `u32`. A wrapped length would replay
/// as a torn tail and silently truncate the record and everything
/// logged after it; nothing can be done for such a record at this
/// layer, so it stops here, named.
fn frame_len(record: &WalRecord, payload: usize) -> u32 {
    u32::try_from(payload).unwrap_or_else(|_| {
        panic!(
            "wal record for {:?} is {payload} bytes, past the 4 GiB a frame can hold",
            record.subject()
        )
    })
}

// ---------------------------------------------------------------------
// Writer.

/// An open, append-positioned WAL file. Appends buffer in memory;
/// [`WalWriter::flush`] pushes them to the OS — the commit boundary.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    buffer: Vec<u8>,
    next_lsn: u64,
    stats: WalWriterStats,
}

/// Lifetime counters of one [`WalWriter`], folded into
/// [`crate::Database::metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalWriterStats {
    /// Records framed into the buffer.
    pub(crate) appends: u64,
    /// Flushes that pushed buffered bytes to the OS (the durability
    /// points; empty-buffer flushes are not counted).
    pub(crate) flushes: u64,
    /// Framed bytes written (header + payload).
    pub(crate) bytes: u64,
}

impl WalWriter {
    /// Creates (or truncates to) an empty log and writes the header.
    pub(crate) fn create(path: &Path) -> Result<Self, WalError> {
        Self::create_from(path, 1)
    }

    /// Creates an empty log whose first record will carry `first_lsn` —
    /// how a checkpoint rewrite keeps the LSN sequence running.
    pub(crate) fn create_from(path: &Path, first_lsn: u64) -> Result<Self, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(WalError::io)?;
        file.write_all(&MAGIC).map_err(WalError::io)?;
        Ok(Self {
            file,
            buffer: Vec::new(),
            next_lsn: first_lsn,
            stats: WalWriterStats::default(),
        })
    }

    /// Opens an existing, already-validated log for appending;
    /// `next_lsn` is what [`read_log`] reported.
    pub(crate) fn append_to(path: &Path, next_lsn: u64) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(WalError::io)?;
        Ok(Self {
            file,
            buffer: Vec::new(),
            next_lsn,
            stats: WalWriterStats::default(),
        })
    }

    /// Frames and buffers one record, returning its LSN. Nothing is
    /// durable until [`WalWriter::flush`].
    ///
    /// The payload is encoded in place, behind a zeroed header that is
    /// patched once the payload's length and checksum are known — the
    /// bytes of `len ‖ crc ‖ lsn ‖ encode(record)`, without the
    /// intermediate payload vector (`frames_are_the_header_and_the_reference_payload`).
    ///
    /// # Panics
    ///
    /// If the payload does not fit the frame's `u32` length (see
    /// [`frame_len`]).
    pub(crate) fn append(&mut self, record: &WalRecord) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let frame = self.buffer.len();
        self.buffer.resize(frame + FRAME, 0);
        encode_into(&mut self.buffer, record);
        let (header, payload) = self.buffer[frame..].split_at_mut(FRAME);
        header[..4].copy_from_slice(&frame_len(record, payload.len()).to_le_bytes());
        header[4..12].copy_from_slice(&checksum(lsn, payload).to_le_bytes());
        header[12..].copy_from_slice(&lsn.to_le_bytes());
        self.stats.appends += 1;
        self.stats.bytes += (FRAME + payload.len()) as u64;
        lsn
    }

    /// Pushes every buffered record to the OS — the durability point of
    /// each autocommit write and each transaction `COMMIT`.
    pub(crate) fn flush(&mut self) -> Result<(), WalError> {
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer).map_err(WalError::io)?;
            self.file.flush().map_err(WalError::io)?;
            self.buffer.clear();
            self.stats.flushes += 1;
        }
        Ok(())
    }

    /// The LSN the next appended record will carry.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Lifetime append/flush/byte counters of this writer.
    pub(crate) fn stats(&self) -> WalWriterStats {
        self.stats
    }

    /// Seeds the counters from a predecessor writer so
    /// [`WalWriter::stats`] stays cumulative across a checkpoint
    /// rewrite (the checkpoint's own image records are not counted —
    /// they re-state writes already counted when first appended).
    pub(crate) fn carry_stats(&mut self, prior: WalWriterStats) {
        self.stats = prior;
    }
}

// ---------------------------------------------------------------------
// Reader.

/// What [`read_log`] found: the valid records in LSN order, the LSN the
/// next append should carry, and — when an interrupted write left a
/// torn tail — the length to truncate the file to.
#[derive(Debug)]
pub(crate) struct LogContents {
    /// `(lsn, record)` in file order.
    pub records: Vec<(u64, WalRecord)>,
    /// The successor of the last valid record's LSN (the base LSN for
    /// an empty log).
    pub next_lsn: u64,
    /// `Some(valid_len)` when a torn tail was detected; the caller
    /// truncates the file to `valid_len` before appending.
    pub torn: Option<u64>,
}

/// Reads and validates a WAL file front to back. Torn tails are
/// *reported*, not fatal; every other corruption is a typed error.
pub(crate) fn read_log(path: &Path) -> Result<LogContents, WalError> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(WalError::io)?;
    if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
        // A file so short it cannot even hold the header is what a
        // crash during creation leaves; anything else is not ours.
        if buf.is_empty() || MAGIC.starts_with(&buf) {
            return Ok(LogContents {
                records: Vec::new(),
                next_lsn: 1,
                torn: Some(0),
            });
        }
        return Err(WalError::BadMagic);
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    let mut next_lsn = 1u64;
    let mut torn = None;
    while offset < buf.len() {
        let frame_ok = (|| {
            let header = buf.get(offset..offset + FRAME)?;
            let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
            let crc = u64::from_le_bytes(header[4..12].try_into().ok()?);
            let lsn = u64::from_le_bytes(header[12..20].try_into().ok()?);
            let payload = buf.get(offset + FRAME..offset + FRAME + len)?;
            (checksum(lsn, payload) == crc).then_some((len, lsn, payload))
        })();
        let Some((len, lsn, payload)) = frame_ok else {
            // Partial frame or checksum failure at the tail: an
            // interrupted append. Mid-log (impossible here — a bad
            // frame hides everything after it), the distinction is
            // drawn below via the checksum-with-followers case; this
            // uniform path truncates to the last whole record.
            torn = Some(offset as u64);
            break;
        };
        if !records.is_empty() && lsn != next_lsn {
            return Err(WalError::OutOfOrderLsn {
                expected: next_lsn,
                found: lsn,
            });
        }
        let record = decode(payload).ok_or(WalError::Corrupt {
            offset: offset as u64,
        })?;
        records.push((lsn, record));
        next_lsn = lsn + 1;
        offset += FRAME + len;
    }
    // A frame that fails its checksum but is *followed* by an intact
    // frame is mid-log corruption, not a torn tail: probe whether any
    // later position parses as a valid frame.
    if let Some(at) = torn {
        let mut probe = at as usize + 1;
        while probe + FRAME <= buf.len() {
            let ok = (|| {
                let header = buf.get(probe..probe + FRAME)?;
                let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
                let crc = u64::from_le_bytes(header[4..12].try_into().ok()?);
                let lsn = u64::from_le_bytes(header[12..20].try_into().ok()?);
                let payload = buf.get(probe + FRAME..probe + FRAME + len)?;
                (checksum(lsn, payload) == crc).then_some(())
            })();
            if ok.is_some() {
                return Err(WalError::BadChecksum { offset: at });
            }
            probe += 1;
        }
    }
    Ok(LogContents {
        records,
        next_lsn,
        torn,
    })
}

/// Truncates a torn log to its valid prefix — what recovery does with
/// [`LogContents::torn`] before reopening the writer. A truncation to
/// 0 (the header itself was torn) rewrites the header.
pub(crate) fn truncate(path: &Path, valid_len: u64) -> Result<(), WalError> {
    if valid_len < MAGIC.len() as u64 {
        return WalWriter::create(path).map(drop);
    }
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(WalError::io)?;
    file.set_len(valid_len).map_err(WalError::io)
}

/// Atomically replaces the log with `records` (a checkpoint): writes a
/// sibling `.tmp` file, flushes it, renames it over the log, and
/// returns a writer positioned after the images. `first_lsn` continues
/// the pre-checkpoint sequence so the LSN chain never restarts.
pub(crate) fn rewrite(
    path: &Path,
    records: &[WalRecord],
    first_lsn: u64,
) -> Result<WalWriter, WalError> {
    let tmp: PathBuf = path.with_extension("log.tmp");
    let mut writer = WalWriter::create_from(&tmp, first_lsn)?;
    for record in records {
        writer.append(record);
    }
    writer.flush()?;
    drop(writer);
    fs::rename(&tmp, path).map_err(WalError::io)?;
    let next = first_lsn + records.len() as u64;
    WalWriter::append_to(path, next)
}

/// The payload encoder [`encode_into`] replaced, verbatim: a fresh
/// vector per record. What a frame's payload bytes are compared with;
/// never edit it along with the live encoder.
#[cfg(test)]
mod reference {
    use super::{put_columns, put_str, put_u32, put_u32s, put_u64, WalRecord};

    pub(super) fn encode(record: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        match record {
            WalRecord::Register {
                txn,
                table,
                schema_version,
                data_version,
                columns,
            } => {
                out.push(1);
                put_u64(&mut out, *txn);
                put_str(&mut out, table);
                put_u64(&mut out, *schema_version);
                put_u64(&mut out, *data_version);
                put_columns(&mut out, columns);
            }
            WalRecord::Batch {
                txn,
                table,
                columns,
            } => {
                out.push(2);
                put_u64(&mut out, *txn);
                put_str(&mut out, table);
                put_columns(&mut out, columns);
            }
            WalRecord::Delete { txn, table, rows } => {
                out.push(3);
                put_u64(&mut out, *txn);
                put_str(&mut out, table);
                put_u32s(&mut out, rows);
            }
            WalRecord::Update {
                txn,
                table,
                rows,
                sets,
            } => {
                out.push(4);
                put_u64(&mut out, *txn);
                put_str(&mut out, table);
                put_u32s(&mut out, rows);
                put_u32(&mut out, sets.len() as u32);
                for (column, value) in sets {
                    put_str(&mut out, column);
                    put_u32(&mut out, *value);
                }
            }
            WalRecord::Commit { txn } => {
                out.push(5);
                put_u64(&mut out, *txn);
            }
            WalRecord::CreateSnapshot { name } => {
                out.push(6);
                put_str(&mut out, name);
            }
            WalRecord::SnapshotImage { name, tables } => {
                out.push(7);
                put_str(&mut out, name);
                put_u32(&mut out, tables.len() as u32);
                for (table, data_version, columns) in tables {
                    put_str(&mut out, table);
                    put_u64(&mut out, *data_version);
                    put_columns(&mut out, columns);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Register {
                txn: 0,
                table: "r".into(),
                schema_version: 1,
                data_version: 1,
                columns: vec![("g".into(), vec![1, 2, 3]), ("v".into(), vec![9, 8, 7])],
            },
            WalRecord::Batch {
                txn: 0,
                table: "r".into(),
                columns: vec![("g".into(), vec![4]), ("v".into(), vec![6])],
            },
            WalRecord::Delete {
                txn: 7,
                table: "r".into(),
                rows: vec![0, 2],
            },
            WalRecord::Update {
                txn: 7,
                table: "r".into(),
                rows: vec![1],
                sets: vec![("v".into(), 99)],
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::CreateSnapshot { name: "pre".into() },
            WalRecord::SnapshotImage {
                name: "pre".into(),
                tables: vec![("r".into(), 3, vec![("g".into(), vec![2, 4])])],
            },
        ]
    }

    fn write_log(path: &Path, records: &[WalRecord]) {
        let mut w = WalWriter::create(path).unwrap();
        for r in records {
            w.append(r);
        }
        w.flush().unwrap();
    }

    #[test]
    fn round_trips_every_record_kind() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal.log");
        let records = sample_records();
        write_log(&path, &records);
        let log = read_log(&path).unwrap();
        assert_eq!(log.torn, None);
        assert_eq!(log.next_lsn, records.len() as u64 + 1);
        let decoded: Vec<WalRecord> = log.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
    }

    /// The log's bytes are a format: a frame is `len ‖ crc ‖ lsn ‖
    /// payload` with the payload the reference encoder's, whatever
    /// buffer the live encoder writes it into — records queued behind
    /// one another in one buffer included.
    #[test]
    fn frames_are_the_header_and_the_reference_payload() {
        let dir = TempDir::new("wal-frame-bytes");
        let path = dir.path().join("wal.log");
        let mut records = sample_records();
        // No columns, an empty column, no rows, no sets, no tables, and
        // a column long enough to outgrow any small buffer.
        records.extend([
            WalRecord::Register {
                txn: 3,
                table: String::new(),
                schema_version: u64::MAX,
                data_version: 0,
                columns: vec![],
            },
            WalRecord::Batch {
                txn: 0,
                table: "wide".into(),
                columns: vec![("e".into(), vec![]), ("n".into(), (0..5000).collect())],
            },
            WalRecord::Delete {
                txn: 0,
                table: "r".into(),
                rows: vec![],
            },
            WalRecord::Update {
                txn: 1,
                table: "r".into(),
                rows: vec![u32::MAX],
                sets: vec![],
            },
            WalRecord::SnapshotImage {
                name: "empty".into(),
                tables: vec![],
            },
        ]);
        let mut w = WalWriter::create_from(&path, 41).unwrap();
        let mut want = Vec::new();
        for (i, record) in records.iter().enumerate() {
            let lsn = 41 + i as u64;
            assert_eq!(w.append(record), lsn);
            let payload = reference::encode(record);
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&checksum(lsn, &payload).to_le_bytes());
            want.extend_from_slice(&lsn.to_le_bytes());
            want.extend_from_slice(&payload);
            assert_eq!(w.buffer, want, "after record {i}: {record:?}");
        }
        assert_eq!(w.stats().bytes, want.len() as u64);
        w.flush().unwrap();
        assert_eq!(fs::read(&path).unwrap()[MAGIC.len()..], want[..]);

        // One frame as literals, so that the reference and the checksum
        // cannot drift together: `Commit {txn: 7}` at LSN 2 (the crc
        // worked out by hand with `checksum`'s own multiplier, which is
        // 2⁴⁸ + 0x1b3 and not the FNV prime 2⁴⁰ + 0x1b3).
        let mut w = WalWriter::create_from(&path, 2).unwrap();
        w.append(&WalRecord::Commit { txn: 7 });
        assert_eq!(
            w.buffer,
            [
                9, 0, 0, 0, // len
                129, 195, 244, 141, 239, 244, 23, 191, // crc
                2, 0, 0, 0, 0, 0, 0, 0, // lsn
                5, 7, 0, 0, 0, 0, 0, 0, 0, // tag, txn
            ]
        );
    }

    #[test]
    #[should_panic(expected = "for \"events\" is 4294967296 bytes")]
    fn a_frame_past_four_gib_is_refused_by_name() {
        let record = WalRecord::Batch {
            txn: 0,
            table: "events".into(),
            columns: vec![],
        };
        assert_eq!(frame_len(&record, u32::MAX as usize), u32::MAX);
        frame_len(&record, u32::MAX as usize + 1);
    }

    #[test]
    fn lsns_are_consecutive_and_resume_after_reopen() {
        let dir = TempDir::new("wal-lsn");
        let path = dir.path().join("wal.log");
        write_log(&path, &sample_records()[..2]);
        let log = read_log(&path).unwrap();
        assert_eq!(
            log.records.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let mut w = WalWriter::append_to(&path, log.next_lsn).unwrap();
        assert_eq!(w.append(&WalRecord::Commit { txn: 0 }), 3);
        w.flush().unwrap();
        assert_eq!(read_log(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn torn_partial_frame_is_truncated_to_the_last_valid_record() {
        let dir = TempDir::new("wal-torn-frame");
        let path = dir.path().join("wal.log");
        write_log(&path, &sample_records());
        // Chop mid-way through the final frame: an interrupted append.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let log = read_log(&path).unwrap();
        let valid = log.torn.expect("tail must be reported torn");
        assert_eq!(log.records.len(), sample_records().len() - 1);
        truncate(&path, valid).unwrap();
        let repaired = read_log(&path).unwrap();
        assert_eq!(repaired.torn, None);
        assert_eq!(repaired.records.len(), sample_records().len() - 1);
    }

    #[test]
    fn bad_checksum_on_the_last_record_is_a_torn_tail() {
        let dir = TempDir::new("wal-torn-crc");
        let path = dir.path().join("wal.log");
        write_log(&path, &sample_records());
        // Flip a payload byte of the final record.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let log = read_log(&path).unwrap();
        assert!(log.torn.is_some());
        assert_eq!(log.records.len(), sample_records().len() - 1);
    }

    #[test]
    fn bad_checksum_mid_log_is_a_hard_error() {
        let dir = TempDir::new("wal-mid-crc");
        let path = dir.path().join("wal.log");
        write_log(&path, &sample_records());
        // Flip one byte inside the *first* record's payload: intact
        // records follow, so this is corruption, not a torn tail.
        let mut bytes = fs::read(&path).unwrap();
        bytes[MAGIC.len() + FRAME + 2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let e = read_log(&path).unwrap_err();
        assert!(
            matches!(e, WalError::BadChecksum { .. }),
            "expected BadChecksum, got {e:?}"
        );
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn out_of_order_lsn_is_a_hard_error() {
        let dir = TempDir::new("wal-lsn-order");
        let path = dir.path().join("wal.log");
        // Hand-frame two records whose LSNs skip: 1 then 3.
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::Commit { txn: 0 });
        w.next_lsn = 3;
        w.append(&WalRecord::Commit { txn: 0 });
        w.flush().unwrap();
        let e = read_log(&path).unwrap_err();
        assert_eq!(
            e,
            WalError::OutOfOrderLsn {
                expected: 2,
                found: 3
            }
        );
        assert!(e.to_string().contains("out of order"));
    }

    #[test]
    fn empty_and_headerless_files_recover_to_an_empty_log() {
        let dir = TempDir::new("wal-empty");
        let path = dir.path().join("wal.log");
        fs::write(&path, b"").unwrap();
        let log = read_log(&path).unwrap();
        assert_eq!((log.records.len(), log.next_lsn), (0, 1));
        assert_eq!(log.torn, Some(0));
        // A torn header (crash during creation): same outcome.
        fs::write(&path, &MAGIC[..4]).unwrap();
        assert_eq!(read_log(&path).unwrap().torn, Some(0));
        truncate(&path, 0).unwrap();
        assert_eq!(read_log(&path).unwrap().torn, None);
        // A different file's header is firmly rejected.
        fs::write(&path, b"NOTAVAGG").unwrap();
        assert_eq!(read_log(&path).unwrap_err(), WalError::BadMagic);
    }

    #[test]
    fn rewrite_replaces_the_log_and_continues_the_lsn_sequence() {
        let dir = TempDir::new("wal-rewrite");
        let path = dir.path().join("wal.log");
        write_log(&path, &sample_records());
        let image = vec![WalRecord::Register {
            txn: 0,
            table: "r".into(),
            schema_version: 1,
            data_version: 9,
            columns: vec![("g".into(), vec![1])],
        }];
        let pre = read_log(&path).unwrap();
        let mut w = rewrite(&path, &image, pre.next_lsn).unwrap();
        w.append(&WalRecord::Commit { txn: 0 });
        w.flush().unwrap();
        let log = read_log(&path).unwrap();
        assert_eq!(log.records.len(), 2, "images plus the post-rewrite append");
        assert_eq!(log.records[0].0, pre.next_lsn, "lsn chain continues");
        assert_eq!(log.records[0].1, image[0]);
    }
}
