//! The on-disk content-addressed store.
//!
//! Layout (everything under one root directory):
//!
//! ```text
//! <root>/objects/<hh>/<56 hex chars>.obj   # hh = first key byte, sharded
//! <root>/tmp/                              # staging for atomic publish
//! ```
//!
//! Every object file carries a header (magic, artifact kind, payload
//! length, SHA-256 checksum of the payload) followed by the payload.
//! Publishing writes the full file into `tmp/` and `rename`s it into
//! place, so readers never observe partial objects. Loading verifies the
//! header and checksum; **any** failure — missing file, bad magic, wrong
//! kind, checksum mismatch, undecodable payload — degrades to a cache
//! miss (with a stderr warning for actively corrupt entries, which are
//! also unlinked so they regenerate cleanly).

use crate::codec;
use crate::hash::{Digest, Sha256};
use crate::key;
use btb_core::BtbConfig;
use btb_sim::{PipelineConfig, SimReport};
use btb_trace::{
    read_trace, ReadTraceError, Trace, TraceReader, TraceRecord, TraceWriter, WorkloadProfile,
};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const STORE_MAGIC: &[u8; 8] = b"BTBSTOR1";
const HEADER_LEN: usize = 8 + 1 + 8 + 32;
/// Largest payload length a header may declare (16 GiB); anything longer
/// is a corrupt header, never an allocation or read to attempt.
const MAX_PAYLOAD_LEN: u64 = 1 << 34;

/// What an object holds; part of the object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A serialized workload trace.
    Trace,
    /// A serialized simulation report.
    Report,
}

impl Kind {
    fn code(self) -> u8 {
        match self {
            Kind::Trace => 1,
            Kind::Report => 2,
        }
    }

    fn from_code(code: u8) -> Option<Kind> {
        match code {
            1 => Some(Kind::Trace),
            2 => Some(Kind::Report),
            _ => None,
        }
    }

    /// Human-readable label (used by `store stats`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Trace => "trace",
            Kind::Report => "report",
        }
    }
}

/// Monotonic hit/miss counters, split by artifact kind, plus raw object
/// I/O volume.
#[derive(Debug, Default)]
pub struct Counters {
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Trace fetches served from the store.
    pub trace_hits: u64,
    /// Trace fetches that fell back to generation.
    pub trace_misses: u64,
    /// Report fetches served from the store.
    pub report_hits: u64,
    /// Report fetches that fell back to simulation.
    pub report_misses: u64,
    /// Verified payload bytes read from objects (headers excluded).
    pub bytes_read: u64,
    /// Payload bytes successfully published (headers excluded).
    pub bytes_written: u64,
}

impl CounterSnapshot {
    /// True if nothing was counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == CounterSnapshot::default()
    }
}

impl std::fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traces {} hit / {} miss; reports {} hit / {} miss; {} B read / {} B written",
            self.trace_hits,
            self.trace_misses,
            self.report_hits,
            self.report_misses,
            self.bytes_read,
            self.bytes_written
        )
    }
}

/// Aggregate store statistics (`store stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of trace objects.
    pub trace_objects: u64,
    /// Bytes held by trace objects (headers included).
    pub trace_bytes: u64,
    /// Number of report objects.
    pub report_objects: u64,
    /// Bytes held by report objects (headers included).
    pub report_bytes: u64,
    /// Objects whose header could not be read (corrupt or foreign files).
    pub unreadable_objects: u64,
}

/// Result of a [`Store::gc`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Objects removed.
    pub removed_objects: u64,
    /// Bytes freed.
    pub removed_bytes: u64,
    /// Objects retained.
    pub kept_objects: u64,
}

/// A fault-injection point for crash-consistency tests.
///
/// Armed with [`Store::inject_failpoint`]; the next matching operation
/// trips it (one-shot) and behaves like the simulated fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// The next [`Store::put_raw`] writes a *truncated* object into
    /// `tmp/` and returns an error without renaming or cleaning up —
    /// exactly the debris a process killed mid-publish leaves behind.
    CrashBeforeRename,
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    counters: Counters,
    tmp_seq: AtomicU64,
    /// One-shot armed failpoint; 0 = none, 1 = `CrashBeforeRename`.
    failpoint: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    /// Propagates failures creating the store directories.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("tmp"))?;
        Ok(Store {
            root,
            counters: Counters::default(),
            tmp_seq: AtomicU64::new(0),
            failpoint: AtomicU64::new(0),
        })
    }

    /// Arms `fp` for the next matching operation on this handle (one-shot).
    ///
    /// Test-only by intent: lets crash-consistency tests simulate a
    /// process dying mid-publish without actually killing anything.
    pub fn inject_failpoint(&self, fp: Failpoint) {
        let code = match fp {
            Failpoint::CrashBeforeRename => 1,
        };
        self.failpoint.store(code, Ordering::SeqCst);
    }

    fn take_failpoint(&self) -> Option<Failpoint> {
        match self.failpoint.swap(0, Ordering::SeqCst) {
            1 => Some(Failpoint::CrashBeforeRename),
            _ => None,
        }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, key: &Digest) -> PathBuf {
        let hex = key.to_hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{}.obj", &hex[2..]))
    }

    // -- raw object layer ---------------------------------------------------

    /// Loads and verifies the payload stored under `key`, or `None` on any
    /// miss (absent, corrupt, wrong kind). Corrupt entries are warned
    /// about and unlinked so the slot regenerates cleanly.
    #[must_use]
    pub fn get_raw(&self, key: &Digest, kind: Kind) -> Option<Vec<u8>> {
        let path = self.object_path(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(_) => return None, // plain miss: nothing stored
        };
        let verified = read_verified(&mut file, key, kind);
        drop(file);
        match verified {
            Ok(payload) => {
                self.count_read(payload.len() as u64);
                Some(payload)
            }
            Err(why) => {
                discard_corrupt(&path, &why);
                None
            }
        }
    }

    /// Atomically publishes `payload` under `key`.
    ///
    /// # Errors
    /// Propagates I/O failures; a failed publish leaves no partial object
    /// behind (at worst a stale file in `tmp/`, removed by `gc`).
    pub fn put_raw(&self, key: &Digest, kind: Kind, payload: &[u8]) -> io::Result<()> {
        let final_path = self.object_path(key);
        if let Some(parent) = final_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp_path = self.root.join("tmp").join(format!(
            "{}-{}-{}.tmp",
            key.to_hex(),
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let checksum = Sha256::digest(payload);
        if self.take_failpoint() == Some(Failpoint::CrashBeforeRename) {
            // Simulate a process killed mid-publish: a full header but a
            // truncated payload sits in tmp/, nothing reaches objects/,
            // and no cleanup runs (the "process" is dead).
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(STORE_MAGIC)?;
            f.write_all(&[kind.code()])?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&checksum.0)?;
            f.write_all(&payload[..payload.len() / 2])?;
            return Err(io::Error::other("failpoint: crashed before rename"));
        }
        let result = (|| -> io::Result<()> {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(STORE_MAGIC)?;
            f.write_all(&[kind.code()])?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&checksum.0)?;
            f.write_all(payload)?;
            f.sync_data()?;
            std::fs::rename(&tmp_path, &final_path)?;
            self.counters
                .bytes_written
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        result
    }

    // -- typed artifact layer -----------------------------------------------

    /// Fetches the trace for (`profile`, `insts`), counting a hit or miss.
    /// See [`Store::load_trace`] for how the object is verified.
    #[must_use]
    pub fn get_trace(&self, profile: &WorkloadProfile, insts: usize) -> Option<Trace> {
        let decoded = self.load_trace(&key::trace_key(profile, insts));
        let counter = if decoded.is_some() {
            &self.counters.trace_hits
        } else {
            &self.counters.trace_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        decoded
    }

    /// Loads the trace stored under `key`, or `None` on any miss, without
    /// counting a hit or miss.
    ///
    /// One pass over the object: the payload streams through a buffered
    /// reader that feeds a running SHA-256 while the trace decoder consumes
    /// it, so no separate payload buffer exists. The decoded trace is
    /// returned only once the whole payload has been hashed and the
    /// checksum matches. Corrupt and undecodable objects are warned about
    /// and unlinked, like [`Store::get_raw`] does.
    #[must_use]
    pub fn load_trace(&self, key: &Digest) -> Option<Trace> {
        let path = self.object_path(key);
        let mut file = std::fs::File::open(&path).ok()?; // plain miss
        let verified = read_trace_verified(&mut file);
        drop(file);
        match verified {
            Ok((payload_len, Ok(trace))) => {
                self.count_read(payload_len);
                Some(trace)
            }
            Ok((payload_len, Err(why))) => {
                self.count_read(payload_len);
                self.discard_undecodable(key, why);
                None
            }
            Err(why) => {
                discard_corrupt(&path, &why);
                None
            }
        }
    }

    /// Publishes the trace for (`profile`, `insts`). Publish failures are
    /// downgraded to warnings: the cache is an accelerator, not a
    /// dependency.
    pub fn put_trace(&self, profile: &WorkloadProfile, insts: usize, trace: &Trace) {
        let k = key::trace_key(profile, insts);
        if let Err(e) = self.put_raw(&k, Kind::Trace, &codec::encode_trace(trace)) {
            eprintln!("btb-store: warning: failed to publish trace {k}: {e}");
        }
    }

    /// Publishes the trace for (`profile`, `insts`) straight off a live
    /// record iterator, never materializing the record vector. The object
    /// header needs the payload length and checksum, which only exist once
    /// the stream is drained, so the publish writes a placeholder header,
    /// streams the chunked payload through a running hash, then seeks back
    /// and patches the header before the atomic rename — readers still
    /// never observe a partial or unverifiable object.
    ///
    /// Returns the number of records written.
    ///
    /// # Errors
    /// Propagates I/O failures; a failed publish leaves no partial object
    /// behind.
    pub fn put_trace_stream(
        &self,
        profile: &WorkloadProfile,
        insts: usize,
        name: &str,
        records: impl Iterator<Item = TraceRecord>,
    ) -> io::Result<u64> {
        let k = key::trace_key(profile, insts);
        let final_path = self.object_path(&k);
        if let Some(parent) = final_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp_path = self.root.join("tmp").join(format!(
            "{}-{}-{}.tmp",
            k.to_hex(),
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> io::Result<u64> {
            let mut file = std::fs::File::create(&tmp_path)?;
            file.write_all(STORE_MAGIC)?;
            file.write_all(&[Kind::Trace.code()])?;
            file.write_all(&[0u8; 8 + 32])?; // placeholder length + checksum
            let mut sink = HashingWriter {
                inner: BufWriter::new(file),
                hasher: Sha256::new(),
                len: 0,
            };
            let mut tw = TraceWriter::new(&mut sink, name)?;
            let mut written = 0u64;
            for rec in records {
                tw.push(&rec)?;
                written += 1;
            }
            tw.finish()?;
            sink.inner.flush()?;
            let mut file = sink
                .inner
                .into_inner()
                .map_err(io::IntoInnerError::into_error)?;
            file.seek(SeekFrom::Start(9))?; // past magic + kind byte
            file.write_all(&sink.len.to_le_bytes())?;
            file.write_all(&sink.hasher.finish().0)?;
            file.sync_data()?;
            std::fs::rename(&tmp_path, &final_path)?;
            self.counters
                .bytes_written
                .fetch_add(sink.len, Ordering::Relaxed);
            Ok(written)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        result
    }

    /// Opens the stored trace for (`profile`, `insts`) as a record stream,
    /// counting a hit or miss. Integrity is established *before* any
    /// record is handed out: a first pass streams the payload through a
    /// running SHA-256 in fixed-size blocks (flat memory at any trace
    /// length) and compares it against the header checksum; corrupt
    /// entries degrade to a miss and are unlinked, exactly like
    /// [`Store::get_raw`]. Only then does the returned [`TraceStream`]
    /// replay records from disk chunk by chunk.
    #[must_use]
    pub fn open_trace_stream(
        &self,
        profile: &WorkloadProfile,
        insts: usize,
    ) -> Option<TraceStream> {
        let k = key::trace_key(profile, insts);
        let path = self.object_path(&k);
        let opened = std::fs::File::open(&path).ok().and_then(|mut file| {
            match verify_streaming(&mut file, Kind::Trace) {
                Ok(()) => {
                    let payload_len = file
                        .metadata()
                        .map_or(0, |m| m.len().saturating_sub(HEADER_LEN as u64));
                    file.seek(SeekFrom::Start(HEADER_LEN as u64)).ok()?;
                    match TraceReader::new(BufReader::new(file)) {
                        Ok(reader) => {
                            self.count_read(payload_len);
                            Some(TraceStream { reader })
                        }
                        Err(_) => {
                            self.discard_undecodable(&k, codec::CodecError("trace stream header"));
                            None
                        }
                    }
                }
                Err(why) => {
                    drop(file);
                    discard_corrupt(&path, &why);
                    None
                }
            }
        });
        let counter = if opened.is_some() {
            &self.counters.trace_hits
        } else {
            &self.counters.trace_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        opened
    }

    /// Fetches the report stored under `report_key`, counting a hit or
    /// miss. Build the key with [`crate::report_key`].
    #[must_use]
    pub fn get_report(&self, report_key: &Digest) -> Option<SimReport> {
        let decoded = self.get_raw(report_key, Kind::Report).and_then(|payload| {
            match codec::decode_report(&payload) {
                Ok(report) => Some(report),
                Err(why) => {
                    self.discard_undecodable(report_key, why);
                    None
                }
            }
        });
        let counter = if decoded.is_some() {
            &self.counters.report_hits
        } else {
            &self.counters.report_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        decoded
    }

    /// Publishes a report under `report_key` (see [`Store::put_trace`] on
    /// failure handling).
    pub fn put_report(&self, report_key: &Digest, report: &SimReport) {
        if let Err(e) = self.put_raw(report_key, Kind::Report, &codec::encode_report(report)) {
            eprintln!("btb-store: warning: failed to publish report {report_key}: {e}");
        }
    }

    /// Convenience: derives the report key for (`trace_key`, `config`,
    /// `pipeline`).
    #[must_use]
    pub fn report_key(trace_key: &Digest, config: &BtbConfig, pipeline: &PipelineConfig) -> Digest {
        key::report_key(trace_key, config, pipeline)
    }

    /// Counts `len` verified payload bytes read.
    fn count_read(&self, len: u64) {
        self.counters.bytes_read.fetch_add(len, Ordering::Relaxed);
    }

    fn discard_undecodable(&self, key: &Digest, why: codec::CodecError) {
        let path = self.object_path(key);
        eprintln!(
            "btb-store: warning: discarding undecodable entry {} ({why}); will regenerate",
            path.display()
        );
        let _ = std::fs::remove_file(path);
    }

    // -- counters -----------------------------------------------------------

    /// Reads the hit/miss counters without resetting them. Long-running
    /// consumers (the `btb-serve` `/store/stats` endpoint) want a
    /// monotonic view; [`Store::take_counters`] would zero the very
    /// numbers each poll is supposed to report.
    #[must_use]
    pub fn peek_counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            trace_hits: self.counters.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.counters.trace_misses.load(Ordering::Relaxed),
            report_hits: self.counters.report_hits.load(Ordering::Relaxed),
            report_misses: self.counters.report_misses.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Reads and resets the hit/miss counters (used for per-experiment
    /// reporting).
    pub fn take_counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            trace_hits: self.counters.trace_hits.swap(0, Ordering::Relaxed),
            trace_misses: self.counters.trace_misses.swap(0, Ordering::Relaxed),
            report_hits: self.counters.report_hits.swap(0, Ordering::Relaxed),
            report_misses: self.counters.report_misses.swap(0, Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.swap(0, Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.swap(0, Ordering::Relaxed),
        }
    }

    // -- maintenance --------------------------------------------------------

    /// Walks the store and reports object counts and sizes by kind.
    ///
    /// # Errors
    /// Propagates directory-walk failures (individual unreadable objects
    /// are counted, not fatal).
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        self.walk_objects(|path, len| {
            match read_kind(path) {
                Some(Kind::Trace) => {
                    stats.trace_objects += 1;
                    stats.trace_bytes += len;
                }
                Some(Kind::Report) => {
                    stats.report_objects += 1;
                    stats.report_bytes += len;
                }
                None => stats.unreadable_objects += 1,
            }
            Ok(())
        })?;
        Ok(stats)
    }

    /// Removes objects last modified more than `max_age` ago, plus any
    /// stale staging files. `max_age` of zero clears the store.
    ///
    /// # Errors
    /// Propagates directory-walk failures.
    pub fn gc(&self, max_age: std::time::Duration) -> io::Result<GcOutcome> {
        let now = std::time::SystemTime::now();
        let mut outcome = GcOutcome::default();
        self.walk_objects(|path, len| {
            let expired = std::fs::metadata(path)
                .and_then(|m| m.modified())
                .map(|mtime| now.duration_since(mtime).is_ok_and(|age| age >= max_age))
                .unwrap_or(true);
            if expired && std::fs::remove_file(path).is_ok() {
                outcome.removed_objects += 1;
                outcome.removed_bytes += len;
            } else {
                outcome.kept_objects += 1;
            }
            Ok(())
        })?;
        // Staging files are never legitimately old: any process writes and
        // renames within milliseconds.
        if let Ok(entries) = std::fs::read_dir(self.root.join("tmp")) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(outcome)
    }

    fn walk_objects(&self, mut visit: impl FnMut(&Path, u64) -> io::Result<()>) -> io::Result<()> {
        let objects = self.root.join("objects");
        for shard in std::fs::read_dir(&objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_file() {
                    visit(&entry.path(), meta.len())?;
                }
            }
        }
        Ok(())
    }
}

/// [`Write`] adapter that feeds everything written through a running
/// SHA-256 and byte count, so a streamed payload's header fields are known
/// at the end without buffering the payload.
struct HashingWriter<W: Write> {
    inner: W,
    hasher: Sha256,
    len: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A verified stored trace, replayed record-by-record from disk.
///
/// Produced by [`Store::open_trace_stream`], which has already checked the
/// object checksum, so iterator errors indicate a file that changed
/// underneath us mid-read — callers should treat them as fatal rather than
/// as cache misses.
#[derive(Debug)]
pub struct TraceStream {
    reader: TraceReader<BufReader<std::fs::File>>,
}

impl TraceStream {
    /// The trace name recorded in the stream.
    #[must_use]
    pub fn name(&self) -> &str {
        self.reader.name()
    }

    /// Skips up to `n` records by seeking over whole chunks (see
    /// [`TraceReader::skip_records`]), leaving the stream where `n` calls
    /// of `next()` would. Returns the number skipped, less than `n` only
    /// when the trace ends first.
    ///
    /// # Errors
    /// Like the iterator's: the verified object changed underneath us.
    pub fn skip_records(&mut self, n: u64) -> Result<u64, ReadTraceError> {
        self.reader.skip_records(n)
    }
}

impl Iterator for TraceStream {
    type Item = Result<TraceRecord, ReadTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next()
    }
}

/// Reads an object header and checks its magic and kind, returning the
/// payload length and checksum it declares.
fn parse_header(file: &mut std::fs::File, kind: Kind) -> Result<(u64, Digest), String> {
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|e| format!("short header: {e}"))?;
    if &header[..8] != STORE_MAGIC {
        return Err("bad magic".to_owned());
    }
    if Kind::from_code(header[8]) != Some(kind) {
        return Err(format!(
            "kind byte {} != expected {}",
            header[8],
            kind.code()
        ));
    }
    let payload_len = u64::from_le_bytes(header[9..17].try_into().expect("8B"));
    Ok((payload_len, Digest(header[17..49].try_into().expect("32B"))))
}

/// Streaming variant of [`read_verified`]: checks header and payload
/// checksum by hashing fixed-size blocks, never holding the payload in
/// memory. Leaves the file position unspecified.
fn verify_streaming(file: &mut std::fs::File, kind: Kind) -> Result<(), String> {
    let (payload_len, stored_checksum) = parse_header(file, kind)?;
    let mut hasher = Sha256::new();
    let mut remaining = payload_len;
    let mut block = [0u8; 64 * 1024];
    while remaining > 0 {
        let want = block.len().min(remaining as usize);
        file.read_exact(&mut block[..want])
            .map_err(|e| format!("payload read: {e}"))?;
        hasher.update(&block[..want]);
        remaining -= want as u64;
    }
    check_tail(file, payload_len, hasher, &stored_checksum)
}

/// The end-of-payload checks of the streaming reads: nothing may follow
/// the payload the header declares, and the payload must hash to the
/// header checksum.
fn check_tail(
    file: &mut std::fs::File,
    payload_len: u64,
    hasher: Sha256,
    stored_checksum: &Digest,
) -> Result<(), String> {
    let mut trailing = [0u8; 1];
    if file.read(&mut trailing).map_err(|e| e.to_string())? != 0 {
        return Err(format!("payload longer than header {payload_len}"));
    }
    let actual = hasher.finish();
    if actual != *stored_checksum {
        return Err(format!(
            "checksum mismatch: stored {stored_checksum}, computed {actual}"
        ));
    }
    Ok(())
}

/// [`Read`] adapter that feeds every byte it hands out through a running
/// SHA-256 and byte count: the read-side twin of [`HashingWriter`].
struct HashingReader<R: Read> {
    inner: R,
    hasher: Sha256,
    len: u64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }
}

/// Decodes a trace object while hashing its payload, in one pass.
///
/// The outer `Err` is corruption (bad header, implausible or mismatched
/// length, checksum mismatch); the inner `Err` is a payload whose checksum
/// holds but which does not decode as a trace. A decode failure does not
/// stop the pass: the rest of the payload is still hashed, so a corrupt
/// object is always reported as corrupt. On success returns the verified
/// payload length with the decode result.
fn read_trace_verified(
    file: &mut std::fs::File,
) -> Result<(u64, Result<Trace, codec::CodecError>), String> {
    let (payload_len, stored_checksum) = parse_header(file, Kind::Trace)?;
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(format!("implausible payload length {payload_len}"));
    }
    let mut src = HashingReader {
        inner: BufReader::with_capacity(64 * 1024, (&mut *file).take(payload_len)),
        hasher: Sha256::new(),
        len: 0,
    };
    let mut decoded = read_trace(&mut src).map_err(|_| codec::CodecError("trace stream"));
    let trailing = io::copy(&mut src, &mut io::sink()).map_err(|e| format!("payload read: {e}"))?;
    if trailing > 0 && decoded.is_ok() {
        decoded = Err(codec::CodecError("trailing bytes after trace"));
    }
    let HashingReader { hasher, len, .. } = src;
    if len != payload_len {
        return Err(format!("payload length {len} != header {payload_len}"));
    }
    check_tail(file, payload_len, hasher, &stored_checksum)?;
    Ok((payload_len, decoded))
}

/// Warns about and unlinks an object whose header, length or checksum
/// failed verification, so the slot regenerates cleanly.
fn discard_corrupt(path: &Path, why: &str) {
    eprintln!(
        "btb-store: warning: discarding corrupt entry {} ({why}); will regenerate",
        path.display()
    );
    let _ = std::fs::remove_file(path);
}

/// Reads the kind byte from an object header, `None` if unreadable or not
/// a store object.
fn read_kind(path: &Path) -> Option<Kind> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut header = [0u8; 9];
    file.read_exact(&mut header).ok()?;
    if &header[..8] != STORE_MAGIC {
        return None;
    }
    Kind::from_code(header[8])
}

fn read_verified(file: &mut std::fs::File, key: &Digest, kind: Kind) -> Result<Vec<u8>, String> {
    let (payload_len, stored_checksum) = parse_header(file, kind)?;
    // An absurd length means a corrupt header; don't try to allocate it.
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(format!("implausible payload length {payload_len}"));
    }
    let mut payload = Vec::with_capacity(payload_len as usize);
    file.take(payload_len + 1)
        .read_to_end(&mut payload)
        .map_err(|e| format!("payload read: {e}"))?;
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "payload length {} != header {payload_len} for key {key}",
            payload.len()
        ));
    }
    let actual = Sha256::digest(&payload);
    if actual != stored_checksum {
        return Err(format!(
            "checksum mismatch: stored {stored_checksum}, computed {actual}"
        ));
    }
    Ok(payload)
}
