//! Compact binary serialization for traces.
//!
//! The format is a chunked little-endian stream: magic, version and name,
//! then a sequence of record chunks (`u32` record count followed by that
//! many fixed-width records), closed by a zero-count terminator chunk.
//! Because no total count appears up front, a [`TraceWriter`] can encode
//! straight off a live record iterator, and a [`TraceReader`] replays a
//! stored trace record-by-record — neither side ever materializes the
//! trace, so encoding and replay run in O(chunk) memory at any trace
//! length. The reader pulls each chunk with one `read_exact` into a reused
//! buffer and decodes from there. A chunk header claiming more than the
//! 4096 records every writer flushes at is rejected before anything is
//! buffered, so a hostile count cannot drive the allocation. Over a
//! seekable source, [`TraceReader::skip_records`] seeks past whole chunks
//! by their count headers without decoding them. [`write_trace`] and
//! [`read_trace`] are the whole-trace conveniences built on top.

use crate::exec::Trace;
use crate::record::{BranchKind, Op, TraceRecord};
use std::io::{self, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 8] = b"BTBTRACE";

/// Binary trace stream format version. Bump on any layout change; cache
/// keys derived from traces (see `btb-store`) incorporate this constant so
/// a format bump invalidates stored traces automatically.
///
/// v2: chunked record stream (no up-front total count), enabling
/// streaming encode/replay.
pub const TRACE_FORMAT_VERSION: u32 = 2;
const VERSION: u32 = TRACE_FORMAT_VERSION;

/// Serialized size of one record.
const RECORD_BYTES: usize = 31;

/// Records per chunk (~127 KiB of buffered encode per chunk). Writers
/// flush at exactly this many records, and readers reject a chunk header
/// that claims more.
const CHUNK_RECORDS: usize = 4096;

/// Errors produced while reading a trace stream.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A record field held an invalid encoding.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error: {e}"),
            ReadTraceError::BadMagic => write!(f, "not a btb trace stream"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::Corrupt(what) => write!(f, "corrupt trace field: {what}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

fn op_code(op: Op) -> u8 {
    match op {
        Op::Alu => 0,
        Op::Mul => 1,
        Op::Div => 2,
        Op::Fp => 3,
        Op::Load => 4,
        Op::Store => 5,
        Op::Branch(BranchKind::CondDirect) => 6,
        Op::Branch(BranchKind::UncondDirect) => 7,
        Op::Branch(BranchKind::DirectCall) => 8,
        Op::Branch(BranchKind::IndirectJump) => 9,
        Op::Branch(BranchKind::IndirectCall) => 10,
        Op::Branch(BranchKind::Return) => 11,
    }
}

fn op_from_code(code: u8) -> Option<Op> {
    Some(match code {
        0 => Op::Alu,
        1 => Op::Mul,
        2 => Op::Div,
        3 => Op::Fp,
        4 => Op::Load,
        5 => Op::Store,
        6 => Op::Branch(BranchKind::CondDirect),
        7 => Op::Branch(BranchKind::UncondDirect),
        8 => Op::Branch(BranchKind::DirectCall),
        9 => Op::Branch(BranchKind::IndirectJump),
        10 => Op::Branch(BranchKind::IndirectCall),
        11 => Op::Branch(BranchKind::Return),
        _ => return None,
    })
}

fn encode_record(r: &TraceRecord) -> [u8; RECORD_BYTES] {
    let mut buf = [0u8; RECORD_BYTES];
    buf[0..8].copy_from_slice(&r.pc.to_le_bytes());
    buf[8..16].copy_from_slice(&r.target.to_le_bytes());
    buf[16..24].copy_from_slice(&r.mem_addr.to_le_bytes());
    buf[24] = op_code(r.op);
    buf[25] = u8::from(r.taken);
    buf[26..29].copy_from_slice(&r.srcs);
    buf[29..31].copy_from_slice(&r.dsts);
    buf
}

fn decode_record(buf: &[u8; RECORD_BYTES]) -> Result<TraceRecord, ReadTraceError> {
    let pc = u64::from_le_bytes(buf[0..8].try_into().expect("slice len"));
    let target = u64::from_le_bytes(buf[8..16].try_into().expect("slice len"));
    let mem_addr = u64::from_le_bytes(buf[16..24].try_into().expect("slice len"));
    let op = op_from_code(buf[24]).ok_or(ReadTraceError::Corrupt("op"))?;
    let taken = match buf[25] {
        0 => false,
        1 => true,
        _ => return Err(ReadTraceError::Corrupt("taken")),
    };
    Ok(TraceRecord {
        pc,
        op,
        taken,
        target,
        mem_addr,
        srcs: [buf[26], buf[27], buf[28]],
        dsts: [buf[29], buf[30]],
    })
}

/// Incremental trace encoder: writes the stream header up front, then
/// encodes records into fixed-size chunks as they arrive. Feeding it from
/// a live `TraceExecutor` serializes a trace of any length in O(chunk)
/// memory. Call [`TraceWriter::finish`] to emit the terminator chunk; a
/// dropped-without-finish writer leaves a stream that readers reject as
/// truncated (I/O error), never one that silently parses short.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    /// Encoded records of the chunk being filled.
    buf: Vec<u8>,
    /// Records in `buf`.
    pending: u32,
    /// Total records written (pending included).
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the stream header for a trace named `name`.
    ///
    /// # Errors
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W, name: &str) -> io::Result<Self> {
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&(name.len() as u32).to_le_bytes())?;
        sink.write_all(name.as_bytes())?;
        Ok(TraceWriter {
            sink,
            buf: Vec::with_capacity(CHUNK_RECORDS * RECORD_BYTES),
            pending: 0,
            written: 0,
        })
    }

    /// Appends one record, flushing a chunk when full.
    ///
    /// # Errors
    /// Propagates I/O errors from the sink.
    pub fn push(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.buf.extend_from_slice(&encode_record(rec));
        self.pending += 1;
        self.written += 1;
        if self.pending as usize == CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Total records pushed so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.pending.to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the terminator and returns
    /// the sink.
    ///
    /// # Errors
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<W> {
        if self.pending > 0 {
            self.flush_chunk()?;
        }
        self.sink.write_all(&0u32.to_le_bytes())?;
        Ok(self.sink)
    }
}

/// Streaming trace decoder: validates the header eagerly, then yields
/// records one chunk at a time. Each chunk body is read with a single
/// `read_exact` into a buffer reused across chunks. The iterator produces
/// `Result<TraceRecord, ReadTraceError>`; after the first error it fuses
/// to `None`.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    name: String,
    /// Encoded records of the current chunk.
    chunk: Vec<u8>,
    /// Byte offset in `chunk` of the next record to hand out.
    pos: usize,
    /// Terminator seen (clean end of stream) or an error already yielded.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the stream header.
    ///
    /// # Errors
    /// Returns [`ReadTraceError`] on I/O failure or a malformed header.
    pub fn new(mut source: R) -> Result<Self, ReadTraceError> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ReadTraceError::BadMagic);
        }
        let mut u32buf = [0u8; 4];
        source.read_exact(&mut u32buf)?;
        let version = u32::from_le_bytes(u32buf);
        if version != VERSION {
            return Err(ReadTraceError::BadVersion(version));
        }
        source.read_exact(&mut u32buf)?;
        let name_len = u32::from_le_bytes(u32buf) as usize;
        if name_len > 1 << 16 {
            return Err(ReadTraceError::Corrupt("name length"));
        }
        let mut name_bytes = vec![0u8; name_len];
        source.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes).map_err(|_| ReadTraceError::Corrupt("name"))?;
        Ok(TraceReader {
            source,
            name,
            chunk: Vec::new(),
            pos: 0,
            done: false,
        })
    }

    /// The trace name from the stream header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads the next chunk header: its record count, 0 at the terminator.
    fn read_count(&mut self) -> Result<u32, ReadTraceError> {
        let mut u32buf = [0u8; 4];
        self.source.read_exact(&mut u32buf)?;
        let count = u32::from_le_bytes(u32buf);
        if count as usize > CHUNK_RECORDS {
            return Err(ReadTraceError::Corrupt("chunk count"));
        }
        Ok(count)
    }

    /// Reads the body of a `count`-record chunk into the buffer.
    fn fill_chunk(&mut self, count: u32) -> Result<(), ReadTraceError> {
        self.chunk.resize(count as usize * RECORD_BYTES, 0);
        self.pos = 0;
        self.source.read_exact(&mut self.chunk)?;
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, ReadTraceError> {
        if self.pos == self.chunk.len() {
            let count = self.read_count()?;
            if count == 0 {
                return Ok(None);
            }
            self.fill_chunk(count)?;
        }
        let end = self.pos + RECORD_BYTES;
        let rec = decode_record(self.chunk[self.pos..end].try_into().expect("record len"));
        self.pos = end;
        rec.map(Some)
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Skips up to `n` records, leaving the reader exactly where `n` calls
    /// of `next()` would. Whole chunks are sought over using their count
    /// headers, so skipped records are neither read nor decoded (nor
    /// validated: use this on streams whose integrity is already
    /// established). Returns the number of records skipped, which is less
    /// than `n` only when the stream ends first.
    ///
    /// # Errors
    /// Returns [`ReadTraceError`] on I/O failure or a corrupt chunk header;
    /// the reader then fuses like the iterator does.
    pub fn skip_records(&mut self, n: u64) -> Result<u64, ReadTraceError> {
        if self.done {
            return Ok(0);
        }
        let result = self.skip_inner(n);
        if result.is_err() {
            self.done = true;
        }
        result
    }

    fn skip_inner(&mut self, n: u64) -> Result<u64, ReadTraceError> {
        let buffered = ((self.chunk.len() - self.pos) / RECORD_BYTES) as u64;
        let mut skipped = buffered.min(n);
        self.pos += skipped as usize * RECORD_BYTES;
        while skipped < n {
            let count = self.read_count()?;
            if count == 0 {
                self.done = true;
                break;
            }
            let left = n - skipped;
            if u64::from(count) <= left {
                let body = i64::from(count) * RECORD_BYTES as i64;
                self.source.seek(SeekFrom::Current(body))?;
                self.chunk.clear();
                self.pos = 0;
                skipped += u64::from(count);
            } else {
                self.fill_chunk(count)?;
                self.pos = left as usize * RECORD_BYTES;
                skipped = n;
            }
        }
        Ok(skipped)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, ReadTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Writes a trace to any [`Write`] sink (pass `&mut writer` to keep the
/// writer).
///
/// # Errors
/// Propagates I/O errors from the sink.
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> io::Result<()> {
    let mut tw = TraceWriter::new(w, &trace.name)?;
    for r in &trace.records {
        tw.push(r)?;
    }
    tw.finish().map(|_| ())
}

/// Reads a trace from any [`Read`] source (pass `&mut reader` to keep the
/// reader).
///
/// # Errors
/// Returns [`ReadTraceError`] on I/O failure or malformed input.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, ReadTraceError> {
    let mut reader = TraceReader::new(r)?;
    let mut records = Vec::new();
    for rec in &mut reader {
        records.push(rec?);
    }
    Ok(Trace {
        name: reader.name.into(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    #[test]
    fn roundtrip_preserves_trace() {
        let t = Trace::generate(&WorkloadProfile::tiny(6), 10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write to vec");
        let back = read_trace(buf.as_slice()).expect("read back");
        assert_eq!(back, t);
    }

    #[test]
    fn all_op_codes_roundtrip() {
        for code in 0u8..=11 {
            let op = op_from_code(code).expect("valid code");
            assert_eq!(op_code(op), code);
        }
        assert!(op_from_code(12).is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOTATRCE........."[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
        assert!(err.to_string().contains("not a btb trace"));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let t = Trace::generate(&WorkloadProfile::tiny(6), 100);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        buf.truncate(buf.len() - 5);
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
    }

    #[test]
    fn bad_version_is_reported() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadVersion(99)));
    }

    #[test]
    fn multi_chunk_trace_streams_record_by_record() {
        // Longer than one chunk so both the full-chunk flush and the
        // partial final chunk are exercised.
        let n = CHUNK_RECORDS * 2 + 137;
        let profile = WorkloadProfile::tiny(9);
        let t = Trace::generate(&profile, n);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &t.name).expect("header");
        for r in &t.records {
            w.push(r).expect("push");
        }
        assert_eq!(w.written(), n as u64);
        w.finish().expect("finish");

        let mut reader = TraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(reader.name(), &*t.name);
        let mut count = 0usize;
        for (got, want) in (&mut reader).zip(&t.records) {
            assert_eq!(got.expect("record"), *want);
            count += 1;
        }
        assert_eq!(count, n);
        assert!(reader.next().is_none(), "reader fuses after terminator");
    }

    #[test]
    fn missing_terminator_reads_as_truncation() {
        let t = Trace::generate(&WorkloadProfile::tiny(6), 50);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        buf.truncate(buf.len() - 4); // drop the zero-count terminator
        let reader = TraceReader::new(buf.as_slice()).expect("header");
        let last = reader.last().expect("at least one item");
        assert!(matches!(last, Err(ReadTraceError::Io(_))));
    }

    #[test]
    fn oversized_chunk_count_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf, "hostile").expect("header");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = TraceReader::new(buf.as_slice()).expect("header");
        let err = reader.next().expect("one item").unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Corrupt("chunk count")),
            "{err}"
        );
        assert!(reader.chunk.capacity() < RECORD_BYTES, "nothing buffered");
        assert!(reader.next().is_none(), "reader fuses after the error");

        // One record over the writers' flush size is just as corrupt.
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf, "hostile").expect("header");
        buf.extend_from_slice(&(CHUNK_RECORDS as u32 + 1).to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("chunk count")));
    }

    #[test]
    fn skip_records_matches_repeated_next() {
        let n = CHUNK_RECORDS * 2 + 137;
        let t = Trace::generate(&WorkloadProfile::tiny(9), n);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).expect("write");
        let c = CHUNK_RECORDS;
        let positions = [
            0,
            1,
            c - 1,
            c,
            c + 1,
            c + c / 2,
            2 * c - 1,
            2 * c,
            2 * c + 1,
            n - 1,
            n,
            n + 1,
            n + 5000,
        ];
        for first in [0usize, 3, c - 1, c] {
            for &skip in &positions {
                let mut stepped = TraceReader::new(io::Cursor::new(&buf)).expect("header");
                let mut sought = TraceReader::new(io::Cursor::new(&buf)).expect("header");
                for _ in 0..first {
                    stepped.next();
                    sought.next();
                }
                let mut stepped_over = 0u64;
                for _ in 0..skip {
                    if stepped.next().is_some() {
                        stepped_over += 1;
                    }
                }
                let got = sought.skip_records(skip as u64).expect("skip");
                assert_eq!(got, stepped_over, "skip {skip} after {first}");
                assert_eq!(got as usize, skip.min(n.saturating_sub(first)));
                let rest_stepped: Vec<_> = stepped.map(|r| r.expect("record")).collect();
                let rest_sought: Vec<_> = sought.map(|r| r.expect("record")).collect();
                assert_eq!(rest_sought, rest_stepped, "skip {skip} after {first}");
            }
        }
    }

    #[test]
    fn skip_records_reports_a_corrupt_chunk_header() {
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf, "hostile").expect("header");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = TraceReader::new(io::Cursor::new(buf)).expect("header");
        let err = reader.skip_records(10).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("chunk count")));
        assert!(reader.next().is_none(), "reader fuses after the error");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        let w = TraceWriter::new(&mut buf, "empty").expect("header");
        w.finish().expect("finish");
        let mut reader = TraceReader::new(buf.as_slice()).expect("header");
        assert_eq!(reader.name(), "empty");
        assert!(reader.next().is_none());
    }
}
