//! Streaming store writer: buffers rows, encodes a column chunk per
//! [`StoreConfig::chunk_rows`] logical rows, and finishes a segment
//! with footer + tail. Redundancy suppression (when enabled) elides a
//! sample whose `(core, ip, r13, event)` equal the immediately
//! preceding stream sample and whose TSC advanced by at most the
//! declared tolerance — every elision lands in the chunk's ledger, so
//! the reader replays bit-exact rows.

use std::borrow::Cow;
use std::io::Write;
use std::sync::{Arc, Mutex};

use fluctrace_cpu::{MarkKind, MarkRecord, PebsRecord, TraceBundle};
use fluctrace_obs as obs;

use crate::codec::{encode_column_into, write_varint};
use crate::error::StoreError;
use crate::format::{
    ChunkDesc, Footer, MAGIC, MAX_CHUNK_ROWS, STREAM_MARKS, STREAM_SAMPLES, TAIL_MAGIC, VERSION,
};

/// Default logical rows per chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 16_384;

/// Environment knob overriding [`StoreConfig::chunk_rows`]. Changing it
/// re-chunks the file but never changes the decoded rows (pinned by the
/// metamorphic suite).
pub const CHUNK_ENV: &str = "FLUCTRACE_STORE_CHUNK";

/// Writer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Enable redundancy suppression.
    pub suppress: bool,
    /// Max TSC advance an elided sample may sit from its predecessor.
    pub tolerance: u64,
    /// Logical rows per chunk (clamped to `1..=MAX_CHUNK_ROWS`).
    pub chunk_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            suppress: false,
            tolerance: 0,
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }
}

impl StoreConfig {
    /// Suppressing configuration with the given TSC tolerance.
    pub fn suppressed(tolerance: u64) -> Self {
        StoreConfig {
            suppress: true,
            tolerance,
            ..StoreConfig::default()
        }
    }

    /// Default configuration with [`CHUNK_ENV`] applied.
    pub fn from_env() -> Self {
        let mut cfg = StoreConfig::default();
        if let Some(rows) = std::env::var(CHUNK_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.chunk_rows = rows;
        }
        cfg
    }

    fn effective_chunk_rows(&self) -> usize {
        self.chunk_rows.clamp(1, MAX_CHUNK_ROWS as usize)
    }
}

/// What one finished segment (or a whole writer lifetime) wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Logical sample rows appended.
    pub samples: u64,
    /// Mark rows appended.
    pub marks: u64,
    /// Sample rows elided by suppression (still represented in ledgers).
    pub elided: u64,
    /// Column chunks written (both streams).
    pub chunks: u64,
    /// Total bytes written, including magic/footer/tail.
    pub bytes: u64,
}

/// Streaming columnar writer over any [`Write`] sink.
///
/// [`TraceWriter::finish`] closes the segment and hands the sink back;
/// constructing a new writer over the returned sink appends another
/// segment — the concatenation is itself a valid store.
pub struct TraceWriter<W: Write> {
    out: W,
    config: StoreConfig,
    /// Bytes written so far in this segment (MAGIC included).
    pos: u64,
    sample_buf: Vec<PebsRecord>,
    mark_buf: Vec<MarkRecord>,
    chunks: Vec<ChunkDesc>,
    stats: WriteStats,
    /// Suppressed mode: the current chunk's retained rows and ledger.
    retained: Vec<PebsRecord>,
    ledger: Vec<LedgerGroup>,
    chunk: ChunkBuf,
}

/// Buffers one chunk is encoded through, kept across chunks.
#[derive(Default)]
struct ChunkBuf {
    /// One column's values.
    column: Vec<u64>,
    /// The dictionary's sorted copy of the column.
    sorted: Vec<u64>,
    /// The chunk's encoded bytes.
    bytes: Vec<u8>,
}

impl ChunkBuf {
    /// Append the encoding of one column, `field` of every row.
    fn put<T>(&mut self, rows: &[T], field: impl Fn(&T) -> u64) {
        self.column.clear();
        self.column.extend(rows.iter().map(field));
        encode_column_into(&self.column, &mut self.sorted, &mut self.bytes);
    }
}

impl<W: Write> TraceWriter<W> {
    /// Open a segment on `out` (writes the head magic immediately).
    pub fn new(mut out: W, config: StoreConfig) -> Result<Self, StoreError> {
        out.write_all(MAGIC)?;
        Ok(TraceWriter {
            out,
            config,
            pos: MAGIC.len() as u64,
            sample_buf: Vec::new(),
            mark_buf: Vec::new(),
            chunks: Vec::new(),
            stats: WriteStats::default(),
            retained: Vec::new(),
            ledger: Vec::new(),
            chunk: ChunkBuf::default(),
        })
    }

    /// Running totals (bytes is filled in at [`TraceWriter::finish`]).
    pub fn stats(&self) -> WriteStats {
        self.stats
    }

    /// Append one PEBS sample.
    pub fn push_sample(&mut self, r: PebsRecord) -> Result<(), StoreError> {
        self.sample_buf.push(r);
        self.stats.samples += 1;
        if self.sample_buf.len() >= self.config.effective_chunk_rows() {
            self.flush_samples()?;
        }
        Ok(())
    }

    /// Append one mark.
    pub fn push_mark(&mut self, r: MarkRecord) -> Result<(), StoreError> {
        self.mark_buf.push(r);
        self.stats.marks += 1;
        if self.mark_buf.len() >= self.config.effective_chunk_rows() {
            self.flush_marks()?;
        }
        Ok(())
    }

    /// Append a whole bundle (samples, then marks, stream order kept).
    pub fn append(&mut self, bundle: &TraceBundle) -> Result<(), StoreError> {
        for &s in &bundle.samples {
            self.push_sample(s)?;
        }
        for &m in &bundle.marks {
            self.push_mark(m)?;
        }
        Ok(())
    }

    /// Write the encoded chunk in `self.chunk.bytes` and record it.
    fn write_chunk(
        &mut self,
        stream: u64,
        rows: u64,
        retained: u64,
        tsc: (u64, u64),
    ) -> Result<(), StoreError> {
        let bytes = &self.chunk.bytes;
        self.out.write_all(bytes)?;
        self.chunks.push(ChunkDesc {
            stream,
            offset: self.pos,
            byte_len: bytes.len() as u64,
            rows,
            retained,
            tsc_min: tsc.0,
            tsc_max: tsc.1,
        });
        self.pos += bytes.len() as u64;
        self.stats.chunks += 1;
        Ok(())
    }

    fn flush_samples(&mut self) -> Result<(), StoreError> {
        if self.sample_buf.is_empty() {
            return Ok(());
        }
        let rows = &self.sample_buf;
        let tsc = tsc_bounds(rows.iter().map(|r| r.tsc));
        let retained: &[PebsRecord] = if self.config.suppress {
            split_into(
                rows,
                self.config.tolerance,
                &mut self.retained,
                &mut self.ledger,
            );
            &self.retained
        } else {
            rows
        };
        let chunk = &mut self.chunk;
        chunk.bytes.clear();
        chunk.put(retained, |r| r.tsc);
        chunk.put(retained, |r| r.ip.0);
        chunk.put(retained, |r| u64::from(r.core.0));
        chunk.put(retained, |r| r.r13);
        chunk.put(retained, |r| r.event.index() as u64);
        encode_ledger(&mut chunk.bytes, &self.ledger);
        let (n, kept) = (rows.len() as u64, retained.len() as u64);
        self.sample_buf.clear();
        self.stats.elided += n - kept;
        self.write_chunk(STREAM_SAMPLES, n, kept, tsc)
    }

    fn flush_marks(&mut self) -> Result<(), StoreError> {
        if self.mark_buf.is_empty() {
            return Ok(());
        }
        let rows = &self.mark_buf;
        let tsc = tsc_bounds(rows.iter().map(|r| r.tsc));
        let chunk = &mut self.chunk;
        chunk.bytes.clear();
        chunk.put(rows, |r| r.tsc);
        chunk.put(rows, |r| u64::from(r.core.0));
        chunk.put(rows, |r| r.item.0);
        chunk.put(rows, |r| match r.kind {
            MarkKind::Start => 0,
            MarkKind::End => 1,
        });
        let n = rows.len() as u64;
        self.mark_buf.clear();
        self.write_chunk(STREAM_MARKS, n, n, tsc)
    }

    /// Close the segment: flush buffered rows, write footer + tail, and
    /// return the sink together with this segment's totals.
    pub fn finish(mut self) -> Result<(W, WriteStats), StoreError> {
        self.flush_samples()?;
        self.flush_marks()?;
        let footer = Footer {
            version: VERSION,
            suppress: u64::from(self.config.suppress),
            tolerance: self.config.tolerance,
            chunk_rows: self.config.effective_chunk_rows() as u64,
            body_len: self.pos,
            chunks: std::mem::take(&mut self.chunks),
        };
        let footer_bytes = footer.encode();
        self.out.write_all(&footer_bytes)?;
        self.out
            .write_all(&(footer_bytes.len() as u64).to_le_bytes())?;
        self.out.write_all(TAIL_MAGIC)?;
        self.out.flush()?;
        self.stats.bytes = self.pos + footer_bytes.len() as u64 + 16;
        if obs::recording() {
            obs::counter!("store.writer.segments").inc();
            obs::counter!("store.writer.samples").add(self.stats.samples);
            obs::counter!("store.writer.marks").add(self.stats.marks);
            obs::counter!("store.writer.elided").add(self.stats.elided);
            obs::counter!("store.writer.chunks").add(self.stats.chunks);
            obs::counter!("store.writer.bytes").add(self.stats.bytes);
        }
        Ok((self.out, self.stats))
    }
}

/// Min/max over an iterator of TSCs; `(0, 0)` when empty.
fn tsc_bounds(tscs: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut any = false;
    for t in tscs {
        min = min.min(t);
        max = max.max(t);
        any = true;
    }
    if any {
        (min, max)
    } else {
        (0, 0)
    }
}

/// One suppression ledger entry: the samples elided immediately after
/// retained row `index`, as successive wrapping TSC deltas (each within
/// the declared tolerance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerGroup {
    /// Retained-row index (within the chunk) the elided rows follow.
    pub index: u64,
    /// Successive `tsc.wrapping_sub(predecessor.tsc)` values, one per
    /// elided row, in stream order.
    pub deltas: Vec<u64>,
}

/// Split a chunk's logical rows into retained rows and the elision
/// ledger. `tolerance == None` disables suppression: every row is
/// retained and borrowed, not copied. The predecessor is always the
/// immediately preceding *stream* row — elided or not — so chained
/// elisions replay exactly.
pub fn split_suppressed(
    rows: &[PebsRecord],
    tolerance: Option<u64>,
) -> (Cow<'_, [PebsRecord]>, Vec<LedgerGroup>) {
    let Some(tolerance) = tolerance else {
        return (Cow::Borrowed(rows), Vec::new());
    };
    let mut retained = Vec::with_capacity(rows.len());
    let mut ledger = Vec::new();
    split_into(rows, tolerance, &mut retained, &mut ledger);
    (Cow::Owned(retained), ledger)
}

/// [`split_suppressed`] with suppression on, refilling `retained` and
/// `ledger`.
fn split_into(
    rows: &[PebsRecord],
    tolerance: u64,
    retained: &mut Vec<PebsRecord>,
    ledger: &mut Vec<LedgerGroup>,
) {
    retained.clear();
    ledger.clear();
    let mut prev: Option<PebsRecord> = None;
    for &r in rows {
        let elide = prev.is_some_and(|p| {
            p.core == r.core
                && p.ip == r.ip
                && p.r13 == r.r13
                && p.event == r.event
                && r.tsc.wrapping_sub(p.tsc) <= tolerance
        });
        if elide {
            // Non-empty: an elision always follows a retained row (the
            // first row of a chunk has no predecessor).
            let index = retained.len().saturating_sub(1) as u64;
            let delta = prev.map_or(0, |p| r.tsc.wrapping_sub(p.tsc));
            match ledger.last_mut() {
                Some(g) if g.index == index => g.deltas.push(delta),
                _ => ledger.push(LedgerGroup {
                    index,
                    // lint:allow(hot-path-alloc): a ledger group owns its deltas; one per elision site, only when suppression is on
                    deltas: vec![delta],
                }),
            }
        } else {
            retained.push(r);
        }
        prev = Some(r);
    }
}

/// Serialize the ledger: group count, then per group the gap from the
/// previous group's retained index (absolute for the first), the elided
/// count, and the successive TSC deltas.
fn encode_ledger(out: &mut Vec<u8>, ledger: &[LedgerGroup]) {
    write_varint(out, ledger.len() as u64);
    let mut prev_index = 0u64;
    for (i, g) in ledger.iter().enumerate() {
        let gap = if i == 0 {
            g.index
        } else {
            g.index.wrapping_sub(prev_index)
        };
        write_varint(out, gap);
        write_varint(out, g.deltas.len() as u64);
        for &d in &g.deltas {
            write_varint(out, d);
        }
        prev_index = g.index;
    }
}

/// Write each bundle as its own segment into one byte vector.
pub fn write_bundles_to_vec(
    bundles: &[TraceBundle],
    config: StoreConfig,
) -> Result<(Vec<u8>, WriteStats), StoreError> {
    let mut out = Vec::new();
    let mut total = WriteStats::default();
    for b in bundles {
        let mut w = TraceWriter::new(out, config)?;
        w.append(b)?;
        let (sink, stats) = w.finish()?;
        out = sink;
        total.samples += stats.samples;
        total.marks += stats.marks;
        total.elided += stats.elided;
        total.chunks += stats.chunks;
        total.bytes += stats.bytes;
    }
    Ok((out, total))
}

/// Write one bundle as a single-segment store into a byte vector.
pub fn write_bundle_to_vec(
    bundle: &TraceBundle,
    config: StoreConfig,
) -> Result<(Vec<u8>, WriteStats), StoreError> {
    write_bundles_to_vec(std::slice::from_ref(bundle), config)
}

/// A cloneable in-memory [`Write`] sink: lets callers hand a writer to
/// another owner (the online tracer's spill seam) and still read the
/// bytes back afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    inner: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// New empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// Snapshot of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        // Poison-tolerant: a panicking writer thread must not take the
        // reader down with it; the bytes are still well-defined.
        match self.inner.lock() {
            Ok(g) => g.clone(),
            Err(e) => e.into_inner().clone(),
        }
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.inner.lock() {
            Ok(mut g) => g.extend_from_slice(buf),
            Err(e) => e.into_inner().extend_from_slice(buf),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
