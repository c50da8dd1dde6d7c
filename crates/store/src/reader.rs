//! Store reader: parses segment footers back-to-front at open (no
//! chunk bytes touched), then decodes chunks on demand. Suppressed
//! segments replay their ledgers into bit-exact logical rows by
//! default; [`TraceReader::read_retained`] instead keeps the physical
//! rows and reports precisely what was dropped.

use std::io::{Read, Seek, SeekFrom};

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
use fluctrace_obs as obs;

use crate::codec::{decode_column, read_varint};
use crate::error::StoreError;
use crate::format::{ChunkDesc, Footer, MAGIC, STREAM_SAMPLES, TAIL_BYTES, TAIL_MAGIC};
use crate::writer::LedgerGroup;

/// One parsed segment: its footer plus the absolute offset of its head.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Decoded footer.
    pub footer: Footer,
    /// Absolute byte offset of the segment's head magic.
    pub start: u64,
}

/// What a ledger-aware retained read dropped, per elision site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionReport {
    /// Total sample rows elided across all segments.
    pub elided: u64,
    /// `(segment, global retained sample index, TSC deltas)` for every
    /// elision site, in stream order — exactly the rows suppression
    /// dropped and where they belong.
    pub sites: Vec<(usize, u64, Vec<u64>)>,
}

/// Columnar reader over any [`Read`]`+`[`Seek`] source.
pub struct TraceReader<R: Read + Seek> {
    src: R,
    segments: Vec<SegmentMeta>,
    /// Byte length of the whole store.
    len: u64,
    /// The chunk being decoded, kept across chunks.
    chunk: Vec<u8>,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Open a store: locate and validate every segment footer, newest
    /// last. No chunk data is read or decoded here.
    pub fn open(mut src: R) -> Result<Self, StoreError> {
        let len = src.seek(SeekFrom::End(0))?;
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut end = len;
        if end == 0 {
            return Err(StoreError::Truncated("empty store"));
        }
        while end > 0 {
            if end < MAGIC.len() as u64 + TAIL_BYTES {
                return Err(StoreError::Truncated("segment tail"));
            }
            let tail = read_at(&mut src, end - TAIL_BYTES, TAIL_BYTES as usize)?;
            let (len_bytes, magic_bytes) = tail.split_at(8);
            if magic_bytes != TAIL_MAGIC {
                return Err(StoreError::BadMagic);
            }
            let footer_len = u64::from_le_bytes(
                len_bytes
                    .try_into()
                    .map_err(|_| StoreError::Truncated("footer length"))?,
            );
            let footer_start = end
                .checked_sub(TAIL_BYTES)
                .and_then(|p| p.checked_sub(footer_len))
                .ok_or(StoreError::Truncated("footer"))?;
            let footer_bytes = read_at(&mut src, footer_start, footer_len as usize)?;
            let footer = Footer::decode(&footer_bytes)?;
            let start = footer_start
                .checked_sub(footer.body_len)
                .ok_or(StoreError::Corrupt("body length exceeds file"))?;
            let head = read_at(&mut src, start, MAGIC.len())?;
            if head != MAGIC {
                return Err(StoreError::BadMagic);
            }
            segments.push(SegmentMeta { footer, start });
            end = start;
        }
        segments.reverse();
        Ok(TraceReader {
            src,
            segments,
            len,
            chunk: Vec::new(),
        })
    }

    /// Number of segments in the store.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Per-segment metadata, in file order.
    pub fn segment_meta(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Logical `(samples, marks)` row totals, from footers alone.
    pub fn logical_rows(&self) -> (u64, u64) {
        let mut samples = 0u64;
        let mut marks = 0u64;
        for s in &self.segments {
            let (sm, mk) = s.footer.logical_rows();
            samples = samples.saturating_add(sm);
            marks = marks.saturating_add(mk);
        }
        (samples, marks)
    }

    /// Min/max TSC over all sample chunks, from footers alone. `None`
    /// when the store holds no samples.
    pub fn sample_tsc_bounds(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for s in &self.segments {
            for c in &s.footer.chunks {
                if c.stream == STREAM_SAMPLES && c.rows > 0 {
                    bounds = Some(match bounds {
                        None => (c.tsc_min, c.tsc_max),
                        Some((lo, hi)) => (lo.min(c.tsc_min), hi.max(c.tsc_max)),
                    });
                }
            }
        }
        bounds
    }

    /// Read every segment and replay ledgers: the returned bundle is
    /// bit-exact equal to what was appended, elided rows included. The
    /// bundle is allocated once, from the footers' row counts.
    pub fn read_bundle(&mut self) -> Result<TraceBundle, StoreError> {
        let (samples, marks) = self.logical_rows();
        let mut out = reserved_bundle(samples, marks, self.len);
        for i in 0..self.segments.len() {
            self.read_segment_into(i, &mut out)?;
        }
        self.record_read(&out);
        Ok(out)
    }

    /// Read one segment (ledger replayed), by index in file order.
    pub fn read_segment(&mut self, index: usize) -> Result<TraceBundle, StoreError> {
        let (samples, marks) = self
            .segments
            .get(index)
            .ok_or(StoreError::Corrupt("segment index out of range"))?
            .footer
            .logical_rows();
        let mut out = reserved_bundle(samples, marks, self.len);
        self.read_segment_into(index, &mut out)?;
        Ok(out)
    }

    /// Append one segment's logical rows to `out`.
    fn read_segment_into(&mut self, index: usize, out: &mut TraceBundle) -> Result<(), StoreError> {
        let meta = self
            .segments
            .get(index)
            .cloned()
            .ok_or(StoreError::Corrupt("segment index out of range"))?;
        for c in &meta.footer.chunks {
            if c.stream == STREAM_SAMPLES {
                self.read_sample_chunk(meta.start, c)?
                    .push_rows(c, true, &mut out.samples)?;
            } else {
                self.read_mark_chunk(meta.start, c, &mut out.marks)?;
            }
        }
        Ok(())
    }

    /// Read every segment but keep only the physically retained rows,
    /// reporting exactly which rows suppression dropped and where.
    pub fn read_retained(&mut self) -> Result<(TraceBundle, ElisionReport), StoreError> {
        let mut out = TraceBundle::default();
        let mut report = ElisionReport::default();
        for i in 0..self.segments.len() {
            let meta = self
                .segments
                .get(i)
                .cloned()
                .ok_or(StoreError::Corrupt("segment index out of range"))?;
            let mut seg_retained_base = 0u64;
            for c in &meta.footer.chunks {
                if c.stream == STREAM_SAMPLES {
                    let chunk = self.read_sample_chunk(meta.start, c)?;
                    chunk.push_rows(c, false, &mut out.samples)?;
                    for g in chunk.ledger {
                        report.elided += g.deltas.len() as u64;
                        report
                            .sites
                            .push((i, seg_retained_base + g.index, g.deltas));
                    }
                    seg_retained_base += c.retained;
                } else {
                    self.read_mark_chunk(meta.start, c, &mut out.marks)?;
                }
            }
        }
        self.record_read(&out);
        Ok((out, report))
    }

    /// Chunk-pruned sample scan: decode only chunks whose footer
    /// `[tsc_min, tsc_max]` overlaps `[lo, hi]`, then filter rows. This
    /// is the "read without deserializing the whole file" path — on a
    /// narrow window most chunks are skipped from the footer alone.
    /// Bounds are plain u64 comparisons (a wrapping trace spans the
    /// whole axis and defeats pruning, never correctness).
    pub fn read_samples_in(&mut self, lo: u64, hi: u64) -> Result<Vec<PebsRecord>, StoreError> {
        let mut out = Vec::new();
        for i in 0..self.segments.len() {
            let meta = self
                .segments
                .get(i)
                .cloned()
                .ok_or(StoreError::Corrupt("segment index out of range"))?;
            for c in &meta.footer.chunks {
                if c.stream != STREAM_SAMPLES || c.rows == 0 {
                    continue;
                }
                if c.tsc_max < lo || c.tsc_min > hi {
                    continue;
                }
                self.read_sample_chunk(meta.start, c)?
                    .push_rows(c, true, &mut out)?;
            }
        }
        out.retain(|r| r.tsc >= lo && r.tsc <= hi);
        Ok(out)
    }

    fn record_read(&self, bundle: &TraceBundle) {
        if obs::recording() {
            obs::counter!("store.reader.segments").add(self.segments.len() as u64);
            obs::counter!("store.reader.samples").add(bundle.samples.len() as u64);
            obs::counter!("store.reader.marks").add(bundle.marks.len() as u64);
        }
    }

    /// Read chunk `c`'s bytes into the reusable chunk buffer.
    fn load_chunk(&mut self, seg_start: u64, c: &ChunkDesc) -> Result<(), StoreError> {
        let offset = seg_start
            .checked_add(c.offset)
            .ok_or(StoreError::Corrupt("chunk offset overflows"))?;
        read_at_into(&mut self.src, offset, c.byte_len as usize, &mut self.chunk)?;
        if obs::recording() {
            obs::counter!("store.reader.bytes").add(self.chunk.len() as u64);
        }
        Ok(())
    }

    fn read_sample_chunk(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
    ) -> Result<SampleChunk, StoreError> {
        self.load_chunk(seg_start, c)?;
        let buf = self.chunk.as_slice();
        let retained = c.retained as usize;
        let mut pos = 0usize;
        let chunk = SampleChunk {
            tsc: decode_column(buf, &mut pos, retained)?,
            ip: decode_column(buf, &mut pos, retained)?,
            core: decode_column(buf, &mut pos, retained)?,
            r13: decode_column(buf, &mut pos, retained)?,
            event: decode_column(buf, &mut pos, retained)?,
            ledger: decode_ledger(buf, &mut pos, c)?,
        };
        if pos != buf.len() {
            return Err(StoreError::Corrupt("trailing bytes after sample chunk"));
        }
        Ok(chunk)
    }

    /// Decode mark chunk `c` and append its rows to `out`.
    fn read_mark_chunk(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<MarkRecord>,
    ) -> Result<(), StoreError> {
        self.load_chunk(seg_start, c)?;
        let buf = self.chunk.as_slice();
        let rows_n = c.rows as usize;
        let mut pos = 0usize;
        let tsc = decode_column(buf, &mut pos, rows_n)?;
        let core = decode_column(buf, &mut pos, rows_n)?;
        let item = decode_column(buf, &mut pos, rows_n)?;
        let kind = decode_column(buf, &mut pos, rows_n)?;
        if pos != buf.len() {
            return Err(StoreError::Corrupt("trailing bytes after mark chunk"));
        }
        let start = out.len();
        let cols = tsc.iter().zip(&core).zip(&item).zip(&kind);
        for (((&tsc, &core), &item), &kind) in cols {
            out.push(MarkRecord {
                core: decode_core(core)?,
                tsc,
                item: ItemId(item),
                kind: match kind {
                    0 => MarkKind::Start,
                    1 => MarkKind::End,
                    _ => return Err(StoreError::Corrupt("unknown mark kind")),
                },
            });
        }
        if out.len() - start != rows_n {
            return Err(StoreError::Corrupt("column shorter than rows"));
        }
        Ok(())
    }
}

/// A decoded sample chunk: the retained rows' five columns and the
/// elision ledger.
struct SampleChunk {
    tsc: Vec<u64>,
    ip: Vec<u64>,
    core: Vec<u64>,
    r13: Vec<u64>,
    event: Vec<u64>,
    ledger: Vec<LedgerGroup>,
}

impl SampleChunk {
    /// Append the chunk's rows to `out`: with `replay`, its logical
    /// rows, each ledger group's elided rows re-inserted after their
    /// retained anchor with TSCs chained through the wrapping deltas
    /// (bit-exact to what was written); without, only the retained
    /// rows.
    fn push_rows(
        &self,
        c: &ChunkDesc,
        replay: bool,
        out: &mut Vec<PebsRecord>,
    ) -> Result<(), StoreError> {
        let start = out.len();
        let mut groups = self.ledger.iter().peekable();
        let cols = self.tsc.iter().zip(&self.ip).zip(&self.core);
        let cols = cols.zip(&self.r13).zip(&self.event);
        for (i, ((((&tsc, &ip), &core), &r13), &event)) in cols.enumerate() {
            let r = PebsRecord {
                core: decode_core(core)?,
                tsc,
                ip: VirtAddr(ip),
                r13,
                event: decode_event(event)?,
            };
            out.push(r);
            if !replay {
                continue;
            }
            if let Some(g) = groups.next_if(|g| g.index == i as u64) {
                let mut last = r;
                for &d in &g.deltas {
                    last.tsc = last.tsc.wrapping_add(d);
                    out.push(last);
                }
            }
        }
        let (expect, what) = if replay {
            if groups.next().is_some() {
                return Err(StoreError::Corrupt("ledger anchor past retained rows"));
            }
            (c.rows, "replayed rows != footer rows")
        } else {
            (c.retained, "column shorter than rows")
        };
        if (out.len() - start) as u64 != expect {
            return Err(StoreError::Corrupt(what));
        }
        Ok(())
    }
}

/// An empty bundle with room for `samples` and `marks` rows, each
/// capped at one row per byte of a `store_len`-byte store.
fn reserved_bundle(samples: u64, marks: u64, store_len: u64) -> TraceBundle {
    TraceBundle {
        samples: Vec::with_capacity(reservation(samples, store_len)),
        marks: Vec::with_capacity(reservation(marks, store_len)),
    }
}

/// Rows to reserve for `rows` claimed by footers. Every logical row
/// costs at least one byte (a varint per column, or a ledger delta), so
/// a valid store never claims more rows than it has bytes; the cap
/// keeps a corrupt footer from forcing a large allocation.
fn reservation(rows: u64, store_len: u64) -> usize {
    usize::try_from(rows.min(store_len)).unwrap_or(usize::MAX)
}

fn decode_core(raw: u64) -> Result<CoreId, StoreError> {
    u32::try_from(raw)
        .map(CoreId)
        .map_err(|_| StoreError::Corrupt("core id exceeds u32"))
}

fn decode_event(raw: u64) -> Result<HwEvent, StoreError> {
    usize::try_from(raw)
        .ok()
        .and_then(|i| HwEvent::ALL.get(i))
        .copied()
        .ok_or(StoreError::Corrupt("hw event index out of range"))
}

/// Parse a sample chunk's elision ledger and validate it against the
/// footer's row accounting.
fn decode_ledger(
    buf: &[u8],
    pos: &mut usize,
    c: &ChunkDesc,
) -> Result<Vec<LedgerGroup>, StoreError> {
    let group_count = read_varint(buf, pos)?;
    if group_count > c.rows {
        return Err(StoreError::Corrupt("more ledger groups than rows"));
    }
    let mut ledger = Vec::with_capacity(group_count as usize);
    let mut prev_index = 0u64;
    let mut elided_total = 0u64;
    for i in 0..group_count {
        let gap = read_varint(buf, pos)?;
        if i > 0 && gap == 0 {
            return Err(StoreError::Corrupt("ledger indices not increasing"));
        }
        let index = if i == 0 {
            gap
        } else {
            prev_index.wrapping_add(gap)
        };
        if index >= c.retained {
            return Err(StoreError::Corrupt("ledger index past retained rows"));
        }
        let count = read_varint(buf, pos)?;
        if count == 0 {
            return Err(StoreError::Corrupt("empty ledger group"));
        }
        elided_total = elided_total.saturating_add(count);
        if elided_total > c.rows.wrapping_sub(c.retained) {
            return Err(StoreError::Corrupt(
                "ledger elides more than rows - retained",
            ));
        }
        let mut deltas = Vec::with_capacity(count.min(c.rows) as usize);
        for _ in 0..count {
            deltas.push(read_varint(buf, pos)?);
        }
        ledger.push(LedgerGroup { index, deltas });
        prev_index = index;
    }
    if elided_total != c.rows.wrapping_sub(c.retained) {
        return Err(StoreError::Corrupt("ledger total != rows - retained"));
    }
    Ok(ledger)
}

/// Seek + exact read of `len` bytes at absolute `offset`.
fn read_at<R: Read + Seek>(src: &mut R, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::new();
    read_at_into(src, offset, len, &mut buf)?;
    Ok(buf)
}

/// [`read_at`] into `buf`, replacing its contents.
fn read_at_into<R: Read + Seek>(
    src: &mut R,
    offset: u64,
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<(), StoreError> {
    src.seek(SeekFrom::Start(offset))?;
    buf.clear();
    buf.resize(len, 0);
    src.read_exact(buf)
        .map_err(|_| StoreError::Truncated("chunk or footer bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_never_exceeds_one_row_per_byte() {
        for rows in [0, 1, 7, 1 << 24, 48 << 24, u64::MAX] {
            for len in [0, 1, 24, 4096, 1 << 40] {
                assert_eq!(reservation(rows, len) as u64, rows.min(len));
            }
            let b = reserved_bundle(rows, rows, 4096);
            assert!(b.samples.capacity() <= 4096 && b.marks.capacity() <= 4096);
        }
    }
}
