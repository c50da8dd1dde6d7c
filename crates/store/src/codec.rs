//! Per-column integer codecs: LEB128 varints, zigzag, and four
//! self-delimiting column encodings (raw, delta, dictionary, RLE).
//!
//! Every encoding starts with a varint row count and is decodable
//! without knowing its byte length. [`encode_column`] computes the
//! exact byte length of each of the four encodings without encoding
//! any of them, then encodes only the smallest (ties broken by a fixed
//! candidate order, so the chosen bytes depend only on the column's
//! contents). Decoders take the row count the footer promised and fail
//! with a [`StoreError`] on any disagreement — a corrupt count can
//! never cause a silent short read or an unbounded allocation.

use crate::error::StoreError;

/// Codec tag byte: varints, one per value.
pub const TAG_RAW: u8 = 0;
/// Codec tag byte: first value + zigzag varint deltas (wrapping).
pub const TAG_DELTA: u8 = 1;
/// Codec tag byte: sorted distinct dictionary + varint indices.
pub const TAG_DICT: u8 = 2;
/// Codec tag byte: (value, run-length) pairs.
pub const TAG_RLE: u8 = 3;

/// Append `v` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Byte length of `v` as an LEB128 varint: 7 payload bits per byte,
/// and 0 still takes one byte.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read an LEB128 varint at `*pos`, advancing it.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let byte = *buf.get(*pos).ok_or(StoreError::Truncated("varint"))?;
        *pos = pos.saturating_add(1);
        let low = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(StoreError::Corrupt("varint wider than 64 bits"));
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta into a small unsigned varint.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read the leading row count and check it against the footer's.
fn read_count(buf: &[u8], pos: &mut usize, expect: usize) -> Result<usize, StoreError> {
    let n = read_varint(buf, pos)?;
    if n != expect as u64 {
        return Err(StoreError::Corrupt("column row count != footer row count"));
    }
    Ok(expect)
}

/// Pre-allocation bound: each encoded value costs at least one byte, so
/// a column can never decode to more rows than it has bytes left.
fn capacity_hint(buf: &[u8], pos: usize, expect: usize) -> usize {
    expect.min(buf.len().saturating_sub(pos))
}

/// Encode as plain varints, one per value.
pub fn encode_raw(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    put_raw(&mut out, values);
    out
}

fn put_raw(out: &mut Vec<u8>, values: &[u64]) {
    write_varint(out, values.len() as u64);
    for &v in values {
        write_varint(out, v);
    }
}

/// Decode a [`TAG_RAW`] payload of exactly `expect` rows.
pub fn decode_raw(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let n = read_count(buf, pos, expect)?;
    let mut out = Vec::with_capacity(capacity_hint(buf, *pos, n));
    for _ in 0..n {
        out.push(read_varint(buf, pos)?);
    }
    Ok(out)
}

/// Encode as first value + zigzag deltas. Deltas use `wrapping_sub`, so
/// a TSC column that wraps past `u64::MAX` still yields small deltas
/// and round-trips exactly.
pub fn encode_delta(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    put_delta(&mut out, values);
    out
}

fn put_delta(out: &mut Vec<u8>, values: &[u64]) {
    write_varint(out, values.len() as u64);
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    write_varint(out, first);
    let mut prev = first;
    for &v in rest {
        write_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Decode a [`TAG_DELTA`] payload of exactly `expect` rows.
pub fn decode_delta(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let n = read_count(buf, pos, expect)?;
    let mut out = Vec::with_capacity(capacity_hint(buf, *pos, n));
    let mut prev: u64 = 0;
    for i in 0..n {
        let v = if i == 0 {
            read_varint(buf, pos)?
        } else {
            prev.wrapping_add(unzigzag(read_varint(buf, pos)?) as u64)
        };
        out.push(v);
        prev = v;
    }
    Ok(out)
}

/// Encode as a sorted distinct-value dictionary (delta-coded, strictly
/// ascending) followed by varint indices. Wins on low-cardinality
/// columns with values too far apart for delta coding (instruction
/// pointers hopping between a few functions).
pub fn encode_dict(values: &[u64]) -> Vec<u8> {
    let mut distinct = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut out = Vec::new();
    put_dict(&mut out, values, &distinct);
    out
}

/// Write the dictionary encoding of `values`, given their sorted
/// distinct values.
fn put_dict(out: &mut Vec<u8>, values: &[u64], distinct: &[u64]) {
    write_varint(out, values.len() as u64);
    write_varint(out, distinct.len() as u64);
    // The first entry is written as is (its difference from 0); the
    // rest are strictly ascending, so the plain difference is exact.
    let mut prev: u64 = 0;
    for &d in distinct {
        write_varint(out, d.wrapping_sub(prev));
        prev = d;
    }
    for v in values {
        // Present by construction, so the search always hits.
        let index = distinct.binary_search(v).unwrap_or_else(|i| i);
        write_varint(out, index as u64);
    }
}

/// Exact byte length of the dictionary encoding of `values`. Leaves a
/// sorted copy of `values`, duplicates kept, in `sorted`.
fn dict_len(values: &[u64], sorted: &mut Vec<u64>) -> usize {
    sorted.clear();
    sorted.extend_from_slice(values);
    sorted.sort_unstable();
    let mut len = varint_len(values.len() as u64);
    let mut index: u64 = 0;
    let mut prev: u64 = 0;
    for run in sorted.chunk_by(|a, b| a == b) {
        let Some(&d) = run.first() else { continue };
        len += varint_len(d.wrapping_sub(prev)) + run.len() * varint_len(index);
        prev = d;
        index += 1;
    }
    len + varint_len(index)
}

/// Decode a [`TAG_DICT`] payload of exactly `expect` rows.
pub fn decode_dict(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let n = read_count(buf, pos, expect)?;
    let dict_len = read_varint(buf, pos)?;
    if n > 0 && dict_len == 0 {
        return Err(StoreError::Corrupt("dictionary empty for non-empty column"));
    }
    let dict_cap = usize::try_from(dict_len)
        .ok()
        .map(|l| capacity_hint(buf, *pos, l))
        .ok_or(StoreError::Corrupt("dictionary longer than addressable"))?;
    let mut dict = Vec::with_capacity(dict_cap);
    let mut prev: u64 = 0;
    for i in 0..dict_len {
        let d = if i == 0 {
            read_varint(buf, pos)?
        } else {
            let step = read_varint(buf, pos)?;
            if step == 0 {
                return Err(StoreError::Corrupt("dictionary not strictly ascending"));
            }
            let next = prev.wrapping_add(step);
            if next <= prev {
                return Err(StoreError::Corrupt("dictionary wrapped past u64::MAX"));
            }
            next
        };
        dict.push(d);
        prev = d;
    }
    let mut out = Vec::with_capacity(capacity_hint(buf, *pos, n));
    for _ in 0..n {
        let idx = read_varint(buf, pos)?;
        let v = usize::try_from(idx)
            .ok()
            .and_then(|i| dict.get(i))
            .copied()
            .ok_or(StoreError::Corrupt("dictionary index out of range"))?;
        out.push(v);
    }
    Ok(out)
}

/// Encode as (value, run-length) pairs. Wins on constant and
/// near-constant columns (core ids, event kinds, mark kinds).
pub fn encode_rle(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    put_rle(&mut out, values);
    out
}

fn put_rle(out: &mut Vec<u8>, values: &[u64]) {
    write_varint(out, values.len() as u64);
    for run in values.chunk_by(|a, b| a == b) {
        let Some(&value) = run.first() else { continue };
        write_varint(out, value);
        write_varint(out, run.len() as u64);
    }
}

/// Decode a [`TAG_RLE`] payload of exactly `expect` rows. Runs are read
/// until exactly `expect` rows are produced; a run overshooting the
/// count is corruption, never an over-allocation.
pub fn decode_rle(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let n = read_count(buf, pos, expect)?;
    let mut out = Vec::with_capacity(n.min(crate::format::MAX_CHUNK_ROWS as usize));
    while out.len() < n {
        let value = read_varint(buf, pos)?;
        let len = read_varint(buf, pos)?;
        if len == 0 {
            return Err(StoreError::Corrupt("zero-length RLE run"));
        }
        let remaining = (n - out.len()) as u64;
        if len > remaining {
            return Err(StoreError::Corrupt("RLE run overshoots row count"));
        }
        for _ in 0..len {
            out.push(value);
        }
    }
    Ok(out)
}

/// Encode a column under the smallest of the four codecs, prefixed by
/// its tag byte. See [`encode_column_into`].
pub fn encode_column(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_column_into(values, &mut Vec::new(), &mut out);
    out
}

/// Append `values` to `out` under the smallest of the four codecs,
/// prefixed by its tag byte.
///
/// One pass over the column computes the exact byte length of the
/// delta, RLE and raw encodings; the dictionary's length needs a sorted
/// copy (kept in the caller's `sorted` scratch) and is computed only
/// when its floor — the head, one byte of dictionary length and one
/// byte per index — could still win. Only the winner is encoded.
/// Candidates rank in the fixed order delta, dict, rle, raw and ties
/// keep the earliest, so the output is a pure function of `values`.
pub fn encode_column_into(values: &[u64], sorted: &mut Vec<u64>, out: &mut Vec<u8>) {
    let head = varint_len(values.len() as u64);
    let (mut delta, mut rle, mut raw) = (head, head, head);
    if let Some((&first, rest)) = values.split_first() {
        delta += varint_len(first);
        raw += varint_len(first);
        let (mut prev, mut run) = (first, 1u64);
        for &v in rest {
            raw += varint_len(v);
            delta += varint_len(zigzag(v.wrapping_sub(prev) as i64));
            if v == prev {
                run += 1;
            } else {
                rle += varint_len(prev) + varint_len(run);
                run = 1;
            }
            prev = v;
        }
        rle += varint_len(prev) + varint_len(run);
    }
    let mut best = (TAG_DELTA, delta);
    let dict_floor = head + 1 + values.len();
    if dict_floor < delta && dict_floor <= rle.min(raw) {
        let dict = dict_len(values, sorted);
        if dict < delta {
            best = (TAG_DICT, dict);
        }
    }
    for (tag, len) in [(TAG_RLE, rle), (TAG_RAW, raw)] {
        if len < best.1 {
            best = (tag, len);
        }
    }
    let (tag, len) = best;
    out.reserve(1 + len);
    out.push(tag);
    match tag {
        TAG_DELTA => put_delta(out, values),
        TAG_DICT => {
            sorted.dedup();
            put_dict(out, values, sorted);
        }
        TAG_RLE => put_rle(out, values),
        _ => put_raw(out, values),
    }
}

/// Decode one tagged column of exactly `expect` rows at `*pos`.
pub fn decode_column(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let tag = *buf.get(*pos).ok_or(StoreError::Truncated("column tag"))?;
    *pos = pos.saturating_add(1);
    match tag {
        TAG_RAW => decode_raw(buf, pos, expect),
        TAG_DELTA => decode_delta(buf, pos, expect),
        TAG_DICT => decode_dict(buf, pos, expect),
        TAG_RLE => decode_rle(buf, pos, expect),
        _ => Err(StoreError::Corrupt("unknown codec tag")),
    }
}
