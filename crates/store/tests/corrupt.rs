//! Malformed-input fixture suite: every truncation of a valid store,
//! and a sweep of single-byte corruptions, must surface as a
//! [`StoreError`] or decode to different rows — never a panic and
//! never a silent short read that passes for the original.

mod common;

use std::io::Cursor;

use common::fixture_bundle;
use fluctrace_cpu::TraceBundle;
use fluctrace_store::format::{
    ChunkDesc, Footer, MAGIC, STREAM_MARKS, STREAM_SAMPLES, TAIL_MAGIC, VERSION,
};
use fluctrace_store::{write_bundle_to_vec, StoreConfig, StoreError, TraceReader, MAX_CHUNK_ROWS};

fn fixture_bytes(config: StoreConfig) -> Vec<u8> {
    write_bundle_to_vec(&fixture_bundle(), config)
        .expect("write fixture")
        .0
}

fn read_all(bytes: &[u8]) -> Result<TraceBundle, StoreError> {
    TraceReader::open(Cursor::new(bytes.to_vec()))?.read_bundle()
}

/// Every strict prefix of a valid store must fail loudly.
#[test]
fn every_truncation_errors() {
    for config in [
        StoreConfig {
            chunk_rows: 32,
            ..StoreConfig::default()
        },
        StoreConfig {
            chunk_rows: 32,
            ..StoreConfig::suppressed(1 << 20)
        },
    ] {
        let bytes = fixture_bytes(config);
        let original = read_all(&bytes).expect("fixture reads back");
        assert_eq!(original.samples.len(), 200);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            match read_all(truncated) {
                Err(_) => {}
                Ok(got) => panic!(
                    "prefix of {cut}/{} bytes read back 'successfully' ({} samples)",
                    bytes.len(),
                    got.samples.len()
                ),
            }
        }
    }
}

/// Flipping any single byte must never panic, and must never produce a
/// bundle that silently *claims* to be the original while differing in
/// row count bookkeeping (a read that succeeds must be internally
/// consistent; a read that can't be is an error).
#[test]
fn single_byte_corruption_never_panics() {
    let config = StoreConfig {
        chunk_rows: 32,
        ..StoreConfig::suppressed(1 << 20)
    };
    let bytes = fixture_bytes(config);
    let mut errors = 0usize;
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xA5;
        // Must return — any panic fails the test harness.
        if read_all(&mutated).is_err() {
            errors += 1;
        }
    }
    // The bulk of positions are load-bearing; a format where corruption
    // mostly goes unnoticed would make the exactness ledger worthless.
    assert!(
        errors * 2 > bytes.len(),
        "only {errors}/{} corrupted positions were detected",
        bytes.len()
    );
}

#[test]
fn empty_input_is_truncated() {
    assert!(matches!(
        TraceReader::open(Cursor::new(Vec::<u8>::new())).err(),
        Some(StoreError::Truncated(_))
    ));
}

#[test]
fn garbage_tail_is_bad_magic() {
    let junk = vec![0x5Au8; 64];
    assert_eq!(
        TraceReader::open(Cursor::new(junk)).err(),
        Some(StoreError::BadMagic)
    );
}

#[test]
fn wrong_version_is_rejected() {
    let bytes = fixture_bytes(StoreConfig::default());
    // The footer starts with varint version 1; find it via the recorded
    // footer length at end-16.
    let len = bytes.len();
    let footer_len = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let footer_start = len - 16 - footer_len;
    let mut mutated = bytes.clone();
    mutated[footer_start] = 9; // varint version 9
    assert_eq!(read_all(&mutated).err(), Some(StoreError::BadVersion(9)));
}

/// A reader over a file that ends mid-chunk (valid footer spliced onto
/// a shorter body) errors instead of short-reading.
#[test]
fn body_shorter_than_footer_claims_errors() {
    let bytes = fixture_bytes(StoreConfig::default());
    let len = bytes.len();
    let footer_len = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let footer_start = len - 16 - footer_len;
    // Drop 32 bytes out of the middle of the body, keep footer + tail.
    let mut spliced = Vec::new();
    spliced.extend_from_slice(&bytes[..footer_start - 32]);
    spliced.extend_from_slice(&bytes[footer_start..]);
    assert!(read_all(&spliced).is_err(), "spliced short body must error");
}

/// A well-formed footer that claims many `MAX_CHUNK_ROWS` chunks over a
/// 16-byte body: the reader reserves no more than the file can hold and
/// every read path fails with a typed error.
#[test]
fn footer_claiming_huge_chunks_over_tiny_body_errors() {
    let chunks = (0..64u64)
        .map(|i| ChunkDesc {
            stream: if i % 4 == 3 {
                STREAM_MARKS
            } else {
                STREAM_SAMPLES
            },
            offset: MAGIC.len() as u64,
            byte_len: 16,
            rows: MAX_CHUNK_ROWS,
            retained: MAX_CHUNK_ROWS,
            tsc_min: 0,
            tsc_max: u64::MAX,
        })
        .collect();
    let footer = Footer {
        version: VERSION,
        suppress: 0,
        tolerance: 0,
        chunk_rows: MAX_CHUNK_ROWS,
        body_len: MAGIC.len() as u64 + 16,
        chunks,
    }
    .encode();
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[0x01; 16]);
    bytes.extend_from_slice(&footer);
    bytes.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    bytes.extend_from_slice(TAIL_MAGIC);

    let mut reader = TraceReader::open(Cursor::new(bytes)).expect("footer itself is well formed");
    assert_eq!(
        reader.logical_rows(),
        (48 * MAX_CHUNK_ROWS, 16 * MAX_CHUNK_ROWS)
    );
    assert!(matches!(
        reader.read_bundle(),
        Err(StoreError::Corrupt(_) | StoreError::Truncated(_))
    ));
    assert!(matches!(
        reader.read_segment(0),
        Err(StoreError::Corrupt(_) | StoreError::Truncated(_))
    ));
    assert!(reader.read_retained().is_err());
    assert!(reader.read_samples_in(0, u64::MAX).is_err());
}
