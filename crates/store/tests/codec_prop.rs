//! Codec-level property tests: encode→decode == identity for each
//! codec in isolation, over adversarial inputs — wraparound TSC
//! sequences, single-row chunks, all-equal columns, empty columns —
//! and the column codec's exact-size choice equal, byte for byte, to
//! trial-encoding all four codecs.

use fluctrace_store::codec::{
    decode_column, decode_delta, decode_dict, decode_raw, decode_rle, encode_column,
    encode_column_into, encode_delta, encode_dict, encode_raw, encode_rle, read_varint, unzigzag,
    varint_len, write_varint, zigzag, TAG_DELTA, TAG_DICT, TAG_RAW, TAG_RLE,
};
use proptest::prelude::*;

/// Deterministic pseudo-random column from a seed: mixes wraparound
/// ramps, small-delta ramps, constant runs, and raw noise.
fn column_from_seed(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(len);
    let mut cur = match seed % 4 {
        // Start near u64::MAX so ramps wrap.
        0 => u64::MAX - (seed % 97),
        1 => 0,
        _ => step(),
    };
    for i in 0..len {
        match (seed.wrapping_add(i as u64)) % 5 {
            0 => cur = cur.wrapping_add(1 + step() % 29), // small ramp (wrapping)
            1 => {}                                       // repeat (runs)
            2 => cur = step(),                            // noise
            3 => cur = cur.wrapping_sub(step() % 1000),   // backwards delta
            _ => cur = seed % 7,                          // tiny dictionary
        }
        out.push(cur);
    }
    out
}

/// Reference for [`encode_column`]: encode under all four codecs and
/// keep the smallest, ties going to the earliest of delta, dict, rle,
/// raw.
fn trial_encode(values: &[u64]) -> Vec<u8> {
    let candidates = [
        (TAG_DELTA, encode_delta(values)),
        (TAG_DICT, encode_dict(values)),
        (TAG_RLE, encode_rle(values)),
        (TAG_RAW, encode_raw(values)),
    ];
    let (tag, payload) = candidates
        .into_iter()
        .min_by_key(|(_, p)| p.len())
        .expect("four candidates");
    let mut out = vec![tag];
    out.extend_from_slice(&payload);
    out
}

/// `encode_column` picks what trial encoding picks, byte for byte, and
/// the scratch-reusing form appends the same bytes after a dirty
/// scratch and existing output.
fn assert_choice_matches_trial(values: &[u64]) {
    let expect = trial_encode(values);
    assert_eq!(
        encode_column(values),
        expect,
        "column of {} rows",
        values.len()
    );
    let mut sorted = vec![u64::MAX; 7];
    let mut out = vec![0xEE];
    encode_column_into(&[5, 1, 5, 9], &mut sorted, &mut out);
    let prefix = out.len();
    encode_column_into(values, &mut sorted, &mut out);
    assert_eq!(&out[prefix..], &expect[..], "into a reused buffer");
}

/// A column drawing `len` values from `distinct` distinct values spread
/// over `spread_bits` bits, in seeded order.
fn column_from_dictionary(seed: u64, distinct: usize, spread_bits: u32, len: usize) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mask = u64::MAX.checked_shr(64 - spread_bits).unwrap_or(0);
    let dict: Vec<u64> = (0..distinct).map(|_| step() & mask).collect();
    (0..len)
        .map(|_| dict[(step() % distinct as u64) as usize])
        .collect()
}

fn roundtrip_each(values: &[u64]) {
    assert_choice_matches_trial(values);
    let n = values.len();

    let raw = encode_raw(values);
    let mut pos = 0;
    assert_eq!(decode_raw(&raw, &mut pos, n).unwrap(), values, "raw");
    assert_eq!(pos, raw.len(), "raw consumed exactly");

    let delta = encode_delta(values);
    let mut pos = 0;
    assert_eq!(decode_delta(&delta, &mut pos, n).unwrap(), values, "delta");
    assert_eq!(pos, delta.len(), "delta consumed exactly");

    let dict = encode_dict(values);
    let mut pos = 0;
    assert_eq!(decode_dict(&dict, &mut pos, n).unwrap(), values, "dict");
    assert_eq!(pos, dict.len(), "dict consumed exactly");

    let rle = encode_rle(values);
    let mut pos = 0;
    assert_eq!(decode_rle(&rle, &mut pos, n).unwrap(), values, "rle");
    assert_eq!(pos, rle.len(), "rle consumed exactly");

    let col = encode_column(values);
    let mut pos = 0;
    assert_eq!(decode_column(&col, &mut pos, n).unwrap(), values, "column");
    assert_eq!(pos, col.len(), "column consumed exactly");
    // The adaptive pick never loses to any single codec (plus its tag).
    for (name, enc) in [
        ("raw", &raw),
        ("delta", &delta),
        ("dict", &dict),
        ("rle", &rle),
    ] {
        assert!(
            col.len() <= enc.len() + 1,
            "column pick ({} bytes) worse than {name} ({} bytes)",
            col.len(),
            enc.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(64))]

    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(varint_len(v), buf.len());
        prop_assert!(buf.len() <= 10);
    }

    #[test]
    fn zigzag_roundtrips(v in any::<u64>()) {
        prop_assert_eq!(unzigzag(zigzag(v as i64)) as u64, v);
    }

    #[test]
    fn codecs_roundtrip_random_columns(seed in 0u64..1_000_000, len in 0usize..300) {
        roundtrip_each(&column_from_seed(seed, len));
    }

    #[test]
    fn codecs_roundtrip_wraparound_ramps(start_back in 0u64..64, step in 1u64..50, len in 1usize..200) {
        // A TSC column that crosses u64::MAX mid-chunk.
        let mut cur = u64::MAX - start_back;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(cur);
            cur = cur.wrapping_add(step);
        }
        roundtrip_each(&values);
    }

    #[test]
    fn codecs_roundtrip_all_equal(v in any::<u64>(), len in 1usize..200) {
        roundtrip_each(&vec![v; len]);
    }

    #[test]
    fn codecs_roundtrip_single_row(v in any::<u64>()) {
        roundtrip_each(&[v]);
    }

    /// Low-cardinality columns at every spread, where the dictionary is
    /// sized and wins or loses narrowly.
    #[test]
    fn choice_matches_trial_on_dictionary_columns(
        seed in any::<u64>(),
        distinct in 1usize..400,
        spread_bits in 0u32..=64,
        len in 0usize..700,
    ) {
        assert_choice_matches_trial(&column_from_dictionary(seed, distinct, spread_bits, len));
    }
}

/// Every column of up to five values over an alphabet straddling the
/// varint byte boundaries: exact ties between codecs occur here, so the
/// tie order is pinned.
#[test]
fn choice_matches_trial_on_all_short_columns() {
    let alphabet = [0, 1, 64, 127, 128, 300, 1 << 14, u64::MAX];
    let mut values = Vec::new();
    for len in 0..=5u32 {
        for code in 0..alphabet.len().pow(len) {
            values.clear();
            let mut c = code;
            for _ in 0..len {
                values.push(alphabet[c % alphabet.len()]);
                c /= alphabet.len();
            }
            assert_choice_matches_trial(&values);
        }
    }
}

/// Dictionaries past 128 and past 16,384 entries, whose indices take 2
/// and 3 bytes.
#[test]
fn choice_matches_trial_on_wide_dictionaries() {
    for (distinct, len) in [
        (129, 2_000),
        (300, 5_000),
        (16_385, 40_000),
        (20_000, 60_000),
    ] {
        let values = column_from_dictionary(distinct as u64, distinct, 48, len);
        roundtrip_each(&values);
        assert_eq!(
            encode_column(&values)[0],
            TAG_DICT,
            "{distinct} distinct values"
        );
    }
}

#[test]
fn codecs_roundtrip_empty_column() {
    roundtrip_each(&[]);
}

#[test]
fn codecs_roundtrip_extremes() {
    roundtrip_each(&[0]);
    roundtrip_each(&[u64::MAX]);
    roundtrip_each(&[u64::MAX, 0, u64::MAX, 0]);
    roundtrip_each(&[0, u64::MAX]);
    roundtrip_each(&[u64::MAX - 1, u64::MAX, 0, 1]); // wrap boundary walk
}

#[test]
fn constant_column_is_tiny() {
    // RLE (or dict) must collapse a constant column to a handful of bytes.
    let col = encode_column(&vec![42u64; 10_000]);
    assert!(col.len() < 16, "constant column took {} bytes", col.len());
}

#[test]
fn small_delta_ramp_beats_raw() {
    let values: Vec<u64> = (0..10_000u64).map(|i| (1 << 40) | (i * 3)).collect();
    let col = encode_column(&values);
    let raw = encode_raw(&values);
    assert!(
        col.len() * 2 < raw.len(),
        "delta pick {} not < half of raw {}",
        col.len(),
        raw.len()
    );
}
