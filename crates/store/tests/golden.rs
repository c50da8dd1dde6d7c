//! Pins the bytes the writer produces for fixed inputs: the FNV-1a
//! digest and the length of each store. The round-trip suite checks
//! that repeated writes agree within one build; this checks that the
//! file format does not drift from one version of the writer to the
//! next. A deliberate format change bumps `VERSION` and re-records the
//! values below.

mod common;

use common::{fixture_bundle, synth_bundle};
use fluctrace_cpu::TraceBundle;
use fluctrace_store::{write_bundles_to_vec, StoreConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn written_bytes_are_pinned() {
    let chunk = |rows, config| StoreConfig {
        chunk_rows: rows,
        ..config
    };
    let cases: Vec<(&str, Vec<TraceBundle>, StoreConfig, u64, usize)> = vec![
        (
            "fixture default",
            vec![fixture_bundle()],
            StoreConfig::default(),
            0xe97a_d457_afba_6e3f,
            1369,
        ),
        (
            "fixture chunk 32",
            vec![fixture_bundle()],
            chunk(32, StoreConfig::default()),
            0xf0b3_6b38_5502_4bac,
            1614,
        ),
        (
            "fixture suppressed chunk 32",
            vec![fixture_bundle()],
            chunk(32, StoreConfig::suppressed(1 << 20)),
            0x8292_c962_b4f1_83c3,
            1616,
        ),
        (
            "synth default",
            vec![synth_bundle(7, 20_000)],
            StoreConfig::default(),
            0xa5a7_7e54_a8fd_bf7b,
            141765,
        ),
        (
            "synth wrapping default",
            vec![synth_bundle(9, 20_000)],
            StoreConfig::default(),
            0x8e38_4a33_6e32_b0ac,
            141531,
        ),
        (
            "synth suppressed",
            vec![synth_bundle(7, 20_000)],
            StoreConfig::suppressed(1 << 16),
            0xa523_7e1d_3237_60df,
            141488,
        ),
        (
            "synth chunk 64",
            vec![synth_bundle(7, 5_000)],
            chunk(64, StoreConfig::default()),
            0xc1f6_51b6_4e49_6643,
            36043,
        ),
        (
            "synth two segments",
            vec![synth_bundle(11, 3_000), synth_bundle(12, 1_000)],
            StoreConfig::suppressed(4096),
            0x85e0_6b67_30b0_fee8,
            27645,
        ),
    ];
    let mut drift = Vec::new();
    for (name, bundles, config, digest, len) in cases {
        let (bytes, _) = write_bundles_to_vec(&bundles, config).expect("write");
        let got = (fnv1a(&bytes), bytes.len());
        if got != (digest, len) {
            drift.push(format!(
                "{name}: digest {:#018x} len {} != pinned {digest:#018x} len {len}",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "store bytes drifted:\n{}",
        drift.join("\n")
    );
}
