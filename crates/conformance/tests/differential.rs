//! The differential conformance suite: offline pipeline == online
//! tracer == naive oracle, over hundreds of seeded randomized workloads.
//!
//! A failure prints the seed; reproduce it with
//! `generate(&spec_from_seed(seed))` (see `TESTING.md`).

use fluctrace_conformance::{check_workload, generate, spec_from_seed, DiffSummary};

/// Seeds the sweep covers. 0..SWEEP_SEEDS spans every shape family the
/// generator carves out of the seed space (wraparound at `seed % 5 ==
/// 3`, eviction at `seed % 7 == 0`, heavy faults at `seed % 3 == 0`,
/// shared item ids at `seed % 11 == 4`, truncated tails at
/// `seed % 4 == 1`).
const SWEEP_SEEDS: u64 = 240;

fn check_seed(seed: u64) -> DiffSummary {
    let w = generate(&spec_from_seed(seed));
    match check_workload(&w) {
        Ok(s) => s,
        Err(d) => panic!("differential disagreement: {d}"),
    }
}

/// Replay the committed regression corpus first — seeds that once
/// disagreed (or exercise a shape worth pinning) stay fixed forever.
#[test]
fn corpus_seeds_agree() {
    let corpus = include_str!("corpus/differential.seeds");
    let mut replayed = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line.parse().unwrap_or_else(|e| {
            panic!("bad corpus line {line:?}: {e}");
        });
        check_seed(seed);
        replayed += 1;
    }
    assert!(replayed >= 10, "corpus shrank to {replayed} seeds");
}

/// The main sweep: every seed in the contiguous range must agree across
/// all three executions, and the range must actually cover the hard
/// shape families (so a generator regression cannot silently turn the
/// sweep into a trivial one).
#[test]
fn sweep_seeds_agree_with_shape_coverage() {
    let mut wrap = 0u32;
    let mut evicting = 0u32;
    let mut cross_checked = 0u32;
    let mut boundaryful = 0u32;
    let mut lossy = 0u32;
    let mut multibatch = 0u32;
    let mut store_bytes = 0u64;
    let mut store_elided = 0u64;
    let mut tagged = 0u64;
    for seed in 0..SWEEP_SEEDS {
        let spec = spec_from_seed(seed);
        let summary = check_seed(seed);
        if spec.base_tsc > u64::MAX / 2 {
            wrap += 1;
        }
        if spec.max_pending < 64 {
            evicting += 1;
        }
        if summary.cross_checked {
            cross_checked += 1;
        }
        if spec.boundary_per_mille > 0 {
            boundaryful += 1;
        }
        if summary.samples_unattributed > 0 {
            lossy += 1;
        }
        if summary.batches > 4 {
            multibatch += 1;
        }
        store_bytes += summary.store_bytes;
        store_elided += summary.store_elided;
        tagged += summary.tagged;
    }
    // Shape-coverage floor: each hard family appears many times.
    assert!(wrap >= 30, "only {wrap} near-wrap workloads");
    assert!(evicting >= 20, "only {evicting} eviction-bound workloads");
    assert!(cross_checked >= 30, "only {cross_checked} cross-checked");
    assert!(
        boundaryful >= 100,
        "only {boundaryful} with boundary samples"
    );
    assert!(lossy >= 50, "only {lossy} with loss accounting exercised");
    assert!(
        multibatch >= 100,
        "only {multibatch} with >4 online batches"
    );
    // The store leg must actually exercise the on-disk format: every
    // sweep writes real bytes, and the suppressible-twin pass must
    // elide (and ledger-replay) a large number of rows overall.
    assert!(store_bytes > 0, "store leg wrote no bytes");
    assert!(
        store_elided >= 1000,
        "only {store_elided} rows elided across the sweep"
    );
    // The register-tag leg must attribute real tagged samples.
    assert!(
        tagged >= 1000,
        "only {tagged} tagged samples across the sweep"
    );
}

/// Workload generation itself is deterministic: the same seed expands
/// to the identical record streams and batch cuts.
#[test]
fn generation_is_deterministic() {
    for seed in [0u64, 3, 7, 12, 33, 98] {
        let a = generate(&spec_from_seed(seed));
        let b = generate(&spec_from_seed(seed));
        assert_eq!(a.bundle.marks, b.bundle.marks, "seed {seed} marks");
        assert_eq!(a.bundle.samples, b.bundle.samples, "seed {seed} samples");
        assert_eq!(a.batches.len(), b.batches.len(), "seed {seed} batches");
    }
}
