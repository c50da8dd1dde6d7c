//! The differential driver: one workload, three executions, byte-level
//! agreement.
//!
//! [`check_workload`] runs a generated [`Workload`] through
//!
//! 1. the sharded columnar kernel (`integrate_soa_with_threads` at 1, 2
//!    and 4 workers, estimated by `EstimateTable::from_soa` and, through
//!    the row transpose, by `from_integrated`), in interval mode on the
//!    workload and in register-tag mode on a tagged copy of it,
//! 2. the online tracer (`OnlineTracer`, blocking submission, adaptive
//!    degradation off), and
//! 3. the naive oracles from [`crate::oracle`],
//!
//! and demands exact agreement: the estimate tables serialize to
//! byte-identical JSON, the loss accounting matches bucket by bucket,
//! and the flag-everything anomaly sets coincide. Any mismatch comes
//! back as a [`Disagreement`] naming the stage and the seed, which is
//! all that is needed to replay it (`generate(&spec_from_seed(seed))`).

use crate::gen::Workload;
use crate::oracle::{self, OracleOffline, OracleOnline};
use fluctrace_core::online::{OnlineConfig, OnlineReport, OnlineTracer};
use fluctrace_core::soa::NO_ITEM;
use fluctrace_core::{integrate_soa_with_threads, EstimateTable, IntervalError, MappingMode};
use fluctrace_cpu::{PebsRecord, TraceBundle};
use fluctrace_store::{write_bundle_to_vec, SharedBuf, StoreConfig, TraceReader, TraceWriter};
use serde::Serialize;
use std::io::Cursor;

/// A canonical, order-stable projection of an estimate table. Both the
/// pipeline's `EstimateTable` and the oracle's rows map onto this; the
/// driver compares the serialized JSON bytes, so *any* divergence —
/// value, ordering, presence — is caught.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CanonicalTable {
    /// Rows ascending by item id.
    pub rows: Vec<CanonicalRow>,
}

/// One item of a [`CanonicalTable`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CanonicalRow {
    /// The item id.
    pub item: u64,
    /// Marked total in picoseconds, when marks existed.
    pub marked_total_ps: Option<u64>,
    /// `(func, samples, elapsed_ps)` ascending by func.
    pub funcs: Vec<(u32, u32, u64)>,
    /// Attributed samples whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

impl CanonicalTable {
    /// Project a pipeline [`EstimateTable`].
    pub fn from_pipeline(table: &EstimateTable) -> CanonicalTable {
        CanonicalTable {
            rows: table
                .items()
                .map(|ie| CanonicalRow {
                    item: ie.item.0,
                    marked_total_ps: ie.marked_total.map(|d| d.as_ps()),
                    funcs: ie
                        .funcs
                        .iter()
                        .map(|f| (f.func.0, f.samples, f.elapsed.as_ps()))
                        .collect(),
                    unknown_func_samples: ie.unknown_func_samples,
                })
                .collect(),
        }
    }

    /// Project the oracle's rows.
    pub fn from_oracle(oracle: &OracleOffline) -> CanonicalTable {
        CanonicalTable {
            rows: oracle
                .items
                .iter()
                .map(|row| CanonicalRow {
                    item: row.item,
                    marked_total_ps: row.marked_total_ps,
                    funcs: row.funcs.clone(),
                    unknown_func_samples: row.unknown_func_samples,
                })
                .collect(),
        }
    }

    /// Serialize to the comparison form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("<serialize failed: {e}>"))
    }
}

/// What a successful differential run covered, for aggregation in test
/// output.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffSummary {
    /// Seed of the workload.
    pub seed: u64,
    /// Records checked (marks + samples).
    pub records: u64,
    /// Intervals the offline pipeline reconstructed.
    pub intervals: u64,
    /// Items the online tracer completed.
    pub items_online: u64,
    /// Samples the tracer accounted as lost or spin.
    pub samples_unattributed: u64,
    /// Online batches submitted.
    pub batches: u64,
    /// True when the online/offline anomaly cross-check applied (no
    /// eviction or discard, unique item ids).
    pub cross_checked: bool,
    /// Store bytes the suppressed on-disk round-trip produced.
    pub store_bytes: u64,
    /// Sample rows the store's redundancy suppression elided (and the
    /// ledger replayed) across the store legs of this workload.
    pub store_elided: u64,
    /// Samples the register-tag leg attributed through their tags.
    pub tagged: u64,
}

/// One divergence between two executions of the same workload.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Seed that reproduces it.
    pub seed: u64,
    /// Which comparison failed.
    pub stage: &'static str,
    /// Expected vs actual, preformatted.
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} disagrees at {}: {}",
            self.seed, self.stage, self.detail
        )
    }
}

impl std::error::Error for Disagreement {}

fn fail(seed: u64, stage: &'static str, detail: String) -> Disagreement {
    Disagreement {
        seed,
        stage,
        detail,
    }
}

/// Tally pipeline interval errors into the oracle's count shape.
fn tally_errors(errors: &[IntervalError]) -> oracle::OracleErrors {
    let mut t = oracle::OracleErrors::default();
    for e in errors {
        match e {
            IntervalError::OrphanEnd { .. } => t.orphan_ends += 1,
            IntervalError::UnclosedStart { .. } => t.unclosed_starts += 1,
            IntervalError::Mismatched { .. } => t.mismatched += 1,
            IntervalError::TruncatedStart { .. } => t.truncated += 1,
        }
    }
    t
}

/// Anomaly comparison key: `(item, func, elapsed_ps, raw_samples)`.
/// `baseline_mean` is deliberately excluded — it depends on completion
/// order across cores, which the oracle does not model.
type AnomalyKey = (u64, u32, u64, usize);

/// Run the full differential comparison for one workload.
pub fn check_workload(w: &Workload) -> Result<DiffSummary, Disagreement> {
    let seed = w.spec.seed;
    let oracle_off = oracle::offline_oracle(&w.bundle.marks, &w.bundle.samples, &w.symtab, w.freq);
    let oracle_on = oracle::online_oracle(
        &w.bundle.marks,
        &w.bundle.samples,
        &w.symtab,
        w.freq,
        w.spec.max_pending,
    );

    let mut summary = DiffSummary {
        seed,
        records: (w.bundle.marks.len() + w.bundle.samples.len()) as u64,
        batches: w.batches.len() as u64,
        ..DiffSummary::default()
    };

    check_offline(w, &oracle_off, &mut summary)?;
    check_register_tag(w, &oracle_off, &mut summary)?;
    check_online(w, &oracle_on, &oracle_off, &mut summary)?;
    check_store(w, &oracle_off, &mut summary)?;
    Ok(summary)
}

/// The 11-counter loss ledger plus attribution totals, as one
/// comparable tuple.
type AccountingKey = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn accounting_key(report: &OnlineReport) -> AccountingKey {
    (
        report.items_processed,
        report.samples_seen,
        report.samples_attributed,
        report.loss.samples_evicted,
        report.loss.samples_discarded,
        report.loss.samples_spin,
        report.loss.marks_orphaned,
        report.loss.marks_mismatched,
        report.loss.starts_abandoned,
        report.loss.starts_truncated,
        report.loss.boundary_samples,
    )
}

fn anomaly_keys(report: &OnlineReport) -> Vec<AnomalyKey> {
    let mut keys: Vec<AnomalyKey> = report
        .anomalies
        .iter()
        .map(|a| (a.item.0, a.func.0, a.elapsed.as_ps(), a.raw_samples.len()))
        .collect();
    keys.sort_unstable();
    keys
}

/// Run a bundle through the flag-everything online tracer as a single
/// batch and return the finished report.
fn online_single_batch(w: &Workload, bundle: &TraceBundle) -> Result<OnlineReport, Disagreement> {
    let seed = w.spec.seed;
    let mut config = OnlineConfig::new(w.freq);
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;
    let tracer = OnlineTracer::spawn(std::sync::Arc::clone(&w.symtab), config);
    if tracer.submit(bundle.clone()).is_err() {
        return Err(fail(seed, "store-online-submit", "worker gone".into()));
    }
    tracer
        .finish()
        .map_err(|e| fail(seed, "store-online-finish", e.to_string()))
}

/// The on-disk columnar store must be a transparent layer: writing the
/// workload through `fluctrace-store` and reading it back — with and
/// without redundancy suppression — must reproduce bit-exact rows, and
/// everything downstream of the read (canonical estimate rows, the
/// online loss ledger, the anomaly set) must match the in-memory
/// pipeline byte for byte. The suppression ledger must account for the
/// exact input row count, and the written files must be byte-identical
/// across repeated writes.
fn check_store(
    w: &Workload,
    oracle_off: &OracleOffline,
    summary: &mut DiffSummary,
) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    // Small chunks so every workload spans several chunks per stream.
    let configs = [
        StoreConfig {
            chunk_rows: 512,
            ..StoreConfig::default()
        },
        StoreConfig {
            chunk_rows: 512,
            ..StoreConfig::suppressed(1 << 30)
        },
    ];
    for config in configs {
        // Double-write determinism: same rows, same bytes.
        let (bytes, stats) = write_bundle_to_vec(&w.bundle, config)
            .map_err(|e| fail(seed, "store-write", e.to_string()))?;
        let (again, _) = write_bundle_to_vec(&w.bundle, config)
            .map_err(|e| fail(seed, "store-rewrite", e.to_string()))?;
        if bytes != again {
            return Err(fail(
                seed,
                "store-determinism",
                format!(
                    "two writes of the same bundle differ ({} vs {} bytes, suppress={})",
                    bytes.len(),
                    again.len(),
                    config.suppress
                ),
            ));
        }
        if config.suppress {
            summary.store_bytes = bytes.len() as u64;
            summary.store_elided += stats.elided;
        }

        // Bit-exact replay (ledger applied when suppressing).
        let mut reader = TraceReader::open(Cursor::new(bytes))
            .map_err(|e| fail(seed, "store-open", e.to_string()))?;
        let got = reader
            .read_bundle()
            .map_err(|e| fail(seed, "store-read", e.to_string()))?;
        if got.samples != w.bundle.samples || got.marks != w.bundle.marks {
            return Err(fail(
                seed,
                "store-roundtrip",
                format!(
                    "read-back differs (suppress={}): {}/{} samples, {}/{} marks equal lengths {}",
                    config.suppress,
                    got.samples.len(),
                    w.bundle.samples.len(),
                    got.marks.len(),
                    w.bundle.marks.len(),
                    got.samples.len() == w.bundle.samples.len()
                ),
            ));
        }

        // Ledger identity: retained + elided == the exact input row count.
        let (retained, elision) = reader
            .read_retained()
            .map_err(|e| fail(seed, "store-retained", e.to_string()))?;
        if retained.samples.len() as u64 + elision.elided != w.bundle.samples.len() as u64 {
            return Err(fail(
                seed,
                "store-ledger",
                format!(
                    "retained {} + elided {} != input rows {} (suppress={})",
                    retained.samples.len(),
                    elision.elided,
                    w.bundle.samples.len(),
                    config.suppress
                ),
            ));
        }
        if !config.suppress && elision.elided != 0 {
            return Err(fail(
                seed,
                "store-ledger",
                format!("unsuppressed store elided {} rows", elision.elided),
            ));
        }
        if elision.elided != stats.elided {
            return Err(fail(
                seed,
                "store-ledger",
                format!(
                    "reader ledger {} != writer stats {}",
                    elision.elided, stats.elided
                ),
            ));
        }

        // Canonical estimate rows from the store-read bundle must equal
        // the oracle golden, exactly as the in-memory pipeline does.
        let mut sorted = got.clone();
        sorted.sort();
        let soa = integrate_soa_with_threads(&sorted, &w.symtab, w.freq, MappingMode::Intervals, 1);
        let json = CanonicalTable::from_pipeline(&EstimateTable::from_soa(&soa)).to_json();
        let golden = CanonicalTable::from_oracle(oracle_off).to_json();
        if json != golden {
            return Err(fail(
                seed,
                "store-table",
                format!(
                    "suppress={}:\n  store:  {json}\n  oracle: {golden}",
                    config.suppress
                ),
            ));
        }

        // Online loss ledger + anomaly set: store-read bundle vs the
        // in-memory bundle through the identical tracer.
        let from_store = online_single_batch(w, &got)?;
        let in_memory = online_single_batch(w, &w.bundle)?;
        if accounting_key(&from_store) != accounting_key(&in_memory) {
            return Err(fail(
                seed,
                "store-accounting",
                format!(
                    "suppress={}:\n  store:  {:?}\n  memory: {:?}",
                    config.suppress,
                    accounting_key(&from_store),
                    accounting_key(&in_memory)
                ),
            ));
        }
        if anomaly_keys(&from_store) != anomaly_keys(&in_memory) {
            return Err(fail(
                seed,
                "store-anomalies",
                format!(
                    "suppress={}:\n  store:  {:?}\n  memory: {:?}",
                    config.suppress,
                    anomaly_keys(&from_store),
                    anomaly_keys(&in_memory)
                ),
            ));
        }
    }

    check_store_suppressible(w, summary)?;
    check_store_spill(w)
}

/// Conformance workloads rarely repeat exact IPs, so the suppressed leg
/// above mostly retains everything. Derive a *suppressible* twin —
/// every second sample copies its stream predecessor's `(ip, r13,
/// event)` when on the same core — and prove the ledger replays that
/// bundle bit-exactly too, with real elisions on every seed.
fn check_store_suppressible(w: &Workload, summary: &mut DiffSummary) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut twin = w.bundle.clone();
    let mut prev: Option<PebsRecord> = None;
    for (i, s) in twin.samples.iter_mut().enumerate() {
        if let Some(p) = prev {
            if i % 2 == 1 && p.core == s.core {
                s.ip = p.ip;
                s.r13 = p.r13;
                s.event = p.event;
            }
        }
        prev = Some(*s);
    }
    let config = StoreConfig {
        chunk_rows: 512,
        ..StoreConfig::suppressed(1 << 30)
    };
    let (bytes, stats) = write_bundle_to_vec(&twin, config)
        .map_err(|e| fail(seed, "store-twin-write", e.to_string()))?;
    let got = TraceReader::open(Cursor::new(bytes))
        .and_then(|mut r| r.read_bundle())
        .map_err(|e| fail(seed, "store-twin-read", e.to_string()))?;
    if got.samples != twin.samples || got.marks != twin.marks {
        return Err(fail(
            seed,
            "store-twin-roundtrip",
            "suppressible twin did not replay bit-exactly".into(),
        ));
    }
    summary.store_elided += stats.elided;
    Ok(())
}

/// The online tracer's spill-on-flush seam: submitting the workload's
/// batches with a spill writer attached must leave a store whose
/// read-back equals the concatenated batches bit-exactly, with spill
/// accounting matching the ledger.
fn check_store_spill(w: &Workload) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut config = OnlineConfig::new(w.freq);
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;

    let buf = SharedBuf::new();
    let store_config = StoreConfig {
        chunk_rows: 512,
        ..StoreConfig::suppressed(1 << 30)
    };
    let writer = TraceWriter::new(buf.clone(), store_config)
        .map_err(|e| fail(seed, "store-spill-writer", e.to_string()))?;
    let tracer = OnlineTracer::spawn_with_spill(std::sync::Arc::clone(&w.symtab), config, writer);
    let mut expect = TraceBundle::default();
    for batch in &w.batches {
        expect.merge(batch.clone());
        if tracer.submit(batch.clone()).is_err() {
            return Err(fail(seed, "store-spill-submit", "worker gone".into()));
        }
    }
    let report = match tracer.finish() {
        Ok(r) => r,
        Err(e) => return Err(fail(seed, "store-spill-finish", e.to_string())),
    };
    if report.spill.errors != 0 || report.spill.batches != w.batches.len() as u64 {
        return Err(fail(
            seed,
            "store-spill-accounting",
            format!(
                "errors {} batches {}/{}",
                report.spill.errors,
                report.spill.batches,
                w.batches.len()
            ),
        ));
    }
    let got = TraceReader::open(Cursor::new(buf.contents()))
        .and_then(|mut r| r.read_bundle())
        .map_err(|e| fail(seed, "store-spill-read", e.to_string()))?;
    if got.samples != expect.samples || got.marks != expect.marks {
        return Err(fail(
            seed,
            "store-spill-roundtrip",
            format!(
                "spilled store: {}/{} samples, {}/{} marks",
                got.samples.len(),
                expect.samples.len(),
                got.marks.len(),
                expect.marks.len()
            ),
        ));
    }
    if report.spill.samples != expect.samples.len() as u64
        || report.spill.marks != expect.marks.len() as u64
    {
        return Err(fail(
            seed,
            "store-spill-accounting",
            format!(
                "spill stats ({}, {}) != submitted ({}, {})",
                report.spill.samples,
                report.spill.marks,
                expect.samples.len(),
                expect.marks.len()
            ),
        ));
    }
    Ok(())
}

/// Offline pipeline (all thread counts, columnar and row estimates) vs
/// the brute-force oracle.
fn check_offline(
    w: &Workload,
    oracle_off: &OracleOffline,
    summary: &mut DiffSummary,
) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut bundle = w.bundle.clone();
    bundle.sort();

    let golden = CanonicalTable::from_oracle(oracle_off).to_json();
    for threads in [1usize, 2, 4] {
        let soa =
            integrate_soa_with_threads(&bundle, &w.symtab, w.freq, MappingMode::Intervals, threads);
        let it = soa.to_integrated();

        if threads == 1 {
            summary.intervals = it.intervals.len() as u64;
            // Interval sets must agree exactly (count, order, bounds).
            let got: Vec<_> = it
                .intervals
                .iter()
                .map(|iv| (iv.core.0, iv.item.0, iv.start_tsc, iv.end_tsc))
                .collect();
            let mut want: Vec<_> = oracle_off
                .intervals
                .iter()
                .map(|iv| (iv.core.0, iv.item.0, iv.start, iv.end))
                .collect();
            // The pipeline splices per-core shards in core order; the
            // oracle pairs one sorted walk — same order by construction.
            want.sort_by_key(|&(core, _, start, _)| (core, start));
            if got != want {
                return Err(fail(
                    seed,
                    "offline-intervals",
                    format!("pipeline {got:?} != oracle {want:?}"),
                ));
            }
            let errs = tally_errors(&it.errors);
            if errs != oracle_off.errors {
                return Err(fail(
                    seed,
                    "offline-errors",
                    format!("pipeline {errs:?} != oracle {:?}", oracle_off.errors),
                ));
            }
            let attributed = it.samples.iter().filter(|s| s.item.is_some()).count() as u64;
            let unattributed = it.samples.len() as u64 - attributed;
            if (attributed, unattributed) != (oracle_off.attributed, oracle_off.unattributed) {
                return Err(fail(
                    seed,
                    "offline-attribution",
                    format!(
                        "pipeline ({attributed}, {unattributed}) != oracle ({}, {})",
                        oracle_off.attributed, oracle_off.unattributed
                    ),
                ));
            }
        }

        for (which, table) in [
            ("estimate", EstimateTable::from_integrated(&it)),
            ("estimate-soa", EstimateTable::from_soa(&soa)),
        ] {
            if table.samples_missing_span != 0 {
                return Err(fail(
                    seed,
                    "offline-missing-span",
                    format!(
                        "{which}@{threads}t: {} samples missing a span id",
                        table.samples_missing_span
                    ),
                ));
            }
            let json = CanonicalTable::from_pipeline(&table).to_json();
            if json != golden {
                return Err(fail(
                    seed,
                    "offline-table",
                    format!("{which}@{threads}t:\n  pipeline: {json}\n  oracle:   {golden}"),
                ));
            }
        }
    }
    Ok(())
}

/// Register-tag mode (§V.A) vs the brute-force tag oracle, on a copy of
/// the workload whose samples carry their containing interval's item in
/// `r13` (`NO_TAG` in gaps). Runs split where an interval-mode span
/// would not (adjacent same-item intervals merge, gaps split), so the
/// tag oracle — not the interval one — is the reference.
fn check_register_tag(
    w: &Workload,
    oracle_off: &OracleOffline,
    summary: &mut DiffSummary,
) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut tagged = w.bundle.clone();
    tagged.samples = oracle::tag_samples(&oracle_off.intervals, &w.bundle.samples);
    tagged.sort();
    let oracle_tag = oracle::tag_oracle(&tagged.marks, &tagged.samples, &w.symtab, w.freq);
    if oracle_tag.attributed != oracle_off.attributed {
        return Err(fail(
            seed,
            "tag-oracle",
            format!(
                "tagging attributes {} samples, intervals {}",
                oracle_tag.attributed, oracle_off.attributed
            ),
        ));
    }
    let golden = CanonicalTable::from_oracle(&oracle_tag).to_json();
    for threads in [1usize, 2, 4] {
        let soa = integrate_soa_with_threads(
            &tagged,
            &w.symtab,
            w.freq,
            MappingMode::RegisterTag,
            threads,
        );
        let attributed = soa.cols.item.iter().filter(|&&i| i != NO_ITEM).count() as u64;
        if attributed != oracle_tag.attributed {
            return Err(fail(
                seed,
                "tag-attribution",
                format!(
                    "@{threads}t: pipeline {attributed} != oracle {}",
                    oracle_tag.attributed
                ),
            ));
        }
        let json = CanonicalTable::from_pipeline(&EstimateTable::from_soa(&soa)).to_json();
        if json != golden {
            return Err(fail(
                seed,
                "tag-table",
                format!("@{threads}t:\n  pipeline: {json}\n  oracle:   {golden}"),
            ));
        }
    }
    summary.tagged = oracle_tag.attributed;
    Ok(())
}

/// Online tracer vs the per-core replay oracle, plus (when no loss makes
/// them comparable) the online-vs-offline anomaly cross-check.
fn check_online(
    w: &Workload,
    oracle_on: &OracleOnline,
    oracle_off: &OracleOffline,
    summary: &mut DiffSummary,
) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut config = OnlineConfig::new(w.freq);
    // Flag everything: warmed-up from the start, any nonzero span
    // diverges. This turns the anomaly stream into a total record of
    // completed items, which the oracle can predict exactly.
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;

    let tracer = OnlineTracer::spawn(std::sync::Arc::clone(&w.symtab), config);
    for batch in &w.batches {
        if let Err(e) = tracer.submit(batch.clone()) {
            return Err(fail(
                seed,
                "online-submit",
                format!("worker gone, {} samples undelivered", e.batch.samples.len()),
            ));
        }
    }
    let report = match tracer.finish() {
        Ok(r) => r,
        Err(e) => return Err(fail(seed, "online-finish", e.to_string())),
    };

    // Producer-side shed must be zero under blocking submission with
    // degradation off.
    let shed = (
        report.loss.batches_dropped,
        report.loss.samples_dropped,
        report.loss.samples_thinned,
    );
    if shed != (0, 0, 0) {
        return Err(fail(
            seed,
            "online-shed",
            format!("(batches_dropped, samples_dropped, samples_thinned) = {shed:?}"),
        ));
    }

    let got = (
        report.items_processed,
        report.samples_seen,
        report.samples_attributed,
        report.loss.samples_evicted,
        report.loss.samples_discarded,
        report.loss.samples_spin,
        report.loss.marks_orphaned,
        report.loss.marks_mismatched,
        report.loss.starts_abandoned,
        report.loss.starts_truncated,
        report.loss.boundary_samples,
    );
    let want = (
        oracle_on.items_processed,
        oracle_on.samples_seen,
        oracle_on.samples_attributed,
        oracle_on.loss.samples_evicted,
        oracle_on.loss.samples_discarded,
        oracle_on.loss.samples_spin,
        oracle_on.loss.marks_orphaned,
        oracle_on.loss.marks_mismatched,
        oracle_on.loss.starts_abandoned,
        oracle_on.loss.starts_truncated,
        oracle_on.loss.boundary_samples,
    );
    if got != want {
        return Err(fail(
            seed,
            "online-accounting",
            format!(
                "(items, seen, attributed, evicted, discarded, spin, orphaned, \
                 mismatched, abandoned, truncated, boundary):\n  tracer: {got:?}\n  oracle: {want:?}"
            ),
        ));
    }
    if !report.conserves_samples() {
        return Err(fail(
            seed,
            "online-conservation",
            format!(
                "seen {} != attributed {} + evicted {} + discarded {} + spin {}",
                report.samples_seen,
                report.samples_attributed,
                report.loss.samples_evicted,
                report.loss.samples_discarded,
                report.loss.samples_spin
            ),
        ));
    }

    // Anomalies as order-independent sets.
    let mut got_anoms: Vec<AnomalyKey> = report
        .anomalies
        .iter()
        .map(|a| (a.item.0, a.func.0, a.elapsed.as_ps(), a.raw_samples.len()))
        .collect();
    got_anoms.sort_unstable();
    let want_anoms: Vec<AnomalyKey> = oracle_on
        .anomalies
        .iter()
        .map(|a| (a.item, a.func, a.elapsed_ps, a.raw_samples))
        .collect();
    if got_anoms != want_anoms {
        return Err(fail(
            seed,
            "online-anomalies",
            format!("tracer {got_anoms:?}\n  oracle {want_anoms:?}"),
        ));
    }

    summary.items_online = report.items_processed;
    summary.samples_unattributed = report.samples_seen - report.samples_attributed;

    // Cross-check online anomalies against the *offline* estimates: when
    // nothing was evicted or discarded and item ids are unique, every
    // completed item saw exactly the samples the offline pipeline
    // attributes to it, so the online worst-function span must equal the
    // offline per-(item, func) maximum (same lowest-func tie-break).
    if oracle_on.loss.samples_evicted == 0
        && oracle_on.loss.samples_discarded == 0
        && !w.spec.shared_items
    {
        summary.cross_checked = true;
        let mut want_cross: Vec<AnomalyKey> = Vec::new();
        for row in &oracle_off.items {
            let mut worst: Option<(u32, u64)> = None;
            let mut samples = 0usize;
            for &(func, count, elapsed_ps) in &row.funcs {
                samples += count as usize;
                if elapsed_ps == 0 {
                    continue;
                }
                match worst {
                    Some((_, best)) if best >= elapsed_ps => {}
                    _ => worst = Some((func, elapsed_ps)),
                }
            }
            samples += row.unknown_func_samples as usize;
            if let Some((func, elapsed_ps)) = worst {
                want_cross.push((row.item, func, elapsed_ps, samples));
            }
        }
        want_cross.sort_unstable();
        if got_anoms != want_cross {
            return Err(fail(
                seed,
                "cross-anomalies",
                format!("online {got_anoms:?}\n  offline {want_cross:?}"),
            ));
        }
    }
    Ok(())
}
