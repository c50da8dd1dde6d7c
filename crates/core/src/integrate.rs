//! Step 2 of the paper's procedure (§III.D, Fig. 6): integrate the two
//! data streams.
//!
//! Each PEBS sample is attributed along two axes:
//!
//! * **data-item** — by locating the mark interval (same core) that
//!   contains the sample's timestamp, or, in
//!   [`MappingMode::RegisterTag`], by decoding the `r13` register value
//!   the sample captured (§V.A);
//! * **function** — by resolving the sampled instruction pointer against
//!   the target's symbol table.
//!
//! Samples outside every interval (busy-poll spinning between items) or
//! outside every known function keep `None` in the respective axis; they
//! are retained because profiles (§V.B.1) still use them.
//!
//! ## Parallel execution
//!
//! The paper's mapping is strictly per-core: a sample can only belong to
//! an interval on its own core. Both streams arrive sorted by
//! `(core, tsc)`, so the bundle splits into per-core shards with two
//! `partition_point` walks, every shard is processed independently on a
//! scoped worker pool (`FLUCTRACE_THREADS`, see [`crate::parallel`]),
//! and the results are spliced back in core order. The output is
//! **bit-identical** for every thread count, including the fully
//! sequential `FLUCTRACE_THREADS=1`.
//!
//! Within a shard, attribution no longer binary-searches per sample:
//! samples and intervals are co-walked with a merge cursor (both are
//! time-sorted), making the per-shard cost linear instead of
//! `O(n log m)` and keeping the interval array walk cache-friendly.

use crate::interval::{build_intervals, IntervalError, ItemInterval};
use crate::parallel;
use fluctrace_cpu::{decode_tag, CoreId, FuncId, ItemId, PebsRecord, SymbolTable, TraceBundle};
use fluctrace_obs as obs;
use fluctrace_sim::Freq;
use serde::{Deserialize, Serialize};

/// How samples are mapped to data-items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingMode {
    /// Timestamp-in-mark-interval mapping — the paper's main procedure,
    /// valid for self-switching architectures.
    Intervals,
    /// `r13` register-tag mapping — the §V.A extension, also valid under
    /// timer-switching preemption.
    RegisterTag,
}

/// One sample after integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributedSample {
    /// Core the sample was taken on.
    pub core: CoreId,
    /// TSC timestamp.
    pub tsc: u64,
    /// The data-item the sample belongs to, if any.
    pub item: Option<ItemId>,
    /// The function the IP resolved to, if any.
    pub func: Option<FuncId>,
    /// Index of the interval (within [`IntegratedTrace::intervals`])
    /// the sample fell into, when interval mapping was used. Lets the
    /// estimator sum per-slice contributions for preempted items.
    pub interval_idx: Option<u32>,
}

/// Timing and volume counters of one analysis-pipeline run.
///
/// Integration fills the interval/attribution stages
/// ([`crate::integrate_soa_timed`] returns them beside the trace, never
/// inside it); the estimation stage is reported by
/// [`crate::EstimateTable::from_integrated_timed`] and composed in by
/// callers (see `fluctrace-bench`). Timings come
/// from the process-wide `obs` clock: real nanoseconds in bench
/// binaries (which install the wall clock), opaque logical ticks
/// everywhere else. Either way they are measurement artifacts — they
/// vary run to run and are deliberately *not* part of any determinism
/// guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Clock ticks (wall-ns in bench bins) spent reconstructing
    /// intervals from marks.
    pub interval_build_ns: u64,
    /// Clock ticks (wall-ns in bench bins) spent attributing samples.
    pub attribution_ns: u64,
    /// Clock ticks (wall-ns in bench bins) spent estimating
    /// (first→last folding); zero until an estimator reports it.
    pub estimate_ns: u64,
    /// Samples processed.
    pub samples: u64,
    /// Intervals reconstructed.
    pub intervals: u64,
    /// Worker threads the pipeline ran with.
    pub threads: u64,
}

impl PipelineStats {
    /// Total integration wall time (intervals + attribution), ns.
    pub fn integrate_ns(&self) -> u64 {
        self.interval_build_ns + self.attribution_ns
    }

    /// Integration throughput in samples per second.
    pub fn integrate_samples_per_sec(&self) -> f64 {
        per_sec(self.samples, self.integrate_ns())
    }

    /// Estimation throughput in samples per second (zero until
    /// `estimate_ns` is filled in).
    pub fn estimate_samples_per_sec(&self) -> f64 {
        per_sec(self.samples, self.estimate_ns)
    }
}

fn per_sec(count: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count as f64 / (ns as f64 / 1e9)
    }
}

/// The integrated trace: attributed samples plus the reconstructed
/// intervals and any mark-pairing errors. A pure result value: two runs
/// over the same input compare `==` at any thread count or timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegratedTrace {
    /// All samples, in `(core, tsc)` order.
    pub samples: Vec<AttributedSample>,
    /// Item intervals reconstructed from marks, in `(core, start)` order.
    pub intervals: Vec<ItemInterval>,
    /// Mark-pairing problems encountered.
    pub errors: Vec<IntervalError>,
    /// TSC frequency, for converting cycle differences to time.
    pub freq: Freq,
    /// The mapping mode used.
    pub mode: MappingMode,
    /// Per-item index into `samples`: `(item, start, end)` half-open
    /// ranges, sorted by `(item, start)`. Built once during integration
    /// so per-item queries don't rescan the whole sample array.
    pub(crate) item_index: Vec<(ItemId, u32, u32)>,
}

/// Below this many samples the shard fan-out is pure overhead; run the
/// single-threaded path (same results by construction).
pub(crate) const PARALLEL_MIN_SAMPLES: usize = 4096;

/// Worker count for the auto-sized entry points: sequential below
/// [`PARALLEL_MIN_SAMPLES`], else the `FLUCTRACE_THREADS` pool size.
pub(crate) fn auto_threads(bundle: &TraceBundle) -> usize {
    if bundle.samples.len() < PARALLEL_MIN_SAMPLES {
        1
    } else {
        parallel::configured_threads()
    }
}

/// Integrate a trace bundle against a symbol table.
///
/// `bundle` must be sorted (see [`TraceBundle::sort`]); `freq` is the
/// TSC frequency of the traced machine. Runs on the worker pool sized
/// by `FLUCTRACE_THREADS` (default: available parallelism); the result
/// is identical for every pool size.
pub fn integrate(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> IntegratedTrace {
    integrate_with_threads(bundle, symtab, freq, mode, auto_threads(bundle))
}

/// [`integrate`] with an explicit worker count, honoured even for tiny
/// bundles (used by the determinism tests and benchmarks; `threads = 1`
/// is the sequential reference).
pub fn integrate_with_threads(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> IntegratedTrace {
    integrate_timed(bundle, symtab, freq, mode, threads).0
}

/// [`integrate_with_threads`] plus the run's [`PipelineStats`], which
/// travel beside the trace: they hold clock ticks, so they vary run to
/// run and must stay out of the result value.
pub(crate) fn integrate_timed(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> (IntegratedTrace, PipelineStats) {
    let threads = threads.max(1);
    obs::span!("integrate.run", threads);

    // Phase 1 — per-core interval reconstruction. Shards are the
    // per-core sub-slices of the (core, tsc)-sorted streams.
    let t0 = obs::now_ticks();
    let shards = shard_by_core(&bundle.marks, &bundle.samples);
    let built: Vec<(Vec<ItemInterval>, Vec<IntervalError>)> = parallel::run_indexed(
        shards.iter().map(|sh| sh.marks).collect(),
        threads,
        |shard_idx, marks| {
            obs::span!("integrate.shard", shard_idx);
            build_intervals(marks)
        },
    );
    // Splice in core order: concatenated per-core results are identical
    // to one sequential walk (build_intervals truncates open intervals
    // at core boundaries either way).
    let mut intervals = Vec::with_capacity(built.iter().map(|(ivs, _)| ivs.len()).sum());
    let mut errors = Vec::new();
    // (global base, length) of each shard's interval range.
    let mut shard_bounds: Vec<(usize, usize)> = Vec::with_capacity(built.len());
    for (ivs, errs) in &built {
        shard_bounds.push((intervals.len(), ivs.len()));
        intervals.extend_from_slice(ivs);
        errors.extend_from_slice(errs);
    }
    let interval_build_ns = obs::now_ticks().wrapping_sub(t0);

    // Phase 2 — per-core sample attribution with a merge cursor; local
    // interval indices are globalized with the shard's base offset.
    let t1 = obs::now_ticks();
    let attributed: Vec<Vec<AttributedSample>> = parallel::run_indexed(
        shards.iter().map(|sh| sh.samples).collect(),
        threads,
        |shard_idx, samples| {
            obs::span!("integrate.attribute", shard_idx);
            let (base, len) = shard_bounds.get(shard_idx).copied().unwrap_or((0, 0));
            let shard_intervals = intervals.get(base..base + len).unwrap_or_default();
            attribute_shard(samples, shard_intervals, base as u32, symtab, mode)
        },
    );
    let mut samples = Vec::with_capacity(bundle.samples.len());
    for shard_samples in attributed {
        samples.extend(shard_samples);
    }
    let item_index = build_item_index(&samples);
    let attribution_ns = obs::now_ticks().wrapping_sub(t1);

    // Self-observability: deterministic volumes and sim-cycle
    // distributions only (never the tick timings above), so obs
    // snapshots stay byte-identical across runs and thread counts.
    if obs::recording() {
        obs::counter!("core.integrate.runs").inc();
        obs::counter!("core.integrate.samples").add(samples.len() as u64);
        obs::counter!("core.integrate.intervals").add(intervals.len() as u64);
        obs::counter!("core.integrate.shards").add(shards.len() as u64);
        obs::counter!("core.integrate.errors").add(errors.len() as u64);
        let interval_cycles = obs::histogram!("core.integrate.interval_cycles");
        for iv in &intervals {
            interval_cycles.record(iv.cycles());
        }
        let shard_samples = obs::histogram!("core.integrate.shard_samples");
        for sh in &shards {
            shard_samples.record(sh.samples.len() as u64);
        }
    }

    let stats = PipelineStats {
        interval_build_ns,
        attribution_ns,
        estimate_ns: 0,
        samples: samples.len() as u64,
        intervals: intervals.len() as u64,
        threads: threads as u64,
    };
    let trace = IntegratedTrace {
        samples,
        intervals,
        errors,
        freq,
        mode,
        item_index,
    };
    (trace, stats)
}

/// One core's sub-slices of the sorted streams. Shared with the
/// columnar fast path ([`crate::soa`]), which attributes the same
/// shards into pre-allocated columns.
pub(crate) struct Shard<'a> {
    pub(crate) marks: &'a [fluctrace_cpu::MarkRecord],
    pub(crate) samples: &'a [PebsRecord],
}

/// Split the `(core, tsc)`-sorted streams into per-core shards covering
/// the union of cores present in either stream, in ascending core order.
pub(crate) fn shard_by_core<'a>(
    marks: &'a [fluctrace_cpu::MarkRecord],
    samples: &'a [PebsRecord],
) -> Vec<Shard<'a>> {
    let mut shards = Vec::new();
    let (mut mi, mut si) = (0usize, 0usize);
    while mi < marks.len() || si < samples.len() {
        let core = match (marks.get(mi), samples.get(si)) {
            (Some(m), Some(s)) => m.core.min(s.core),
            (Some(m), None) => m.core,
            (None, Some(s)) => s.core,
            (None, None) => break,
        };
        let m_end = mi
            + marks
                .get(mi..)
                .unwrap_or_default()
                .partition_point(|m| m.core <= core);
        let s_end = si
            + samples
                .get(si..)
                .unwrap_or_default()
                .partition_point(|s| s.core <= core);
        shards.push(Shard {
            marks: marks.get(mi..m_end).unwrap_or_default(),
            samples: samples.get(si..s_end).unwrap_or_default(),
        });
        mi = m_end;
        si = s_end;
    }
    shards
}

/// Attribute one core's samples against that core's intervals.
///
/// Both slices are time-sorted, so instead of a binary search per
/// sample the cursor tracks "how many intervals start at or before this
/// timestamp" — exactly the `partition_point` the old path computed,
/// advanced incrementally. The candidate is the latest-starting
/// interval, matching [`crate::interval::find_interval_idx`] sample for
/// sample.
fn attribute_shard(
    samples: &[PebsRecord],
    intervals: &[ItemInterval],
    base: u32,
    symtab: &SymbolTable,
    mode: MappingMode,
) -> Vec<AttributedSample> {
    let mut out = Vec::with_capacity(samples.len());
    let mut started = 0usize; // intervals with start_tsc <= current tsc
    for s in samples {
        let (item, interval_idx) = match mode {
            MappingMode::Intervals => {
                while intervals
                    .get(started)
                    .is_some_and(|iv| iv.start_tsc <= s.tsc)
                {
                    started += 1;
                }
                let cand = started
                    .checked_sub(1)
                    .and_then(|i| intervals.get(i).map(|iv| (i, iv)));
                match cand {
                    Some((i, iv)) if iv.contains(s.tsc) => (Some(iv.item), Some(base + i as u32)),
                    _ => (None, None),
                }
            }
            MappingMode::RegisterTag => (decode_tag(s.r13), None),
        };
        out.push(AttributedSample {
            core: s.core,
            tsc: s.tsc,
            item,
            func: symtab.resolve(s.ip),
            interval_idx,
        });
    }
    out
}

/// Collapse attributed samples into `(item, start, end)` runs sorted by
/// `(item, start)`. Runs are maximal: consecutive samples of the same
/// item form one range.
pub(crate) fn build_item_index(samples: &[AttributedSample]) -> Vec<(ItemId, u32, u32)> {
    let mut runs: Vec<(ItemId, u32, u32)> = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let Some(item) = s.item else { continue };
        match runs.last_mut() {
            Some((run_item, _, end)) if *run_item == item && *end == i as u32 => {
                *end = i as u32 + 1;
            }
            _ => runs.push((item, i as u32, i as u32 + 1)),
        }
    }
    runs.sort_unstable_by_key(|&(item, start, _)| (item, start));
    runs
}

impl IntegratedTrace {
    /// Samples attributed to `item`, in trace order. Served from the
    /// per-item index: `O(log r + k)` for `k` matching samples instead
    /// of a full scan.
    pub fn samples_of_item(&self, item: ItemId) -> impl Iterator<Item = &AttributedSample> {
        let lo = self
            .item_index
            .partition_point(|&(run_item, _, _)| run_item < item);
        self.item_index
            .get(lo..)
            .unwrap_or_default()
            .iter()
            .take_while(move |&&(run_item, _, _)| run_item == item)
            .flat_map(move |&(_, start, end)| {
                self.samples
                    .get(start as usize..end as usize)
                    .unwrap_or_default()
                    .iter()
            })
    }

    /// Fraction of samples that were attributed to some item.
    pub fn attribution_ratio(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let attributed: usize = self
            .item_index
            .iter()
            .map(|&(_, start, end)| (end - start) as usize)
            .sum();
        attributed as f64 / self.samples.len() as f64
    }

    /// All distinct items observed (from intervals in interval mode,
    /// from tags in register mode), in ascending id order.
    pub fn items(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = match self.mode {
            MappingMode::Intervals => self.intervals.iter().map(|iv| iv.item).collect(),
            // The index is already sorted by item; dedup below collapses
            // an item's multiple runs.
            MappingMode::RegisterTag => self.item_index.iter().map(|&(item, _, _)| item).collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use fluctrace_cpu::{
        encode_tag, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, VirtAddr, NO_TAG,
    };

    fn setup() -> (SymbolTable, FuncId, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let g = b.add("g", 100);
        (b.build(), f, g)
    }

    fn sample(core: u32, tsc: u64, ip: VirtAddr, r13: u64) -> PebsRecord {
        PebsRecord {
            core: CoreId(core),
            tsc,
            ip,
            r13,
            event: HwEvent::UopsRetired,
        }
    }

    fn mark(core: u32, tsc: u64, item: u64, kind: MarkKind) -> MarkRecord {
        MarkRecord {
            core: CoreId(core),
            tsc,
            item: ItemId(item),
            kind,
        }
    }

    #[test]
    fn interval_mode_attribution() {
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 100, 1, MarkKind::Start),
            mark(0, 200, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 50, f_ip, NO_TAG),  // before the item
            sample(0, 150, f_ip, NO_TAG), // inside
            sample(0, 250, f_ip, NO_TAG), // after
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert!(it.errors.is_empty());
        assert_eq!(it.samples[0].item, None);
        assert_eq!(it.samples[1].item, Some(ItemId(1)));
        assert_eq!(it.samples[1].func, Some(f));
        assert_eq!(it.samples[1].interval_idx, Some(0));
        assert_eq!(it.samples[2].item, None);
        assert!((it.attribution_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(it.items(), vec![ItemId(1)]);
    }

    #[test]
    fn cross_core_samples_do_not_leak() {
        // A sample on core 1 whose tsc falls inside core 0's interval
        // must not be attributed (the paper's mapping is per-core).
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 100, 1, MarkKind::Start),
            mark(0, 200, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(1, 150, f_ip, NO_TAG)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(it.samples[0].item, None);
    }

    #[test]
    fn register_tag_mode_ignores_intervals() {
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        // No marks at all — timer-switching without scheduler logging.
        bundle.samples = vec![
            sample(0, 10, f_ip, encode_tag(ItemId(5))),
            sample(0, 20, f_ip, NO_TAG),
            sample(0, 30, f_ip, encode_tag(ItemId(6))),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::RegisterTag);
        assert_eq!(it.samples[0].item, Some(ItemId(5)));
        assert_eq!(it.samples[1].item, None);
        assert_eq!(it.samples[2].item, Some(ItemId(6)));
        assert_eq!(it.items(), vec![ItemId(5), ItemId(6)]);
    }

    #[test]
    fn unresolvable_ip_keeps_none_func() {
        let (symtab, _, _) = setup();
        let mut bundle = TraceBundle::default();
        bundle.samples = vec![sample(0, 10, VirtAddr(0x10), NO_TAG)];
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(it.samples[0].func, None);
    }

    #[test]
    fn samples_of_item_filter() {
        let (symtab, f, g) = setup();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 100, 1, MarkKind::End),
            mark(0, 200, 2, MarkKind::Start),
            mark(0, 300, 2, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 10, symtab.range(f).start, NO_TAG),
            sample(0, 50, symtab.range(g).start, NO_TAG),
            sample(0, 250, symtab.range(f).start, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(it.samples_of_item(ItemId(1)).count(), 2);
        assert_eq!(it.samples_of_item(ItemId(2)).count(), 1);
        assert_eq!(it.attribution_ratio(), 1.0);
    }

    #[test]
    fn item_index_collects_scattered_runs() {
        // Item 1 occupies two intervals separated by item 2, plus an
        // appearance on a second core: three distinct index runs.
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 100, 1, MarkKind::End),
            mark(0, 200, 2, MarkKind::Start),
            mark(0, 300, 2, MarkKind::End),
            mark(0, 400, 1, MarkKind::Start),
            mark(0, 500, 1, MarkKind::End),
            mark(1, 0, 1, MarkKind::Start),
            mark(1, 100, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 10, ip, NO_TAG),
            sample(0, 50, ip, NO_TAG),
            sample(0, 250, ip, NO_TAG),
            sample(0, 450, ip, NO_TAG),
            sample(1, 50, ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let item1: Vec<u64> = it.samples_of_item(ItemId(1)).map(|s| s.tsc).collect();
        assert_eq!(item1, vec![10, 50, 450, 50], "core 0 runs then core 1");
        assert_eq!(it.samples_of_item(ItemId(2)).count(), 1);
        assert_eq!(it.samples_of_item(ItemId(9)).count(), 0);
        assert_eq!(it.attribution_ratio(), 1.0);
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        // Multi-core synthetic workload, compared across pool sizes.
        let (symtab, f, g) = setup();
        let f_ip = symtab.range(f).start;
        let g_ip = symtab.range(g).start;
        let mut bundle = TraceBundle::default();
        let mut item = 0u64;
        for core in 0..6u32 {
            let mut tsc = (core as u64) * 17;
            for _ in 0..40 {
                bundle.marks.push(mark(core, tsc, item, MarkKind::Start));
                bundle.samples.push(sample(core, tsc + 1, f_ip, NO_TAG));
                bundle.samples.push(sample(core, tsc + 7, g_ip, NO_TAG));
                tsc += 11;
                bundle.marks.push(mark(core, tsc, item, MarkKind::End));
                // A gap sample between items (attributed to nothing).
                bundle.samples.push(sample(core, tsc + 1, f_ip, NO_TAG));
                tsc += 5;
                item += 1;
            }
        }
        bundle.sort();
        let reference =
            integrate_with_threads(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals, 1);
        for threads in [2, 3, 8] {
            let it = integrate_with_threads(
                &bundle,
                &symtab,
                Freq::ghz(3),
                MappingMode::Intervals,
                threads,
            );
            assert_eq!(it.samples, reference.samples, "threads={threads}");
            assert_eq!(it.intervals, reference.intervals);
            assert_eq!(it.errors, reference.errors);
            assert_eq!(it.item_index, reference.item_index);
        }
    }

    #[test]
    fn stats_count_samples_and_intervals() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 100, 1, MarkKind::Start),
            mark(0, 200, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(0, 150, ip, NO_TAG)];
        bundle.sort();
        let threads = auto_threads(&bundle);
        let (_, stats) = integrate_timed(
            &bundle,
            &symtab,
            Freq::ghz(3),
            MappingMode::Intervals,
            threads,
        );
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.intervals, 1);
        assert_eq!(stats.threads, 1, "tiny bundles stay sequential");
        assert_eq!(stats.estimate_ns, 0);
    }
}
