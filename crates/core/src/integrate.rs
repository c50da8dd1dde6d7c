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
//! This module holds the row form of the result ([`IntegratedTrace`])
//! that profiles, metrics, export and reports read. The attribution
//! itself is the columnar kernel in [`crate::soa`]; [`integrate`] runs
//! it and transposes, so both forms are bit-identical for every thread
//! count, including the fully sequential `FLUCTRACE_THREADS=1`.

use crate::interval::{IntervalError, ItemInterval};
use crate::soa::{integrate_soa, integrate_soa_with_threads};
use fluctrace_cpu::{CoreId, FuncId, ItemId, SymbolTable, TraceBundle};
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
/// [`crate::EstimateTable::from_soa_timed`] and composed in by
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
    integrate_soa(bundle, symtab, freq, mode).to_integrated()
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
    integrate_soa_with_threads(bundle, symtab, freq, mode, threads).to_integrated()
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
}
