//! Step 3 of the paper's procedure: "The elapsed time of function `f_n`
//! for data-item `#M` is calculated by the difference between the
//! timestamps of the first and the last PEBS sample that belong to
//! `{f_n, data-item #M}`."
//!
//! Refinement over the paper's single-interval case: if an item occupies
//! several intervals (a preempted item under timer-switching with
//! scheduler logging, or several tag runs in register mode), first/last
//! differences are taken *per occupancy span* and summed, so time the
//! item spent switched-out is not counted.

use crate::integrate::{IntegratedTrace, MappingMode};
use crate::interval::ItemInterval;
use crate::soa::{SoaTrace, NO_FUNC, NO_ITEM, NO_SPAN};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Estimated elapsed time of one function for one data-item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncEstimate {
    /// The data-item.
    pub item: ItemId,
    /// The function.
    pub func: FuncId,
    /// Number of samples attributed to `{func, item}`.
    pub samples: u32,
    /// Estimated elapsed time (sum of per-span first→last differences).
    pub elapsed: SimDuration,
}

impl FuncEstimate {
    /// True when enough samples existed to estimate a duration — the
    /// paper's §V.B.1 limitation: one sample gives no elapsed time.
    pub fn is_estimable(&self) -> bool {
        self.samples >= 2
    }
}

/// Everything estimated about one data-item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemEstimate {
    /// The data-item.
    pub item: ItemId,
    /// Exact processing time from the instrumentation marks (sum over
    /// the item's intervals). `None` in register-tag mode, where no
    /// marks exist.
    pub marked_total: Option<SimDuration>,
    /// Per-function estimates, ordered by function id.
    pub funcs: Vec<FuncEstimate>,
    /// Samples attributed to the item whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

impl ItemEstimate {
    /// Estimate for one function, if any samples hit it.
    pub fn func(&self, func: FuncId) -> Option<&FuncEstimate> {
        self.funcs.iter().find(|f| f.func == func)
    }

    /// Sum of the per-function estimated elapsed times.
    pub fn estimated_total(&self) -> SimDuration {
        self.funcs
            .iter()
            .fold(SimDuration::ZERO, |acc, f| acc + f.elapsed)
    }
}

/// Per-item per-function estimates for a whole trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateTable {
    items: BTreeMap<ItemId, ItemEstimate>,
    /// TSC frequency the estimates were converted with.
    pub freq: Freq,
    /// Interval-mode samples that carried an item but no interval index.
    /// Such samples are internally inconsistent (integration always sets
    /// both or neither), so instead of silently aliasing them onto span
    /// 0 — which would bridge unrelated timestamps into one bogus
    /// first→last difference — they are skipped and counted here.
    pub samples_missing_span: u64,
}

impl EstimateTable {
    /// Assemble a table from pre-built per-item estimates (used by the
    /// batch-splitting extension).
    pub(crate) fn from_items_map(
        items: BTreeMap<ItemId, ItemEstimate>,
        freq: Freq,
    ) -> EstimateTable {
        EstimateTable {
            items,
            freq,
            samples_missing_span: 0,
        }
    }

    /// Build the table from a row trace: transposed into columns and
    /// estimated by [`Self::from_soa`], the one estimator.
    pub fn from_integrated(it: &IntegratedTrace) -> Self {
        Self::from_soa(&SoaTrace::from_integrated(it))
    }

    /// Build the table from a columnar trace ([`crate::integrate_soa`]).
    pub fn from_soa(soa: &SoaTrace) -> Self {
        Self::from_soa_timed(soa).0
    }

    /// [`Self::from_soa`] plus the time the estimation took, in ticks of
    /// the process-wide `obs` clock — wall-ns in bench bins, logical
    /// ticks elsewhere (fed into
    /// [`PipelineStats::estimate_ns`](crate::PipelineStats) by the
    /// benchmark harness). Timing lives outside the table so tables stay
    /// directly comparable with `==`.
    ///
    /// ## Algorithm
    ///
    /// Samples arrive in `(core, tsc)` order and the samples of one
    /// occupancy span are contiguous, so one scan folds each span's
    /// per-function `(first, last, count)` into a reused `SpanFold`
    /// and flushes it into a flat span list whenever the span ends; the
    /// flat list is then sorted and group-folded by `assemble_table`.
    ///
    /// In interval mode the scan is driven by the trace's item-run index
    /// instead of walking every row: it jumps from run to run, touches
    /// only the three columns it needs (`tsc`/`func`/`span`) and never
    /// reads unattributed gap samples. A span is one interval. Register
    /// mode walks the rows, because a span is a maximal run of one
    /// `(core, item)`, and a gap sample splits a run. Span sums are
    /// commutative, so the run ordering (by item, not by time) cannot
    /// change the table.
    pub fn from_soa_timed(soa: &SoaTrace) -> (Self, u64) {
        obs::span!("estimate.run", soa.cols.len());
        let t0 = obs::now_ticks();
        let mut flat: Vec<(ItemId, FuncId, u64, u64, u32)> = Vec::new();
        let mut fold = SpanFold::default();
        let mut unknown: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut samples_missing_span = 0u64;

        match soa.mode {
            MappingMode::Intervals => {
                for &(item, start, end) in &soa.item_index {
                    let (lo, hi) = (start as usize, end as usize);
                    let (Some(tscs), Some(funcs), Some(spans)) = (
                        soa.cols.tsc.get(lo..hi),
                        soa.cols.func.get(lo..hi),
                        soa.cols.span.get(lo..hi),
                    ) else {
                        continue;
                    };
                    let mut unknown_in_run = 0u32;
                    // NO_SPAN doubles as "no open span": sentinel-valued
                    // samples are skipped before the comparison, so a
                    // real span index can never collide with it.
                    let mut cur = NO_SPAN;
                    for ((&tsc, &func), &span_idx) in tscs.iter().zip(funcs).zip(spans) {
                        if func == NO_FUNC {
                            unknown_in_run += 1;
                            continue;
                        }
                        if span_idx == NO_SPAN {
                            samples_missing_span += 1;
                            continue;
                        }
                        if span_idx != cur {
                            fold.flush(item, &mut flat);
                            cur = span_idx;
                        }
                        fold.add(FuncId(func), tsc);
                    }
                    fold.flush(item, &mut flat);
                    if unknown_in_run > 0 {
                        *unknown.entry(item).or_insert(0) += unknown_in_run;
                    }
                }
            }
            MappingMode::RegisterTag => {
                // `(core, item)` of the current run; a change of either
                // (an unattributed gap sample included) ends the run.
                let mut run: Option<(u32, u64)> = None;
                let rows = soa
                    .cols
                    .core
                    .iter()
                    .zip(&soa.cols.tsc)
                    .zip(&soa.cols.item)
                    .zip(&soa.cols.func);
                for (((&core, &tsc), &item), &func) in rows {
                    if run != Some((core, item)) {
                        if let Some((_, run_item)) = run {
                            fold.flush(ItemId(run_item), &mut flat);
                        }
                        run = Some((core, item));
                    }
                    if item == NO_ITEM {
                        continue;
                    }
                    if func == NO_FUNC {
                        *unknown.entry(ItemId(item)).or_insert(0) += 1;
                        continue;
                    }
                    fold.add(FuncId(func), tsc);
                }
                if let Some((_, run_item)) = run {
                    fold.flush(ItemId(run_item), &mut flat);
                }
            }
        }

        let table = assemble_table(
            flat,
            unknown,
            samples_missing_span,
            &soa.intervals,
            soa.freq,
        );
        (table, obs::now_ticks().wrapping_sub(t0))
    }

    /// Estimate for `{item, func}`.
    pub fn get(&self, item: ItemId, func: FuncId) -> Option<&FuncEstimate> {
        self.items.get(&item).and_then(|ie| ie.func(func))
    }

    /// Everything about one item.
    pub fn item(&self, item: ItemId) -> Option<&ItemEstimate> {
        self.items.get(&item)
    }

    /// Iterate all items in id order.
    pub fn items(&self) -> impl Iterator<Item = &ItemEstimate> {
        self.items.values()
    }

    /// Consume the table, yielding item estimates in id order (lets
    /// [`crate::batch::split_batches_owned`] move pass-through items
    /// instead of cloning them).
    pub fn into_items(self) -> impl Iterator<Item = ItemEstimate> {
        self.items.into_values()
    }

    /// Number of items with any information.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Elapsed estimates of `func` across items that have ≥2 samples
    /// for it, in item order (convenience for the evaluation harness).
    pub fn series_for_func(&self, func: FuncId) -> Vec<(ItemId, SimDuration)> {
        self.items()
            .filter_map(|ie| {
                ie.func(func)
                    .filter(|fe| fe.is_estimable())
                    .map(|fe| (ie.item, fe.elapsed))
            })
            .collect()
    }
}

/// One occupancy span's per-function fold: `(func, first_tsc, last_tsc,
/// samples)`, kept ascending by `FuncId`. The crate's one span fold: the
/// columnar estimator and the streaming pairing core both fill it, and
/// the pairing core's divergence tie-break (lowest `FuncId` wins)
/// relies on the order. Spans touch few distinct functions, so a sorted
/// small vector beats any map.
#[derive(Debug, Default)]
pub(crate) struct SpanFold(Vec<(FuncId, u64, u64, u32)>);

impl SpanFold {
    /// Fold one sample of `func` at `tsc` into the span.
    pub(crate) fn add(&mut self, func: FuncId, tsc: u64) {
        match self.0.binary_search_by_key(&func, |e| e.0) {
            Ok(i) => {
                if let Some(e) = self.0.get_mut(i) {
                    e.1 = e.1.min(tsc);
                    e.2 = e.2.max(tsc);
                    e.3 += 1;
                }
            }
            Err(i) => self.0.insert(i, (func, tsc, tsc, 1)),
        }
    }

    /// The folded `(func, first, last, count)` entries, ascending by func.
    pub(crate) fn spans(&self) -> &[(FuncId, u64, u64, u32)] {
        &self.0
    }

    /// Empty the fold for the next span.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Move the fold into the flat span list under `item`, leaving it
    /// empty for the next span.
    fn flush(&mut self, item: ItemId, flat: &mut Vec<(ItemId, FuncId, u64, u64, u32)>) {
        flat.extend(
            self.0
                .drain(..)
                .map(|(func, first, last, count)| (item, func, first, last, count)),
        );
    }
}

/// The estimator's tail: sort the flat span list, fold per-(item, func),
/// backfill sample-less items from the exact marked totals, and record
/// the deterministic obs volumes.
///
/// `pub(crate)` for [`crate::window`]: the windowed integrator feeds its
/// per-window and cumulative span folds through this exact assembly so
/// window tables are structurally the same artifact as batch tables.
pub(crate) fn assemble_table(
    mut flat: Vec<(ItemId, FuncId, u64, u64, u32)>,
    unknown: BTreeMap<ItemId, u32>,
    samples_missing_span: u64,
    intervals: &[ItemInterval],
    freq: Freq,
) -> EstimateTable {
    // Fold spans into per-(item, func) estimates; convert cycles to
    // time once at the end so truncation does not accumulate per
    // span. Sorting the span list groups equal (item, func) pairs
    // and yields the ascending push order the table guarantees. From
    // here on every input is sorted by item, so the whole assembly is
    // merge joins over sorted lists — no tree lookups on the hot path;
    // the one `BTreeMap` left is built from the sorted result at the
    // API boundary.
    //
    // The run-driven interval scan emits spans already grouped by
    // ascending item, so item-sorted input only needs per-group sorts by
    // func — each a handful of elements. Time-order scans (register
    // mode, window folds) interleave items and take the full sort. Both end states are sorted by (item, func),
    // and every downstream fold over equal keys is commutative, so the
    // resulting table is identical whichever branch ran.
    if flat.is_sorted_by_key(|&(item, _, _, _, _)| item) {
        for group in flat.chunk_by_mut(|a, b| a.0 == b.0) {
            group.sort_unstable_by_key(|&(_, func, _, _, _)| func);
        }
    } else {
        flat.sort_unstable_by_key(|&(item, func, _, _, _)| (item, func));
    }

    // Exact totals from marks, coalesced into a sorted list.
    let mut raw_totals: Vec<(ItemId, u64)> =
        intervals.iter().map(|iv| (iv.item, iv.cycles())).collect();
    raw_totals.sort_unstable_by_key(|&(item, _)| item);
    let mut totals: Vec<(ItemId, u64)> = Vec::with_capacity(raw_totals.len());
    for &(item, cycles) in &raw_totals {
        match totals.last_mut() {
            Some((last_item, acc)) if *last_item == item => *acc += cycles,
            _ => totals.push((item, cycles)),
        }
    }

    // Items that have intervals but no attributable samples still
    // appear (with empty func lists) so totals stay queryable — the
    // merge join interleaves them in item order.
    let backfill = |item: ItemId, cycles: u64| {
        (
            item,
            ItemEstimate {
                item,
                marked_total: Some(freq.cycles_to_dur(cycles)),
                funcs: Vec::new(),
                unknown_func_samples: 0,
            },
        )
    };
    let mut items: Vec<(ItemId, ItemEstimate)> = Vec::with_capacity(totals.len());
    let mut totals_iter = totals.iter().peekable();
    for group in flat.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(item, ..)) = group.first() else {
            continue;
        };
        while let Some(&&(t_item, cycles)) = totals_iter.peek() {
            if t_item >= item {
                break;
            }
            items.push(backfill(t_item, cycles));
            totals_iter.next();
        }
        let marked_total = match totals_iter.peek() {
            Some(&&(t_item, cycles)) if t_item == item => {
                totals_iter.next();
                Some(freq.cycles_to_dur(cycles))
            }
            _ => None,
        };
        let mut funcs = Vec::with_capacity(group.chunk_by(|a, b| a.1 == b.1).count());
        for func_group in group.chunk_by(|a, b| a.1 == b.1) {
            let Some(&(_, func, ..)) = func_group.first() else {
                continue;
            };
            let mut samples = 0u32;
            let mut cycles = 0u64;
            for &(_, _, first_tsc, last_tsc, count) in func_group {
                samples += count;
                cycles += last_tsc.wrapping_sub(first_tsc);
            }
            funcs.push(FuncEstimate {
                item,
                func,
                samples,
                elapsed: freq.cycles_to_dur(cycles),
            });
        }
        items.push((
            item,
            ItemEstimate {
                item,
                marked_total,
                funcs,
                unknown_func_samples: 0,
            },
        ));
    }
    for &(t_item, cycles) in totals_iter {
        items.push(backfill(t_item, cycles));
    }

    // Unknown-function counts: merge join; counts for items absent from
    // the table (no span, no interval) are dropped, as before.
    let mut cursor = items.iter_mut().peekable();
    for (u_item, n) in unknown {
        while let Some((item, _)) = cursor.peek() {
            if *item < u_item {
                cursor.next();
            } else {
                break;
            }
        }
        if let Some((item, ie)) = cursor.peek_mut() {
            if *item == u_item {
                ie.unknown_func_samples = n;
                cursor.next();
            }
        }
    }

    // Self-observability: volumes and sim-cycle span widths only
    // (deterministic; estimator tick timings never enter the registry).
    if obs::recording() {
        obs::counter!("core.estimate.runs").inc();
        obs::counter!("core.estimate.spans").add(flat.len() as u64);
        obs::counter!("core.estimate.samples_missing_span").add(samples_missing_span);
        let span_cycles = obs::histogram!("core.estimate.span_cycles");
        for &(_, _, first_tsc, last_tsc, _) in &flat {
            span_cycles.record(last_tsc.wrapping_sub(first_tsc));
        }
    }

    EstimateTable {
        items: items.into_iter().collect(),
        freq,
        samples_missing_span,
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::integrate::integrate;
    use fluctrace_cpu::{
        encode_tag, CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTable,
        SymbolTableBuilder, TraceBundle, VirtAddr, NO_TAG,
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

    /// 3 GHz: 3000 cycles = 1 µs.
    fn freq() -> Freq {
        Freq::ghz(3)
    }

    #[test]
    fn first_to_last_sample_difference() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 1_000, ip, NO_TAG),
            sample(0, 2_500, ip, NO_TAG),
            sample(0, 4_000, ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 3);
        assert!(fe.is_estimable());
        // 3000 cycles at 3 GHz = 1 µs.
        assert_eq!(fe.elapsed, SimDuration::from_us(1));
        let ie = table.item(ItemId(1)).unwrap();
        assert_eq!(ie.marked_total, Some(freq().cycles_to_dur(10_000)));
        assert_eq!(ie.estimated_total(), SimDuration::from_us(1));
    }

    #[test]
    fn single_sample_gives_zero_elapsed_not_estimable() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 1000, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(0, 500, ip, NO_TAG)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 1);
        assert!(!fe.is_estimable());
        assert_eq!(fe.elapsed, SimDuration::ZERO);
        assert!(table.series_for_func(f).is_empty());
    }

    #[test]
    fn per_function_separation_within_item() {
        let (symtab, f, g) = setup();
        let f_ip = symtab.range(f).start;
        let g_ip = symtab.range(g).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 100_000, 1, MarkKind::End),
        ];
        // f: 0..30000 cycles; g: 40000..70000 cycles.
        bundle.samples = vec![
            sample(0, 10_000, f_ip, NO_TAG),
            sample(0, 40_000, g_ip, NO_TAG),
            sample(0, 25_000, f_ip, NO_TAG),
            sample(0, 70_000, g_ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(
            table.get(ItemId(1), f).unwrap().elapsed,
            freq().cycles_to_dur(15_000)
        );
        assert_eq!(
            table.get(ItemId(1), g).unwrap().elapsed,
            freq().cycles_to_dur(30_000)
        );
        let ie = table.item(ItemId(1)).unwrap();
        assert_eq!(ie.funcs.len(), 2);
    }

    #[test]
    fn preempted_item_sums_per_span_not_across_gap() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        // Item 1 runs in two slices: [0, 10k] and [50k, 60k]; item 2 in
        // between. Naive first→last would charge 59k cycles to item 1.
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
            mark(0, 10_000, 2, MarkKind::Start),
            mark(0, 50_000, 2, MarkKind::End),
            mark(0, 50_000, 1, MarkKind::Start),
            mark(0, 60_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 1_000, ip, NO_TAG),
            sample(0, 9_000, ip, NO_TAG),
            sample(0, 51_000, ip, NO_TAG),
            sample(0, 59_000, ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        // 8k + 8k cycles, not 58k.
        assert_eq!(fe.elapsed, freq().cycles_to_dur(16_000));
        assert_eq!(fe.samples, 4);
    }

    #[test]
    fn register_tag_mode_runs_sum_per_run() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        let t1 = encode_tag(ItemId(1));
        let t2 = encode_tag(ItemId(2));
        // Item 1 sampled in two runs separated by item 2.
        bundle.samples = vec![
            sample(0, 1_000, ip, t1),
            sample(0, 4_000, ip, t1),
            sample(0, 10_000, ip, t2),
            sample(0, 13_000, ip, t2),
            sample(0, 20_000, ip, t1),
            sample(0, 23_000, ip, t1),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::RegisterTag);
        let table = EstimateTable::from_integrated(&it);
        let fe1 = table.get(ItemId(1), f).unwrap();
        // (4k-1k) + (23k-20k) = 6k cycles = 2 µs.
        assert_eq!(fe1.elapsed, SimDuration::from_us(2));
        assert_eq!(fe1.samples, 4);
        // No marks → no exact total.
        assert_eq!(table.item(ItemId(1)).unwrap().marked_total, None);
    }

    #[test]
    fn item_without_samples_still_has_marked_total() {
        let (symtab, _, _) = setup();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 9, MarkKind::Start),
            mark(0, 3_000, 9, MarkKind::End),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let ie = table.item(ItemId(9)).unwrap();
        assert_eq!(ie.marked_total, Some(SimDuration::from_us(1)));
        assert!(ie.funcs.is_empty());
        assert_eq!(ie.estimated_total(), SimDuration::ZERO);
    }

    #[test]
    fn unknown_func_samples_counted() {
        let (symtab, _, _) = setup();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(0, 500, VirtAddr(0x10), NO_TAG)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(table.item(ItemId(1)).unwrap().unknown_func_samples, 1);
    }

    #[test]
    fn missing_interval_idx_is_skipped_and_counted_not_aliased() {
        use crate::integrate::AttributedSample;
        let (symtab, f, _) = setup();
        let _ = symtab;
        // Hand-built inconsistent trace: interval-mode samples carrying
        // an item but no interval index. The old estimator aliased these
        // onto span 0, bridging tsc 1_000 and 900_000 into one bogus
        // 299.67 µs estimate.
        let mk = |tsc: u64, idx: Option<u32>| AttributedSample {
            core: CoreId(0),
            tsc,
            item: Some(ItemId(1)),
            func: Some(f),
            interval_idx: idx,
        };
        let it = IntegratedTrace {
            samples: vec![
                mk(1_000, Some(0)),
                mk(4_000, Some(0)),
                mk(900_000, None), // inconsistent straggler
            ],
            intervals: vec![],
            errors: vec![],
            freq: freq(),
            mode: MappingMode::Intervals,
            item_index: vec![],
        };
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(table.samples_missing_span, 1);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 2, "straggler not counted");
        assert_eq!(fe.elapsed, SimDuration::from_us(1), "span not bridged");
    }

    #[test]
    fn series_for_func_orders_by_item() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        for (i, base) in [(2u64, 100_000u64), (1, 0)] {
            bundle.marks.push(mark(0, base, i, MarkKind::Start));
            bundle.marks.push(mark(0, base + 50_000, i, MarkKind::End));
            bundle.samples.push(sample(0, base + 1_000, ip, NO_TAG));
            bundle.samples.push(sample(0, base + 4_000, ip, NO_TAG));
        }
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let series = table.series_for_func(f);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, ItemId(1));
        assert_eq!(series[1].0, ItemId(2));
        assert_eq!(series[0].1, SimDuration::from_us(1));
    }
}
