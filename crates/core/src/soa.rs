//! The columnar attribution kernel: the one batch implementation of
//! §III.D's integration rule.
//!
//! A sample belongs to the item whose same-core mark interval contains
//! its timestamp (or whose `r13` tag it carries, §V.A), and to the
//! function whose symbol range contains its IP. At the sample rates the
//! paper targets (hundreds of thousands of samples per second of traced
//! execution, §IV.C.3) the analysis pipeline itself can become the
//! bottleneck, so the kernel works in columnar form:
//!
//! * one column per field (`core`/`tsc`/`item`/`func`/`span`), with
//!   sentinel values ([`NO_ITEM`], [`NO_FUNC`], [`NO_SPAN`]) instead of
//!   `Option` — ~28 bytes per sample, no discriminants, and each loop
//!   touches only the columns it needs;
//! * the `(core, tsc)`-sorted streams split into per-core shards, every
//!   shard runs on the worker pool (`FLUCTRACE_THREADS`, see
//!   [`crate::parallel`]) and writes straight into its disjoint chunk of
//!   the pre-allocated output columns — no per-shard `Vec` + splice;
//!   the result is bit-identical for every thread count;
//! * samples and intervals are co-walked with a merge cursor, and
//!   `FuncResolver` memoizes the last symbol hit, so the per-sample
//!   cost is linear and usually one range check.
//!
//! The row API ([`crate::integrate()`], [`SoaTrace::to_integrated`]) is a
//! transpose of these columns. Correctness is anchored two ways: the
//! conformance suite's brute-force oracles (interval and register-tag
//! mode, 240-seed differential sweep) must match
//! [`crate::EstimateTable::from_soa`] byte for byte, and the `perf-hunt`
//! gate bounds the kernel's cost against a plain scan of its input so it
//! cannot silently regress.
//!
//! ## Sentinel safety
//!
//! `NO_ITEM` is `u64::MAX`. Register-tag decoding can never produce it
//! (`decode_tag` yields `r13 − 1` with `r13 ≠ 0`). In interval mode an
//! attributed sample always carries its interval index in `span`, so a
//! sample counts as attributed when `item != NO_ITEM || span != NO_SPAN`:
//! an interval claiming the reserved id (possible only from a
//! hand-built mark stream) stays attributable. `NO_FUNC`/`NO_SPAN` are
//! `u32::MAX`; both would require ~4 billion functions or intervals, a
//! ceiling the row form shares (`interval_idx` is `u32` there too).

use crate::integrate::{AttributedSample, IntegratedTrace, MappingMode, PipelineStats};
use crate::interval::{build_intervals, IntervalError, ItemInterval};
use crate::parallel;
use fluctrace_cpu::{
    AddrRange, CoreId, FuncId, ItemId, MarkRecord, PebsRecord, SymbolTable, TraceBundle, VirtAddr,
    NO_TAG,
};
use fluctrace_obs as obs;
use fluctrace_sim::Freq;

/// Sentinel in the `item` column: sample outside every interval / tag.
pub const NO_ITEM: u64 = u64::MAX;
/// Sentinel in the `func` column: IP outside every known function.
pub const NO_FUNC: u32 = u32::MAX;
/// Sentinel in the `span` column: no interval index (gap sample, or
/// register-tag mode where spans are run ids computed by the estimator).
pub const NO_SPAN: u32 = u32::MAX;

/// IP → function resolution with a last-hit memo. Consecutive samples
/// usually land in the same function, so the common case is one range
/// check instead of the symbol table's binary search; a miss (including
/// an IP outside every function) leaves the memo as it was. The crate's
/// one resolver: the batch kernel and the streaming pairing core both
/// resolve through it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FuncResolver(Option<(FuncId, AddrRange)>);

impl FuncResolver {
    /// The function whose range contains `ip`, if any.
    pub(crate) fn resolve(&mut self, symtab: &SymbolTable, ip: VirtAddr) -> Option<FuncId> {
        match self.0 {
            Some((func, range)) if range.contains(ip) => Some(func),
            _ => {
                let func = symtab.resolve(ip)?;
                self.0 = Some((func, symtab.range(func)));
                Some(func)
            }
        }
    }
}

/// The attributed sample columns. All vectors have equal length; row
/// `i` of every column describes the same sample, in `(core, tsc)`
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleColumns {
    /// Core the sample was taken on.
    pub core: Vec<u32>,
    /// TSC timestamp.
    pub tsc: Vec<u64>,
    /// Attributed item id, or [`NO_ITEM`].
    pub item: Vec<u64>,
    /// Resolved function id, or [`NO_FUNC`].
    pub func: Vec<u32>,
    /// Global interval index (interval mode), or [`NO_SPAN`].
    pub span: Vec<u32>,
}

impl SampleColumns {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.tsc.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.tsc.is_empty()
    }

    /// Zero-filled columns of length `n`, ready for chunked writes.
    fn zeroed(n: usize) -> Self {
        SampleColumns {
            core: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            tsc: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            item: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            func: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            span: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
        }
    }

    /// True when a row holding `item` and `span` is attributed to an
    /// item (the module's sentinel rule).
    fn attributed(item: u64, span: u32) -> bool {
        item != NO_ITEM || span != NO_SPAN
    }
}

/// The columnar integrated trace: what [`IntegratedTrace`] holds, with
/// the sample rows transposed into [`SampleColumns`].
#[derive(Debug, Clone, PartialEq)]
pub struct SoaTrace {
    /// Attributed sample columns, in `(core, tsc)` order.
    pub cols: SampleColumns,
    /// Item intervals reconstructed from marks, in `(core, start)` order.
    pub intervals: Vec<ItemInterval>,
    /// Mark-pairing problems encountered.
    pub errors: Vec<IntervalError>,
    /// TSC frequency, for converting cycle differences to time.
    pub freq: Freq,
    /// The mapping mode used.
    pub mode: MappingMode,
    /// Per-item `(item, start, end)` half-open sample ranges: maximal
    /// same-item runs, sorted by `(item, start)`.
    pub(crate) item_index: Vec<(ItemId, u32, u32)>,
}

/// Integrate a trace bundle against a symbol table into columns.
///
/// `bundle` must be sorted (see [`TraceBundle::sort`]); `freq` is the
/// TSC frequency of the traced machine. Pool size from
/// `FLUCTRACE_THREADS`, sequential for tiny bundles.
pub fn integrate_soa(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> SoaTrace {
    integrate_soa_timed(bundle, symtab, freq, mode).0
}

/// [`integrate_soa`] plus the run's [`PipelineStats`]. The stats hold
/// clock ticks that vary run to run, so they travel beside the trace —
/// the same shape as [`crate::EstimateTable::from_soa_timed`].
pub fn integrate_soa_timed(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> (SoaTrace, PipelineStats) {
    soa_timed(bundle, symtab, freq, mode, auto_threads(bundle))
}

/// [`integrate_soa`] with an explicit worker count, honoured even for
/// tiny bundles (`threads = 1` is the sequential reference; results are
/// identical for every pool size).
pub fn integrate_soa_with_threads(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> SoaTrace {
    soa_timed(bundle, symtab, freq, mode, threads).0
}

/// Below this many samples the shard fan-out is pure overhead; run
/// sequentially (same results by construction).
const PARALLEL_MIN_SAMPLES: usize = 4096;

/// Worker count for the auto-sized entry points: sequential below
/// [`PARALLEL_MIN_SAMPLES`], else the `FLUCTRACE_THREADS` pool size.
fn auto_threads(bundle: &TraceBundle) -> usize {
    if bundle.samples.len() < PARALLEL_MIN_SAMPLES {
        1
    } else {
        parallel::configured_threads()
    }
}

/// One core's sub-slices of the sorted streams.
struct Shard<'a> {
    marks: &'a [MarkRecord],
    samples: &'a [PebsRecord],
}

/// Split the `(core, tsc)`-sorted streams into per-core shards covering
/// the union of cores present in either stream, in ascending core order.
/// The paper's mapping is strictly per-core, so shards are independent.
fn shard_by_core<'a>(marks: &'a [MarkRecord], samples: &'a [PebsRecord]) -> Vec<Shard<'a>> {
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

fn soa_timed(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> (SoaTrace, PipelineStats) {
    let threads = threads.max(1);
    obs::span!("soa.integrate.run", threads);

    // Phase 1 — per-core interval reconstruction, spliced in core order:
    // concatenated per-core results equal one sequential walk
    // (build_intervals truncates open intervals at core boundaries).
    let t0 = obs::now_ticks();
    let shards = shard_by_core(&bundle.marks, &bundle.samples);
    let built: Vec<(Vec<ItemInterval>, Vec<IntervalError>)> = parallel::run_indexed(
        shards.iter().map(|sh| sh.marks).collect(),
        threads,
        |shard_idx, marks| {
            obs::span!("soa.integrate.shard", shard_idx);
            build_intervals(marks)
        },
    );
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

    // Interval bound columns for the branch-light sweep.
    let mut iv_start: Vec<u64> = Vec::with_capacity(intervals.len());
    let mut iv_end: Vec<u64> = Vec::with_capacity(intervals.len());
    let mut iv_item: Vec<u64> = Vec::with_capacity(intervals.len());
    for iv in &intervals {
        iv_start.push(iv.start_tsc);
        iv_end.push(iv.end_tsc);
        iv_item.push(iv.item.0);
    }

    // Phase 2 — attribution straight into pre-allocated columns. Each
    // shard's chunk is a disjoint split of the output, so workers write
    // their final bytes with no copy or splice afterwards.
    let t1 = obs::now_ticks();
    let n = bundle.samples.len();
    let mut cols = SampleColumns::zeroed(n);
    let tasks = chunk_tasks(
        &shards,
        &shard_bounds,
        &iv_start,
        &iv_end,
        &iv_item,
        &mut cols,
    );
    parallel::run_parts(tasks, threads, |shard_idx, task| {
        obs::span!("soa.integrate.attribute", shard_idx);
        attribute_columns(task, symtab, mode);
    });
    let item_index = build_item_index(&cols);
    let attribution_ns = obs::now_ticks().wrapping_sub(t1);

    // Self-observability: deterministic volumes and sim-cycle
    // distributions only (never the tick timings above), so obs
    // snapshots stay byte-identical across runs and thread counts.
    if obs::recording() {
        obs::counter!("core.integrate.runs").inc();
        obs::counter!("core.integrate.samples").add(n as u64);
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
        obs::counter!("core.soa.runs").inc();
        obs::counter!("core.soa.samples").add(n as u64);
    }

    let stats = PipelineStats {
        interval_build_ns,
        attribution_ns,
        estimate_ns: 0,
        samples: n as u64,
        intervals: intervals.len() as u64,
        threads: threads as u64,
    };
    let trace = SoaTrace {
        cols,
        intervals,
        errors,
        freq,
        mode,
        item_index,
    };
    (trace, stats)
}

/// One shard's borrowed inputs plus its disjoint output chunk.
struct AttrTask<'a> {
    samples: &'a [PebsRecord],
    iv_start: &'a [u64],
    iv_end: &'a [u64],
    iv_item: &'a [u64],
    base: u32,
    out_core: &'a mut [u32],
    out_tsc: &'a mut [u64],
    out_item: &'a mut [u64],
    out_func: &'a mut [u32],
    out_span: &'a mut [u32],
}

/// Split the output columns into per-shard chunks. The shards partition
/// the sample array in order, so `split_at_mut` walks cleanly through
/// each column; the per-shard interval sub-slices come from
/// `shard_bounds`.
fn chunk_tasks<'a>(
    shards: &[Shard<'a>],
    shard_bounds: &[(usize, usize)],
    iv_start: &'a [u64],
    iv_end: &'a [u64],
    iv_item: &'a [u64],
    cols: &'a mut SampleColumns,
) -> Vec<AttrTask<'a>> {
    let mut rest_core = cols.core.as_mut_slice();
    let mut rest_tsc = cols.tsc.as_mut_slice();
    let mut rest_item = cols.item.as_mut_slice();
    let mut rest_func = cols.func.as_mut_slice();
    let mut rest_span = cols.span.as_mut_slice();
    let mut tasks = Vec::with_capacity(shards.len());
    for (shard_idx, sh) in shards.iter().enumerate() {
        let len = sh.samples.len().min(rest_tsc.len());
        let (out_core, rc) = rest_core.split_at_mut(len);
        let (out_tsc, rt) = rest_tsc.split_at_mut(len);
        let (out_item, ri) = rest_item.split_at_mut(len);
        let (out_func, rf) = rest_func.split_at_mut(len);
        let (out_span, rs) = rest_span.split_at_mut(len);
        rest_core = rc;
        rest_tsc = rt;
        rest_item = ri;
        rest_func = rf;
        rest_span = rs;
        let (base, ivs) = shard_bounds.get(shard_idx).copied().unwrap_or((0, 0));
        tasks.push(AttrTask {
            samples: sh.samples,
            iv_start: iv_start.get(base..base + ivs).unwrap_or_default(),
            iv_end: iv_end.get(base..base + ivs).unwrap_or_default(),
            iv_item: iv_item.get(base..base + ivs).unwrap_or_default(),
            base: base as u32,
            out_core,
            out_tsc,
            out_item,
            out_func,
            out_span,
        });
    }
    tasks
}

/// Attribute one shard's samples into its output chunk.
///
/// Both streams are time-sorted, so instead of a binary search per
/// sample the cursor tracks "how many intervals start at or before this
/// timestamp", advanced incrementally; the candidate is the
/// latest-starting interval, matching
/// [`crate::interval::find_interval_idx`] sample for sample.
fn attribute_columns(task: AttrTask<'_>, symtab: &SymbolTable, mode: MappingMode) {
    let AttrTask {
        samples,
        iv_start,
        iv_end,
        iv_item,
        base,
        out_core,
        out_tsc,
        out_item,
        out_func,
        out_span,
    } = task;
    let mut started = 0usize; // intervals with start_tsc <= current tsc
    let mut resolver = FuncResolver::default();
    let rows = samples
        .iter()
        .zip(out_core.iter_mut())
        .zip(out_tsc.iter_mut())
        .zip(out_item.iter_mut())
        .zip(out_func.iter_mut())
        .zip(out_span.iter_mut());
    for (((((s, core), tsc), item), func), span) in rows {
        *core = s.core.0;
        *tsc = s.tsc;
        let (it, sp) = match mode {
            MappingMode::Intervals => {
                while iv_start.get(started).is_some_and(|&st| st <= s.tsc) {
                    started += 1;
                }
                // Candidate = latest-starting interval; `started == 0`
                // wraps to usize::MAX and both `get`s miss.
                let cand = started.wrapping_sub(1);
                match (iv_item.get(cand), iv_end.get(cand)) {
                    (Some(&iv_it), Some(&end)) if s.tsc <= end => {
                        (iv_it, base.wrapping_add(cand as u32))
                    }
                    _ => (NO_ITEM, NO_SPAN),
                }
            }
            MappingMode::RegisterTag => {
                if s.r13 == NO_TAG {
                    (NO_ITEM, NO_SPAN)
                } else {
                    // decode_tag's `ItemId(r13 - 1)` in sentinel form;
                    // r13 ≠ 0 here, so this cannot yield NO_ITEM.
                    (s.r13.wrapping_sub(1), NO_SPAN)
                }
            }
        };
        *item = it;
        *span = sp;
        *func = resolver.resolve(symtab, s.ip).map_or(NO_FUNC, |f| f.0);
    }
}

/// Maximal same-item runs over the attributed rows, sorted by
/// `(item, start)`.
fn build_item_index(cols: &SampleColumns) -> Vec<(ItemId, u32, u32)> {
    let mut runs: Vec<(ItemId, u32, u32)> = Vec::new();
    for (i, (&raw, &span)) in cols.item.iter().zip(&cols.span).enumerate() {
        if !SampleColumns::attributed(raw, span) {
            continue;
        }
        let item = ItemId(raw);
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

impl SoaTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Fraction of samples attributed to some item (as in
    /// [`IntegratedTrace::attribution_ratio`]).
    pub fn attribution_ratio(&self) -> f64 {
        if self.cols.is_empty() {
            return 0.0;
        }
        let attributed: usize = self
            .item_index
            .iter()
            .map(|&(_, start, end)| (end - start) as usize)
            .sum();
        attributed as f64 / self.cols.len() as f64
    }

    /// Transpose into the row form [`IntegratedTrace`] (what
    /// [`crate::integrate()`] returns).
    pub fn to_integrated(&self) -> IntegratedTrace {
        let rows = self
            .cols
            .core
            .iter()
            .zip(&self.cols.tsc)
            .zip(&self.cols.item)
            .zip(&self.cols.func)
            .zip(&self.cols.span);
        let samples: Vec<AttributedSample> = rows
            .map(
                |((((&core, &tsc), &item), &func), &span)| AttributedSample {
                    core: CoreId(core),
                    tsc,
                    item: SampleColumns::attributed(item, span).then_some(ItemId(item)),
                    func: (func != NO_FUNC).then_some(FuncId(func)),
                    interval_idx: (span != NO_SPAN).then_some(span),
                },
            )
            .collect();
        IntegratedTrace {
            samples,
            intervals: self.intervals.clone(),
            errors: self.errors.clone(),
            freq: self.freq,
            mode: self.mode,
            item_index: self.item_index.clone(),
        }
    }

    /// Transpose a row trace into columns (sentinel encoding), rebuilding
    /// the item index from the rows. Lets row-built traces reach the
    /// columnar estimator ([`crate::EstimateTable::from_integrated`]).
    pub fn from_integrated(it: &IntegratedTrace) -> SoaTrace {
        let n = it.samples.len();
        let mut cols = SampleColumns {
            core: Vec::with_capacity(n),
            tsc: Vec::with_capacity(n),
            item: Vec::with_capacity(n),
            func: Vec::with_capacity(n),
            span: Vec::with_capacity(n),
        };
        for s in &it.samples {
            cols.core.push(s.core.0);
            cols.tsc.push(s.tsc);
            cols.item.push(s.item.map_or(NO_ITEM, |i| i.0));
            cols.func.push(s.func.map_or(NO_FUNC, |f| f.0));
            cols.span.push(s.interval_idx.unwrap_or(NO_SPAN));
        }
        let item_index = build_item_index(&cols);
        SoaTrace {
            cols,
            intervals: it.intervals.clone(),
            errors: it.errors.clone(),
            freq: it.freq,
            mode: it.mode,
            item_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::integrate;
    use fluctrace_cpu::{encode_tag, HwEvent, MarkKind, MarkRecord, SymbolTableBuilder, VirtAddr};

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

    /// A messy multi-core bundle: preemption, unknown IPs, gap samples.
    fn messy_bundle(symtab: &SymbolTable, f: FuncId, g: FuncId) -> TraceBundle {
        let ips = [symtab.range(f).start, symtab.range(g).start, VirtAddr(0x2)];
        let mut bundle = TraceBundle::default();
        let mut item = 0u64;
        for core in 0..4u32 {
            let mut tsc = 31u64 * core as u64;
            for rep in 0..25u64 {
                bundle
                    .marks
                    .push(mark(core, tsc, item % 7, MarkKind::Start));
                for k in 0..(rep % 5) {
                    let ip = ips[(rep + k) as usize % 3];
                    let tag = encode_tag(ItemId(item % 7));
                    bundle.samples.push(sample(core, tsc + 1 + k * 13, ip, tag));
                }
                tsc += 80;
                bundle.marks.push(mark(core, tsc, item % 7, MarkKind::End));
                bundle.samples.push(sample(core, tsc + 3, ips[0], NO_TAG));
                tsc += 10;
                item += 1;
            }
        }
        bundle.sort();
        bundle
    }

    #[test]
    fn row_transpose_roundtrips_both_modes() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
            let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), mode);
            let rows = soa.to_integrated();
            assert_eq!(rows, integrate(&bundle, &symtab, Freq::ghz(3), mode));
            assert_eq!(rows.attribution_ratio(), soa.attribution_ratio());
            assert_eq!(SoaTrace::from_integrated(&rows), soa, "mode {mode:?}");
        }
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        let reference =
            integrate_soa_with_threads(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals, 1);
        for threads in [2, 3, 8] {
            let soa = integrate_soa_with_threads(
                &bundle,
                &symtab,
                Freq::ghz(3),
                MappingMode::Intervals,
                threads,
            );
            assert_eq!(soa.cols, reference.cols, "threads={threads}");
            assert_eq!(soa.intervals, reference.intervals);
            assert_eq!(soa.errors, reference.errors);
            assert_eq!(soa.item_index, reference.item_index);
        }
    }

    #[test]
    fn sentinels_appear_for_gap_and_unknown_samples() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, 1, MarkKind::Start),
                mark(0, 200, 1, MarkKind::End),
            ],
            samples: vec![
                sample(0, 50, ip, NO_TAG),             // before the interval
                sample(0, 150, ip, NO_TAG),            // inside
                sample(0, 160, VirtAddr(0x1), NO_TAG), // inside, unknown IP
                sample(0, 250, ip, NO_TAG),            // after
            ],
        };
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(soa.cols.item, vec![NO_ITEM, 1, 1, NO_ITEM]);
        assert_eq!(soa.cols.span, vec![NO_SPAN, 0, 0, NO_SPAN]);
        assert_eq!(soa.cols.func, vec![f.0, f.0, NO_FUNC, f.0]);
        assert_eq!(soa.len(), 4);
        assert!(!soa.is_empty());
    }

    #[test]
    fn reserved_item_id_stays_attributable() {
        // A hand-built mark stream can claim item u64::MAX, which
        // collides with the NO_ITEM sentinel; the span column still
        // marks the sample as attributed, so nothing is lost.
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, u64::MAX, MarkKind::Start),
                mark(0, 200, u64::MAX, MarkKind::End),
            ],
            samples: vec![sample(0, 150, ip, NO_TAG)],
        };
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let aos = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(soa.to_integrated().samples, aos.samples);
        assert_eq!(
            aos.samples[0].item,
            Some(ItemId(u64::MAX)),
            "the reserved id stays attributable"
        );
        let table = crate::EstimateTable::from_soa(&soa);
        assert_eq!(table.get(ItemId(u64::MAX), f).map(|fe| fe.samples), Some(1));
    }

    #[test]
    fn memoized_resolve_matches_a_linear_scan() {
        // Long same-function runs (memo hits) mixed with padding-gap IPs
        // (memo misses that must not poison later hits).
        let mut b = SymbolTableBuilder::new();
        let ids: Vec<FuncId> = (0..16).map(|i| b.add(&format!("fn{i}"), 100)).collect();
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        let mut tsc = 0u64;
        for (k, &id) in ids.iter().enumerate() {
            for off in 0..5u64 {
                bundle
                    .samples
                    .push(sample(0, tsc, symtab.range(id).start.offset(off), NO_TAG));
                tsc += 3;
            }
            // Padding byte just past the function body (unless it abuts
            // the next one — sizes are 100, padded to 112).
            let _ = k;
            bundle
                .samples
                .push(sample(0, tsc, symtab.range(id).start.offset(105), NO_TAG));
            tsc += 3;
        }
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        for (i, (&func, s)) in soa.cols.func.iter().zip(&bundle.samples).enumerate() {
            let want = symtab
                .iter()
                .find(|(_, sym)| sym.range.contains(s.ip))
                .map_or(NO_FUNC, |(id, _)| id.0);
            assert_eq!(func, want, "row {i}");
        }
    }

    #[test]
    fn stats_count_samples_and_intervals() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, 1, MarkKind::Start),
                mark(0, 200, 1, MarkKind::End),
            ],
            samples: vec![sample(0, 150, ip, NO_TAG)],
        };
        bundle.sort();
        let (_, stats) =
            integrate_soa_timed(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.intervals, 1);
        assert_eq!(stats.threads, 1, "tiny bundles stay sequential");
        assert_eq!(stats.estimate_ns, 0);
    }

    #[test]
    fn empty_bundle_is_empty_trace() {
        let (symtab, _, _) = setup();
        let soa = integrate_soa(
            &TraceBundle::default(),
            &symtab,
            Freq::ghz(3),
            MappingMode::Intervals,
        );
        assert!(soa.is_empty());
        assert_eq!(soa.attribution_ratio(), 0.0);
        assert!(soa.to_integrated().samples.is_empty());
    }
}
