//! The naive reference implementations ("oracles").
//!
//! Everything here favours obviousness over speed: attribution is a
//! brute-force scan over all intervals per sample (or a plain `r13`
//! decode in register-tag mode), estimates are built with one `BTreeMap`
//! insert per observation, and the online replay is a literal
//! transcription of the documented per-core state machine.
//! The oracles share **no code** with `fluctrace-core` beyond the plain
//! data types (`MarkRecord`, `PebsRecord`, `SymbolTable`, `Freq`), so a
//! bug in the real pipeline's sharding, merge cursors, span folding or
//! channel plumbing cannot cancel out here.
//!
//! ## Canonical event order
//!
//! Both pipelines process records in the order `TraceBundle::sort`
//! establishes: samples by `(core, tsc)`, marks by `(core, tsc)` with
//! `End` before `Start` on ties, and — when marks and samples collide on
//! one `(core, tsc)` — samples before a coincident `End` (the sample
//! still belongs to the closing item) but after a coincident `Start`
//! (the sample belongs to the opening item). The oracles re-derive that
//! order with plain stable sorts and a two-cursor walk, then apply the
//! dumbest data structures that can express the semantics.

use fluctrace_cpu::{
    CoreId, FuncId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, NO_TAG,
};
use fluctrace_sim::Freq;
use std::collections::BTreeMap;

/// One mark interval reconstructed by the oracle's dumb pairing walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleInterval {
    /// Core the interval was on.
    pub core: CoreId,
    /// The item that occupied it.
    pub item: ItemId,
    /// Start mark timestamp (inclusive bound).
    pub start: u64,
    /// End mark timestamp (inclusive bound).
    pub end: u64,
}

/// Mark-pairing error counts, by kind. The oracle only *counts* errors
/// (the differential driver compares totals, not payloads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleErrors {
    /// `End` marks with no open interval.
    pub orphan_ends: u64,
    /// `Start` marks that abandoned a still-open interval.
    pub unclosed_starts: u64,
    /// `End` marks whose item did not match the open interval.
    pub mismatched: u64,
    /// Intervals still open when their core's stream ended.
    pub truncated: u64,
}

/// Brute-force offline attribution of a whole bundle.
#[derive(Debug, Clone, Default)]
pub struct OracleOffline {
    /// Canonical per-item estimate rows (see [`OracleItemRow`]).
    pub items: Vec<OracleItemRow>,
    /// Samples attributed to some interval.
    pub attributed: u64,
    /// Samples inside no interval (inter-item spin).
    pub unattributed: u64,
    /// Mark-pairing error tallies.
    pub errors: OracleErrors,
    /// Intervals reconstructed, in pairing order.
    pub intervals: Vec<OracleInterval>,
}

/// The oracle's estimate for one item, mirroring the information content
/// of `fluctrace_core::ItemEstimate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleItemRow {
    /// The item.
    pub item: u64,
    /// Exact marked total over the item's intervals, in picoseconds.
    pub marked_total_ps: Option<u64>,
    /// Per-function `(func, samples, elapsed_ps)`, ascending by func.
    pub funcs: Vec<(u32, u32, u64)>,
    /// Attributed samples whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

/// Sort marks/samples into the canonical order documented on
/// `TraceBundle::sort`, without calling it.
fn canonical_sort(marks: &mut [MarkRecord], samples: &mut [PebsRecord]) {
    samples.sort_by_key(|a| (a.core, a.tsc));
    marks.sort_by(|a, b| {
        let ka = (a.core, a.tsc, matches!(a.kind, MarkKind::Start) as u8);
        let kb = (b.core, b.tsc, matches!(b.kind, MarkKind::Start) as u8);
        ka.cmp(&kb)
    });
}

/// Pair marks into intervals with the dumbest possible per-core walk:
/// one open slot per core, every malformed transition counted.
fn pair_marks(marks: &[MarkRecord]) -> (Vec<OracleInterval>, OracleErrors) {
    let mut intervals = Vec::new();
    let mut errors = OracleErrors::default();
    let mut open: Option<(CoreId, ItemId, u64)> = None;
    let mut current_core: Option<CoreId> = None;
    for m in marks {
        if current_core != Some(m.core) {
            if open.take().is_some() {
                errors.truncated += 1;
            }
            current_core = Some(m.core);
        }
        match m.kind {
            MarkKind::Start => {
                if open.is_some() {
                    errors.unclosed_starts += 1;
                }
                open = Some((m.core, m.item, m.tsc));
            }
            MarkKind::End => match open.take() {
                Some((core, item, start)) if item == m.item => {
                    intervals.push(OracleInterval {
                        core,
                        item,
                        start,
                        end: m.tsc,
                    });
                }
                Some(_) => errors.mismatched += 1,
                None => errors.orphan_ends += 1,
            },
        }
    }
    if open.is_some() {
        errors.truncated += 1;
    }
    (intervals, errors)
}

/// Attribute one sample by brute force: scan *every* interval and keep
/// the last one (in pairing order) on the sample's core whose inclusive
/// `[start, end]` bounds contain the timestamp. "Last wins" encodes the
/// boundary rule: a sample at a coincident `end == next start` tick
/// belongs to the *later* (opening) interval, matching the online
/// tie-break where a `Start` opens before a coincident sample.
fn locate(intervals: &[OracleInterval], s: &PebsRecord) -> Option<usize> {
    let mut found = None;
    for (idx, iv) in intervals.iter().enumerate() {
        if iv.core == s.core && iv.start <= s.tsc && s.tsc <= iv.end {
            found = Some(idx);
        }
    }
    found
}

/// Run the brute-force offline oracle: pair marks, attribute every
/// sample by linear scan, and fold `(item, func)` estimates exactly as
/// the paper specifies — per occupancy span, first→last timestamp
/// difference, summed in cycles, converted to time once.
pub fn offline_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
) -> OracleOffline {
    let mut marks = marks.to_vec();
    let mut samples = samples.to_vec();
    canonical_sort(&mut marks, &mut samples);
    let (intervals, errors) = pair_marks(&marks);

    // (item, interval index, func) -> (first, last, count). The interval
    // index keys the occupancy span so preempted/duplicate items never
    // bridge timestamps across spans.
    let mut spans: SpanMap = BTreeMap::new();
    let mut unknown: BTreeMap<u64, u32> = BTreeMap::new();
    let mut attributed = 0u64;
    let mut unattributed = 0u64;
    for s in &samples {
        let Some(idx) = locate(&intervals, s) else {
            unattributed += 1;
            continue;
        };
        attributed += 1;
        let Some(iv) = intervals.get(idx) else {
            continue; // unreachable: locate returned a valid index
        };
        observe(&mut spans, &mut unknown, symtab, iv.item.0, idx as u64, s);
    }

    OracleOffline {
        items: fold_rows(&spans, &unknown, &intervals, freq),
        attributed,
        unattributed,
        errors,
        intervals,
    }
}

/// `(item, span id, func) -> (first, last, count)`: one entry per
/// occupancy span and function.
type SpanMap = BTreeMap<(u64, u64, u32), (u64, u64, u32)>;

/// Record one attributed sample: one `BTreeMap` insert per observation,
/// or one unknown-function count when the IP resolves nowhere.
fn observe(
    spans: &mut SpanMap,
    unknown: &mut BTreeMap<u64, u32>,
    symtab: &SymbolTable,
    item: u64,
    span: u64,
    s: &PebsRecord,
) {
    match symtab.resolve(s.ip) {
        Some(func) => {
            let e = spans
                .entry((item, span, func.0))
                .or_insert((s.tsc, s.tsc, 0));
            e.0 = e.0.min(s.tsc);
            e.1 = e.1.max(s.tsc);
            e.2 += 1;
        }
        None => *unknown.entry(item).or_insert(0) += 1,
    }
}

/// Fold spans into canonical item rows exactly as the paper specifies —
/// per occupancy span, first→last timestamp difference, summed in
/// cycles, converted to time once — with exact marked totals from the
/// intervals.
fn fold_rows(
    spans: &SpanMap,
    unknown: &BTreeMap<u64, u32>,
    intervals: &[OracleInterval],
    freq: Freq,
) -> Vec<OracleItemRow> {
    // Exact totals from the marks.
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for iv in intervals {
        *totals.entry(iv.item.0).or_insert(0) += iv.end.wrapping_sub(iv.start);
    }

    // Sum spans per (item, func) in cycles; convert once.
    let mut cycle_sums: BTreeMap<(u64, u32), (u32, u64)> = BTreeMap::new();
    for (&(item, _span, func), &(first, last, count)) in spans {
        let e = cycle_sums.entry((item, func)).or_insert((0, 0));
        e.0 += count;
        e.1 += last.wrapping_sub(first);
    }

    let mut items: BTreeMap<u64, OracleItemRow> = BTreeMap::new();
    for (&(item, func), &(count, cycles)) in &cycle_sums {
        items
            .entry(item)
            .or_insert_with(|| OracleItemRow {
                item,
                marked_total_ps: totals.get(&item).map(|&c| freq.cycles_to_dur(c).as_ps()),
                funcs: Vec::new(),
                unknown_func_samples: 0,
            })
            .funcs
            .push((func, count, freq.cycles_to_dur(cycles).as_ps()));
    }
    // Items with intervals but no attributable samples still appear.
    for (&item, &cycles) in &totals {
        items.entry(item).or_insert_with(|| OracleItemRow {
            item,
            marked_total_ps: Some(freq.cycles_to_dur(cycles).as_ps()),
            funcs: Vec::new(),
            unknown_func_samples: 0,
        });
    }
    for (&item, &n) in unknown {
        if let Some(row) = items.get_mut(&item) {
            row.unknown_func_samples = n;
        }
    }
    items.into_values().collect()
}

/// Re-tag samples the way an `r13`-tagging target (§V.A) would have:
/// each sample carries the tag of the item whose interval contains it
/// (brute-force [`locate`]), and `NO_TAG` in the gaps. Tags follow the
/// documented `r13 = item + 1` convention, so `0` stays "no item".
pub fn tag_samples(intervals: &[OracleInterval], samples: &[PebsRecord]) -> Vec<PebsRecord> {
    samples
        .iter()
        .map(|s| {
            let r13 = match locate(intervals, s).and_then(|idx| intervals.get(idx)) {
                Some(iv) => iv.item.0 + 1,
                None => NO_TAG,
            };
            PebsRecord { r13, ..*s }
        })
        .collect()
}

/// Brute-force register-tag oracle: every sample belongs to the item its
/// `r13` tag names (`r13 − 1`; `NO_TAG` means none), whatever the marks
/// say. An occupancy span is a run of consecutive samples (in canonical
/// order) sharing one `(core, tag)`, so a gap sample also ends a run.
/// Marked totals still come from the paired marks.
pub fn tag_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
) -> OracleOffline {
    let mut marks = marks.to_vec();
    let mut samples = samples.to_vec();
    canonical_sort(&mut marks, &mut samples);
    let (intervals, errors) = pair_marks(&marks);

    let mut spans: SpanMap = BTreeMap::new();
    let mut unknown: BTreeMap<u64, u32> = BTreeMap::new();
    let mut attributed = 0u64;
    let mut unattributed = 0u64;
    let mut run = 0u64;
    let mut prev: Option<(CoreId, u64)> = None;
    for s in &samples {
        if prev != Some((s.core, s.r13)) {
            run += 1;
            prev = Some((s.core, s.r13));
        }
        if s.r13 == NO_TAG {
            unattributed += 1;
            continue;
        }
        attributed += 1;
        observe(
            &mut spans,
            &mut unknown,
            symtab,
            s.r13.wrapping_sub(1),
            run,
            s,
        );
    }

    OracleOffline {
        items: fold_rows(&spans, &unknown, &intervals, freq),
        attributed,
        unattributed,
        errors,
        intervals,
    }
}

/// Loss tallies predicted for the online tracer, one field per
/// `fluctrace_core::LossStats` bucket the blocking-submit path can hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleLoss {
    /// Oldest pending samples evicted by the `max_pending` bound.
    pub samples_evicted: u64,
    /// Pending samples discarded with an item that could not complete.
    pub samples_discarded: u64,
    /// Samples cleared as inter-item spin.
    pub samples_spin: u64,
    /// `End` marks with no open item.
    pub marks_orphaned: u64,
    /// `End` marks whose item did not match the open one.
    pub marks_mismatched: u64,
    /// `Start` marks that abandoned an open item.
    pub starts_abandoned: u64,
    /// Items still open at stream end.
    pub starts_truncated: u64,
    /// Attributed samples lying exactly on an interval bound.
    pub boundary_samples: u64,
}

/// One predicted anomaly under the driver's flag-everything online
/// config (`divergence_factor = 0`, `warmup = 0`): every completed item
/// with a nonzero per-function span is flagged with its worst function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OracleAnomaly {
    /// The flagged item.
    pub item: u64,
    /// Worst function (max elapsed; ties to the lowest id).
    pub func: u32,
    /// Its first→last span, in picoseconds.
    pub elapsed_ps: u64,
    /// Raw samples retained with the item.
    pub raw_samples: usize,
}

/// Replay of the online tracer's documented per-core semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleOnline {
    /// Items whose End completed.
    pub items_processed: u64,
    /// Samples in the stream.
    pub samples_seen: u64,
    /// Samples attributed to completed items.
    pub samples_attributed: u64,
    /// Per-bucket loss tallies.
    pub loss: OracleLoss,
    /// Predicted anomalies, ascending by `(item, func)`.
    pub anomalies: Vec<OracleAnomaly>,
}

/// Per-core state of the replay: the open item and its buffered samples.
#[derive(Default)]
struct ReplayCore {
    pending: Vec<PebsRecord>,
    open: Option<(ItemId, u64)>,
}

/// Replay the online tracer naively: canonical-sort the whole stream,
/// then walk each core's marks and samples with two cursors, applying
/// the documented semantics event by event. `max_pending` bounds the
/// per-core sample buffer exactly like `OnlineConfig::max_pending`.
pub fn online_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
    max_pending: usize,
) -> OracleOnline {
    let mut marks = marks.to_vec();
    let mut samples = samples.to_vec();
    canonical_sort(&mut marks, &mut samples);

    let mut out = OracleOnline {
        samples_seen: samples.len() as u64,
        ..OracleOnline::default()
    };
    let cap = max_pending.max(1);

    // Group per core (both streams are core-sorted).
    let mut cores: BTreeMap<CoreId, (Vec<MarkRecord>, Vec<PebsRecord>)> = BTreeMap::new();
    for m in marks {
        cores.entry(m.core).or_default().0.push(m);
    }
    for s in samples {
        cores.entry(s.core).or_default().1.push(s);
    }

    for (_core, (marks, samples)) in cores {
        let mut state = ReplayCore::default();
        let mut si = 0usize;
        let mut mi = 0usize;
        loop {
            let sample = samples.get(si).copied();
            let mark = marks.get(mi).copied();
            let take_sample = match (sample, mark) {
                // A sample goes first when strictly earlier, or on a tie
                // against an End (the sample closes with the item); a
                // coincident Start opens before the sample.
                (Some(s), Some(m)) => s.tsc < m.tsc || (s.tsc == m.tsc && m.kind == MarkKind::End),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_sample {
                if let Some(s) = sample {
                    state.pending.push(s);
                    if state.pending.len() > cap {
                        let excess = state.pending.len() - cap;
                        state.pending.drain(..excess);
                        out.loss.samples_evicted += excess as u64;
                    }
                }
                si += 1;
            } else {
                if let Some(m) = mark {
                    replay_mark(&mut state, m, symtab, freq, &mut out);
                }
                mi += 1;
            }
        }
        // Stream end for this core.
        if state.open.take().is_some() {
            out.loss.starts_truncated += 1;
            out.loss.samples_discarded += state.pending.len() as u64;
        } else {
            out.loss.samples_spin += state.pending.len() as u64;
        }
    }
    out.anomalies.sort();
    out
}

fn replay_mark(
    state: &mut ReplayCore,
    m: MarkRecord,
    symtab: &SymbolTable,
    freq: Freq,
    out: &mut OracleOnline,
) {
    match m.kind {
        MarkKind::Start => {
            if state.open.take().is_some() {
                out.loss.starts_abandoned += 1;
                out.loss.samples_discarded += state.pending.len() as u64;
            } else {
                out.loss.samples_spin += state.pending.len() as u64;
            }
            state.pending.clear();
            state.open = Some((m.item, m.tsc));
        }
        MarkKind::End => match state.open.take() {
            Some((item, start)) if item == m.item => {
                let samples = std::mem::take(&mut state.pending);
                out.items_processed += 1;
                out.samples_attributed += samples.len() as u64;
                // Per-function first/last over contained samples.
                let mut spans: BTreeMap<FuncId, (u64, u64)> = BTreeMap::new();
                for s in &samples {
                    if !(start <= s.tsc && s.tsc <= m.tsc) {
                        continue;
                    }
                    if s.tsc == start || s.tsc == m.tsc {
                        out.loss.boundary_samples += 1;
                    }
                    if let Some(func) = symtab.resolve(s.ip) {
                        let e = spans.entry(func).or_insert((s.tsc, s.tsc));
                        e.0 = e.0.min(s.tsc);
                        e.1 = e.1.max(s.tsc);
                    }
                }
                // Worst function: max elapsed, first (lowest id) wins
                // ties — under the flag-everything config every nonzero
                // span diverges.
                let mut worst: Option<(FuncId, u64)> = None;
                for (func, (first, last)) in spans {
                    let elapsed_ps = freq.cycles_to_dur(last.wrapping_sub(first)).as_ps();
                    if elapsed_ps == 0 {
                        continue;
                    }
                    match worst {
                        Some((_, best)) if best >= elapsed_ps => {}
                        _ => worst = Some((func, elapsed_ps)),
                    }
                }
                if let Some((func, elapsed_ps)) = worst {
                    out.anomalies.push(OracleAnomaly {
                        item: item.0,
                        func: func.0,
                        elapsed_ps,
                        raw_samples: samples.len(),
                    });
                }
            }
            Some(_) => {
                out.loss.marks_mismatched += 1;
                out.loss.samples_discarded += state.pending.len() as u64;
                state.pending.clear();
            }
            None => {
                out.loss.marks_orphaned += 1;
                out.loss.samples_spin += state.pending.len() as u64;
                state.pending.clear();
            }
        },
    }
}
