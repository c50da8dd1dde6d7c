//! The streaming form of §III.D's integration rule: a sample belongs to
//! the item whose Start/End interval on the same core contains it.
//!
//! [`Pairing`] is the one per-core Start/End state machine behind both
//! streaming drivers — the online tracer's worker and the windowed
//! integrator. It owns the pending-sample buffers, the batch merge, the
//! `max_pending` eviction bound, the 11-counter [`LossStats`] ledger,
//! the per-item span fold and the divergence baseline, and hands every
//! completed item to a caller closure. IPs resolve through the batch
//! kernel's memoized `FuncResolver` and spans fold into the batch
//! estimator's `SpanFold`, so streaming and batch attribution share
//! both decisions. The drivers keep only what is
//! specific to them (channels and raw-sample retention online; windows
//! and cumulative tables in `window`), so the pairing and loss semantics
//! cannot drift apart between the two.

use crate::estimate::SpanFold;
use crate::interval::ItemInterval;
use crate::soa::FuncResolver;
use fluctrace_cpu::{
    CoreId, FuncId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, TraceBundle,
};
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exact accounting of everything a streaming tracer shed, evicted, or
/// could not attribute. A robust tracer is allowed to lose data under
/// overload — it is not allowed to lose data *silently*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossStats {
    /// Whole batches dropped by
    /// [`OnlineTracer::try_submit`](crate::online::OnlineTracer::try_submit)
    /// because the channel was full.
    pub batches_dropped: u64,
    /// Samples inside those dropped batches.
    pub samples_dropped: u64,
    /// Samples shed by the adaptive effective-reset policy.
    pub samples_thinned: u64,
    /// Oldest pending samples evicted by the
    /// [`OnlineConfig::max_pending`](crate::online::OnlineConfig::max_pending)
    /// bound.
    pub samples_evicted: u64,
    /// Pending samples discarded because their item could not complete
    /// (mismatched End, or a Start while the item was still open).
    pub samples_discarded: u64,
    /// `End` marks with no open item on their core.
    pub marks_orphaned: u64,
    /// `End` marks whose item id did not match the open item (the open
    /// item is discarded and counted, not silently lost).
    pub marks_mismatched: u64,
    /// `Start` marks that arrived while another item was still open,
    /// abandoning it.
    pub starts_abandoned: u64,
    /// `Start` marks still open when the stream ended; their pending
    /// samples are counted in `samples_discarded`, not silently dropped.
    pub starts_truncated: u64,
    /// Samples that arrived outside any item (between an End and the
    /// next Start, after an orphan End, or after the last End of the
    /// stream). Not a loss: inter-item spin is uninteresting by design,
    /// but it is still counted so sample conservation stays exact.
    pub samples_spin: u64,
    /// Samples attributed exactly at an interval bound (`tsc` equal to
    /// the start or end mark). Not a loss: proof that boundary samples
    /// are kept, where they were previously dropped at `end_tsc`.
    pub boundary_samples: u64,
}

impl LossStats {
    /// Total samples that were received but never attributed to an item.
    pub fn samples_lost(&self) -> u64 {
        self.samples_dropped + self.samples_thinned + self.samples_evicted + self.samples_discarded
    }

    /// True when nothing was lost and the mark stream was well-formed
    /// (boundary and spin samples are attribution accounting, not loss).
    pub fn is_clean(&self) -> bool {
        self.samples_lost() == 0
            && self.batches_dropped == 0
            && self.marks_orphaned == 0
            && self.marks_mismatched == 0
            && self.starts_abandoned == 0
            && self.starts_truncated == 0
    }
}

/// One item whose End mark closed it, as handed to the driver.
pub(crate) struct CompletedItem<'a> {
    /// The item's interval on its core.
    pub interval: ItemInterval,
    /// Every sample buffered for the item, in arrival order.
    pub samples: &'a [PebsRecord],
    /// `(func, first_tsc, last_tsc, samples)` per function inside the
    /// interval, ascending by `FuncId`.
    pub spans: &'a [(FuncId, u64, u64, u32)],
    /// Samples inside the interval whose IP resolved to no function.
    pub unknown: u32,
    /// Worst diverging function as `(func, elapsed, baseline_mean)`,
    /// lowest `FuncId` on ties.
    pub worst: Option<(FuncId, SimDuration, SimDuration)>,
    /// The ledger as of this completion.
    pub loss: &'a LossStats,
}

#[derive(Default)]
struct CoreState {
    /// Samples not yet assigned to a finished item, in merge order.
    pending: Vec<PebsRecord>,
    /// Open start mark.
    open: Option<(ItemId, u64)>,
}

/// Per-core Start/End pairing plus the carried divergence baseline.
pub(crate) struct Pairing {
    symtab: Arc<SymbolTable>,
    freq: Freq,
    divergence_factor: f64,
    warmup: u64,
    max_pending: usize,
    cores: BTreeMap<CoreId, CoreState>,
    /// Running per-function baselines (count, mean in ps).
    baselines: BTreeMap<FuncId, (u64, f64)>,
    /// Memoized IP resolution, carried across items.
    resolver: FuncResolver,
    /// Span-fold scratch, reused across items (sorted by `FuncId`).
    fold: SpanFold,
    /// The loss ledger (worker side; producer-side shed counters are
    /// folded in by the drivers).
    pub loss: LossStats,
    /// Samples received.
    pub samples_seen: u64,
    /// Items completed.
    pub items: u64,
    /// Samples attributed to completed items.
    pub samples_attributed: u64,
    /// Highest pending backlog seen on any core.
    pub pending_peak: u64,
}

impl Pairing {
    /// Fresh state: flag an item when a function's elapsed time exceeds
    /// `divergence_factor ×` its running mean after `warmup`
    /// observations; cap each core's pending buffer at `max_pending`.
    pub fn new(
        symtab: Arc<SymbolTable>,
        freq: Freq,
        divergence_factor: f64,
        warmup: u64,
        max_pending: usize,
    ) -> Self {
        Pairing {
            symtab,
            freq,
            divergence_factor,
            warmup,
            max_pending: max_pending.max(1),
            cores: BTreeMap::new(),
            baselines: BTreeMap::new(),
            resolver: FuncResolver::default(),
            fold: SpanFold::default(),
            loss: LossStats::default(),
            samples_seen: 0,
            items: 0,
            samples_attributed: 0,
            pending_peak: 0,
        }
    }

    /// Cores seen so far.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Sort the batch, then merge its marks and samples per
    /// `(core, tsc)`. On a tie a Start opens *before* a coincident
    /// sample and an End closes *after* it, so samples at either mark
    /// timestamp attribute to the item — the inclusive bounds of the
    /// offline `ItemInterval::contains`.
    pub fn ingest(&mut self, mut batch: TraceBundle, mut on_item: impl FnMut(CompletedItem<'_>)) {
        batch.sort();
        self.samples_seen += batch.samples.len() as u64;
        let mut samples = batch.samples.iter().peekable();
        let mut marks = batch.marks.iter().peekable();
        loop {
            let take_sample = match (samples.peek(), marks.peek()) {
                (Some(s), Some(m)) => {
                    let (sk, mk) = ((s.core, s.tsc), (m.core, m.tsc));
                    sk < mk || (sk == mk && m.kind == MarkKind::End)
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_sample {
                if let Some(&s) = samples.next() {
                    self.push_sample(s);
                }
            } else if let Some(&m) = marks.next() {
                self.apply_mark(m, &mut on_item);
            }
        }
    }

    fn push_sample(&mut self, s: PebsRecord) {
        let state = self.cores.entry(s.core).or_default();
        state.pending.push(s);
        self.pending_peak = self.pending_peak.max(state.pending.len() as u64);
        if state.pending.len() > self.max_pending {
            // Lost-End overload: evict the oldest samples instead of
            // growing without bound, and account for every one of them.
            let excess = state.pending.len() - self.max_pending;
            state.pending.drain(..excess);
            self.loss.samples_evicted += excess as u64;
        }
    }

    fn apply_mark(&mut self, m: MarkRecord, on_item: &mut impl FnMut(CompletedItem<'_>)) {
        let state = self.cores.entry(m.core).or_default();
        let pending = state.pending.len() as u64;
        match (m.kind, state.open.take()) {
            (MarkKind::End, Some((item, start_tsc))) if item == m.item => {
                let interval = ItemInterval {
                    core: m.core,
                    item,
                    start_tsc,
                    end_tsc: m.tsc,
                };
                return self.complete(interval, on_item);
            }
            (MarkKind::Start, open) => {
                if open.is_some() {
                    // The open item can never complete now; its samples
                    // are counted, not silently cleared.
                    self.loss.starts_abandoned += 1;
                    self.loss.samples_discarded += pending;
                } else {
                    // Spin samples before the item are uninteresting,
                    // but conservation demands they be counted.
                    self.loss.samples_spin += pending;
                }
                state.open = Some((m.item, m.tsc));
            }
            (MarkKind::End, Some(_)) => {
                // Mismatched End: the open item and its samples are
                // unattributable — counted instead of lost without a
                // trace.
                self.loss.marks_mismatched += 1;
                self.loss.samples_discarded += pending;
            }
            (MarkKind::End, None) => {
                // Orphan End: whatever is pending is inter-item spin.
                // Clearing it here keeps `pending` from leaking into the
                // eviction bound when consecutive Starts are lost (there
                // is no next Start to clear it).
                self.loss.marks_orphaned += 1;
                self.loss.samples_spin += pending;
            }
        }
        state.pending.clear();
    }

    /// Fold the completed item's samples into per-function spans, check
    /// them against the baselines, and hand the item to the driver.
    fn complete(&mut self, interval: ItemInterval, on_item: &mut impl FnMut(CompletedItem<'_>)) {
        let Some(state) = self.cores.get_mut(&interval.core) else {
            return;
        };
        let samples = state.pending.as_slice();
        self.items += 1;
        self.samples_attributed += samples.len() as u64;
        self.fold.clear();
        let mut unknown = 0u32;
        for s in samples {
            if !interval.contains(s.tsc) {
                continue;
            }
            if interval.is_boundary(s.tsc) {
                self.loss.boundary_samples += 1;
            }
            match self.resolver.resolve(&self.symtab, s.ip) {
                Some(func) => self.fold.add(func, s.tsc),
                None => unknown += 1,
            }
        }

        let mut worst: Option<(FuncId, SimDuration, SimDuration)> = None;
        for &(func, first, last, _) in self.fold.spans() {
            let elapsed = self.freq.cycles_to_dur(last.wrapping_sub(first));
            let (count, mean_ps) = self.baselines.entry(func).or_insert((0, 0.0));
            let diverges = *count >= self.warmup
                && elapsed.as_ps() as f64 > *mean_ps * self.divergence_factor
                && elapsed > SimDuration::ZERO;
            if diverges {
                let baseline = SimDuration::from_ps(*mean_ps as u64);
                match worst {
                    // `>=` keeps the first maximum, so ties resolve to
                    // the lowest FuncId.
                    Some((_, e, _)) if e >= elapsed => {}
                    _ => worst = Some((func, elapsed, baseline)),
                }
            } else {
                // Only non-anomalous observations train the baseline, so
                // a burst of anomalies cannot drag the mean up after the
                // warm-up (before warm-up everything trains it).
                *count += 1;
                *mean_ps += (elapsed.as_ps() as f64 - *mean_ps) / *count as f64;
            }
        }
        on_item(CompletedItem {
            interval,
            samples,
            spans: self.fold.spans(),
            unknown,
            worst,
            loss: &self.loss,
        });
        state.pending.clear();
    }

    /// Stream end: an open item whose End never arrived is truncated
    /// (its samples are discarded, not attributed); leftover pending
    /// samples with no open item are trailing spin. After this, sample
    /// conservation is exact. Idempotent.
    pub fn finish_stream(&mut self) {
        for state in self.cores.values_mut() {
            let pending = state.pending.len() as u64;
            if state.open.take().is_some() {
                self.loss.starts_truncated += 1;
                self.loss.samples_discarded += pending;
            } else {
                self.loss.samples_spin += pending;
            }
            state.pending.clear();
        }
    }
}
