//! The batch analysis chain every workload runs: interval build →
//! attribution → estimate → fluctuation detection, one span per layer.

use crate::ledger::Ledger;
use crate::stats::{fastest, median};
use crate::{Ctx, Outcome, UNACCOUNTED_TOLERANCE};
use fluctrace_core::soa::{SoaTrace, NO_ITEM};
use fluctrace_core::{
    build_intervals, detect, integrate_soa_with_threads, EstimateTable, FluctuationReport,
    MappingMode,
};
use fluctrace_cpu::{ItemId, SymbolTable, TraceBundle};
use fluctrace_sim::{Freq, SimDuration};

/// Robust sigmas past which [`detect`] flags an item.
pub const THRESHOLD_SIGMAS: f64 = 4.0;
/// Absolute deviation below which [`detect`] flags nothing.
pub const MIN_ABS: SimDuration = SimDuration::from_ns(500);

/// Share of the run budget a workload spends in its measured loop; the
/// rest covers the checks after the last iteration.
pub const LOOP_SHARE: f64 = 0.9;

/// Everything one pass of the chain produced.
pub struct ChainOut {
    /// Marks fed to the interval build.
    pub marks: usize,
    /// Mark-pairing errors the interval build reported.
    pub interval_errors: usize,
    /// The attributed columns.
    pub soa: SoaTrace,
    /// Per-item per-function estimates.
    pub table: EstimateTable,
    /// The diagnosis.
    pub report: FluctuationReport,
}

/// One pass over `bundle`. Spans: `core.interval`, `core.soa`,
/// `core.estimate`, `core.fluct`, each under the caller's open span.
pub fn analyse(
    l: &mut Ledger,
    ctx: &Ctx,
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    group_of: &dyn Fn(ItemId) -> Option<String>,
) -> ChainOut {
    let interval_errors = l.span("core.interval", |_| {
        let (intervals, errors) = build_intervals(&bundle.marks);
        std::hint::black_box(&intervals);
        errors.len()
    });
    let soa = l.span("core.soa", |_| {
        integrate_soa_with_threads(bundle, symtab, freq, MappingMode::Intervals, ctx.threads)
    });
    let table = l.span("core.estimate", |_| EstimateTable::from_soa(&soa));
    let report = l.span("core.fluct", |_| {
        detect(&table, group_of, THRESHOLD_SIGMAS, MIN_ABS)
    });
    ChainOut {
        marks: bundle.marks.len(),
        interval_errors,
        soa,
        table,
        report,
    }
}

impl ChainOut {
    /// Samples the columns left unattributed (no interval holds them).
    pub fn unattributed(&self) -> u64 {
        self.soa.cols.item.iter().filter(|&&i| i == NO_ITEM).count() as u64
    }

    /// Sample conservation: every sample is in exactly one of a
    /// function estimate, an item's unknown-IP count, the
    /// missing-span count, or the unattributed set.
    pub fn conserves_samples(&self) -> (bool, String) {
        let mut in_funcs = 0u64;
        let mut unknown = 0u64;
        for ie in self.table.items() {
            unknown += u64::from(ie.unknown_func_samples);
            in_funcs += ie.funcs.iter().map(|f| u64::from(f.samples)).sum::<u64>();
        }
        let missing = self.table.samples_missing_span;
        let stray = self.unattributed();
        let total = self.soa.len() as u64;
        (
            in_funcs + unknown + missing + stray == total,
            format!(
                "attributed {in_funcs} + unknown-IP {unknown} + missing-span {missing} + unattributed {stray} != total {total}"
            ),
        )
    }

    /// Share of `(item, function)` estimates with at least two samples.
    pub fn estimable_ratio(&self) -> f64 {
        let (mut all, mut ok) = (0u64, 0u64);
        for ie in self.table.items() {
            for fe in &ie.funcs {
                all += 1;
                ok += u64::from(fe.is_estimable());
            }
        }
        ok as f64 / all.max(1) as f64
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a trace bundle (inputs differ between seeds).
pub fn bundle_digest(bundle: &TraceBundle) -> u64 {
    let mut h = Fnv::new();
    for s in &bundle.samples {
        h.eat(u64::from(s.core.0));
        h.eat(s.tsc);
        h.eat(s.ip.as_u64());
        h.eat(s.r13);
    }
    for m in &bundle.marks {
        h.eat(u64::from(m.core.0));
        h.eat(m.tsc);
        h.eat(m.item.0);
    }
    h.0
}

/// Per-pass layer self times, ns, for every root span named `root`.
pub fn layer_self_ns(l: &Ledger, root: &str, layer: &str) -> Vec<f64> {
    let own = l.self_times();
    l.by_name(root)
        .map(|r| l.child_self_ns(&own, r, layer) as f64)
        .collect()
}

/// Per-layer readings of the chain from the traced passes rooted at
/// `root` (`last` gives the per-pass work counts), the ledger's own
/// overhead from the traced and untraced pass times, and the check that
/// the layer spans account for the passes' wall time.
pub fn chain_layers(
    out: &mut Outcome,
    root: &str,
    last: &ChainOut,
    traced: &[f64],
    untraced: &[f64],
) {
    let l = &out.ledger;
    let samples = last.soa.len().max(1) as f64;
    let per = |layer: &str, n: f64| median(&layer_self_ns(l, root, layer)) / n;
    let m = &mut out.layers;
    m.set(
        "core.interval.ns_per_mark",
        per("core.interval", last.marks.max(1) as f64),
    );
    m.set("core.interval.errors", last.interval_errors as f64);
    m.set("core.soa.ns_per_sample", per("core.soa", samples));
    m.set("core.soa.attribution_ratio", last.soa.attribution_ratio());
    m.set("core.estimate.ns_per_sample", per("core.estimate", samples));
    m.set("core.estimate.estimable_ratio", last.estimable_ratio());
    m.set(
        "core.fluct.ns_per_item",
        per("core.fluct", last.table.len().max(1) as f64),
    );
    m.set("core.fluct.outliers", last.report.outliers.len() as f64);
    m.set(
        "trace.overhead_ratio",
        fastest(traced) / fastest(untraced),
    );
    let unaccounted = l.unaccounted_ratio(&l.self_times(), root);
    m.set("trace.unaccounted_ratio", unaccounted);
    out.checks.check(unaccounted <= UNACCOUNTED_TOLERANCE, || {
        format!(
            "layer spans leave {unaccounted:.4} of the {root} time unaccounted (tolerance {UNACCOUNTED_TOLERANCE})"
        )
    });
}
