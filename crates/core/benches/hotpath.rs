//! The hot-path kernels one at a time: the columnar merge-cursor
//! attribution kernel and the run-driven estimate fold.
//!
//! The statistical regression gate lives in `perf-hunt`
//! (`crates/bench`); these benches are the per-kernel microscope —
//! run `cargo bench -p fluctrace-core --bench hotpath` after touching
//! `soa.rs`, `estimate.rs` or `pairing.rs`.
//!
//! Workload size honours `FLUCTRACE_PERF_SAMPLES` (approximate total
//! samples, default 200 000 — cache-resident so per-kernel deltas are
//! visible; the gate in `perf-hunt` measures at production volume).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fluctrace_core::{integrate_soa_with_threads, EstimateTable, MappingMode};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle,
};
use fluctrace_sim::Freq;
use std::hint::black_box;

const CORES: u32 = 4;
const SAMPLES_PER_ITEM: u64 = 24;
const FUNCS: usize = 384;

fn total_samples() -> u64 {
    std::env::var("FLUCTRACE_PERF_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000u64)
        .max(1_000)
}

/// Synthetic multi-core trace shaped like the perf-hunt workload:
/// marked items, function hops, occasional unattributed gap samples.
fn synthetic_bundle() -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let funcs: Vec<_> = (0..FUNCS)
        .map(|i| b.add(&format!("fn_{i:04}"), 48 + (i as u64 % 7) * 16))
        .collect();
    let symtab = b.build();
    let items_per_core = (total_samples() / u64::from(CORES) / (SAMPLES_PER_ITEM + 1)).max(1);

    let mut bundle = TraceBundle::default();
    let mut state = 0x5EED_u64;
    let mut rng = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n.max(1)
    };
    for core in 0..CORES {
        let mut tsc = 1_000 + u64::from(core);
        for i in 0..items_per_core {
            let item = u64::from(core) * items_per_core + i;
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::Start,
            });
            let mut f = rng(FUNCS as u64) as usize;
            for _ in 0..SAMPLES_PER_ITEM {
                tsc += 40 + rng(120);
                if rng(8) == 0 {
                    f = rng(FUNCS as u64) as usize;
                }
                let Some(&func) = funcs.get(f) else {
                    continue;
                };
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip: symtab.range(func).start,
                    r13: item + 1,
                    event: HwEvent::UopsRetired,
                });
            }
            tsc += 40 + rng(120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::End,
            });
            tsc += 200 + rng(400);
        }
    }
    bundle.sort();
    (bundle, symtab)
}

fn bench_attribution(c: &mut Criterion) {
    let (bundle, symtab) = synthetic_bundle();
    let n = bundle.samples.len() as u64;
    let freq = Freq::ghz(3);
    let mut g = c.benchmark_group("hotpath/attribution");
    g.throughput(Throughput::Elements(n)).sample_size(12);
    g.bench_function("new-soa-columns", |b| {
        b.iter(|| {
            black_box(integrate_soa_with_threads(
                &bundle,
                &symtab,
                freq,
                MappingMode::Intervals,
                1,
            ))
        })
    });
    g.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let (bundle, symtab) = synthetic_bundle();
    let n = bundle.samples.len() as u64;
    let freq = Freq::ghz(3);
    let soa = integrate_soa_with_threads(&bundle, &symtab, freq, MappingMode::Intervals, 1);
    let mut g = c.benchmark_group("hotpath/estimate");
    g.throughput(Throughput::Elements(n)).sample_size(12);
    g.bench_function("new-run-scan", |b| {
        b.iter(|| black_box(EstimateTable::from_soa(&soa)))
    });
    g.finish();
}

criterion_group!(benches, bench_attribution, bench_estimate);
criterion_main!(benches);
