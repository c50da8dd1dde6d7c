//! Integrated traces are pure result values: the attribution kernel
//! must produce `==` traces for the same bundle no matter how many
//! pipelines run at once or what the shared obs clock reads meanwhile.
//! (Per-run tick counts travel beside the trace, never inside it.)

use fluctrace_core::{integrate_soa_with_threads, MappingMode};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_sim::Freq;
use std::sync::atomic::{AtomicBool, Ordering};

/// Four cores of back-to-back items with a few samples each, some on
/// unknown IPs and some between items.
fn workload() -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let funcs: Vec<_> = (0..4).map(|i| b.add(&format!("f{i}"), 256)).collect();
    let symtab = b.build();
    let mut bundle = TraceBundle::default();
    for core in 0..4u32 {
        let mut tsc = 1_000 + u64::from(core) * 17;
        for i in 0..300u64 {
            let item = ItemId(u64::from(core) * 1_000 + i);
            let mark = |tsc, kind| MarkRecord {
                core: CoreId(core),
                tsc,
                item,
                kind,
            };
            bundle.marks.push(mark(tsc, MarkKind::Start));
            for k in 0..(3 + i % 5) {
                tsc += 40 + (i * 7 + k * 13) % 50;
                let ip = match funcs.get(((i + k) % 5) as usize) {
                    Some(&f) => symtab.range(f).start,
                    None => VirtAddr(3),
                };
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip,
                    r13: NO_TAG,
                    event: HwEvent::UopsRetired,
                });
            }
            tsc += 25;
            bundle.marks.push(mark(tsc, MarkKind::End));
            tsc += 60;
        }
    }
    bundle.sort();
    (bundle, symtab)
}

#[test]
fn concurrent_integrations_compare_equal_while_the_clock_ticks() {
    let (bundle, symtab) = workload();
    let freq = Freq::ghz(3);
    let mode = MappingMode::Intervals;
    let stop = AtomicBool::new(false);
    let results = std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            let mut acc = 0u64;
            while !stop.load(Ordering::Acquire) {
                acc = acc.wrapping_add(fluctrace_obs::now_ticks());
            }
            acc
        });
        let workers: Vec<_> = (0..4usize)
            .map(|t| {
                let (bundle, symtab) = (&bundle, &symtab);
                s.spawn(move || {
                    (0..12)
                        .map(|_| integrate_soa_with_threads(bundle, symtab, freq, mode, 1 + t % 2))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("integration worker"))
            .collect();
        stop.store(true, Ordering::Release);
        ticker.join().expect("clock ticker");
        results
    });
    let reference = integrate_soa_with_threads(&bundle, &symtab, freq, mode, 1);
    assert!(!reference.is_empty() && !reference.intervals.is_empty());
    for (i, trace) in results.iter().enumerate() {
        assert!(trace == &reference, "run {i} differs from the reference");
    }
}
