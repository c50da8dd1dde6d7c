//! Property tests of the parallel pipeline's determinism guarantee:
//! for any multi-core workload, integration output and the artifacts
//! exported from it are bit-identical across worker-pool sizes (the
//! `FLUCTRACE_THREADS` contract).

use fluctrace_core::{
    chrome_trace_string, integrate_with_threads, run_indexed, EstimateTable, ExportOptions,
    MappingMode,
};
use fluctrace_cpu::{
    CoreConfig, Exec, FuncId, ItemId, Machine, MachineConfig, PebsConfig, SymbolTable,
    SymbolTableBuilder, TraceBundle,
};
use fluctrace_sim::{Freq, SimDuration};
use proptest::prelude::*;

/// A randomized workload spread over several cores.
#[derive(Debug, Clone)]
struct MultiCoreWorkload {
    reset: u64,
    /// Per core, per item: list of (func index, kilouops) segments.
    cores: Vec<Vec<Vec<(usize, u64)>>>,
    gap_us: u64,
    reg_tagging: bool,
}

fn arb_workload() -> impl Strategy<Value = MultiCoreWorkload> {
    (
        500u64..10_000,
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0usize..4, 1u64..40), 1..4),
                1..10,
            ),
            1..6,
        ),
        0u64..10,
        any::<bool>(),
    )
        .prop_map(|(reset, cores, gap_us, reg_tagging)| MultiCoreWorkload {
            reset,
            cores,
            gap_us,
            reg_tagging,
        })
}

/// Run the workload on a simulated machine and collect its trace.
fn trace(w: &MultiCoreWorkload) -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let funcs: Vec<FuncId> = (0..4).map(|i| b.add(&format!("fn{i}"), 2048)).collect();
    let symtab = b.build();
    let mut cfg = CoreConfig::bare().with_pebs(PebsConfig::new(w.reset));
    cfg.reg_tagging = w.reg_tagging;
    let mut machine = Machine::new(MachineConfig::new(w.cores.len(), cfg), symtab.clone());
    for (c, items) in w.cores.iter().enumerate() {
        let core = machine.core_mut(c);
        for (i, segments) in items.iter().enumerate() {
            // Item ids unique per core so cross-core aliasing doesn't
            // mask a splicing bug.
            let item = ItemId((c * 1_000 + i) as u64);
            core.mark_item_start(item);
            for &(f, kuops) in segments {
                core.exec(Exec::new(funcs[f], kuops * 1000));
            }
            core.mark_item_end(item);
            core.idle(SimDuration::from_us(w.gap_us));
        }
    }
    let (bundle, _) = machine.collect();
    (bundle, symtab)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn integration_is_thread_count_invariant(w in arb_workload()) {
        let (bundle, symtab) = trace(&w);
        for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
            let reference =
                integrate_with_threads(&bundle, &symtab, Freq::ghz(3), mode, 1);
            for threads in [2usize, 4, 16] {
                let it =
                    integrate_with_threads(&bundle, &symtab, Freq::ghz(3), mode, threads);
                prop_assert_eq!(&it.samples, &reference.samples,
                    "samples differ at {} threads ({:?})", threads, mode);
                prop_assert_eq!(&it.intervals, &reference.intervals);
                prop_assert_eq!(&it.errors, &reference.errors);
            }
        }
    }

    #[test]
    fn exported_artifact_bytes_are_thread_count_invariant(w in arb_workload()) {
        let (bundle, symtab) = trace(&w);
        let render = |threads: usize| {
            let it = integrate_with_threads(
                &bundle, &symtab, Freq::ghz(3), MappingMode::Intervals, threads);
            let table = EstimateTable::from_integrated(&it);
            chrome_trace_string(&it, &table, &symtab, ExportOptions { include_samples: true })
        };
        let reference = render(1);
        for threads in [4usize, 16] {
            prop_assert_eq!(&render(threads), &reference,
                "exported artifact bytes differ at {} threads", threads);
        }
    }

    #[test]
    fn sweep_runner_is_order_stable(xs in proptest::collection::vec(0u64..1_000, 1..40)) {
        let expected: Vec<u64> = xs.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 8] {
            let out = run_indexed(xs.clone(), threads, |_, x| x * 3 + 1);
            prop_assert_eq!(&out, &expected, "threads={}", threads);
        }
    }
}
