//! `acl-archive`: the paper's ACL firewall case study (§IV.C) captured
//! on the cpu model, archived to the columnar store, read back and
//! diagnosed.
//!
//! One iteration: set-up (Table III rule set, firewall, symbol table,
//! 3-core machine) → capture (firewall run to the collected bundle) →
//! analysis (store write → store read → interval build → attribution →
//! estimate → detection, packet type as the group). Iterations repeat
//! the same seeded capture until the budget is spent; each time is the
//! fastest over the iterations (see `stats.rs`).

use crate::chain::{self, analyse, ChainOut, LOOP_SHARE};
use crate::stats::{fastest, median};
use crate::{Ctx, Mutant, Outcome};
use fluctrace_acl::{table3_rules, AclBuildConfig};
use fluctrace_apps::{AclCostModel, Firewall, TestPacket, Tester};
use fluctrace_core::{integrate_soa_with_threads, EstimateTable, MappingMode};
use fluctrace_cpu::{
    CoreConfig, DrainMode, Machine, MachineConfig, PebsConfig, SinkKind, SymbolTable, TraceBundle,
};
use fluctrace_rt::timed::Timed;
use fluctrace_sim::{Freq, SimDuration, SimTime};
use fluctrace_store::{write_bundle_to_vec, StoreConfig, TraceReader, WriteStats};
use std::io::Cursor;
use std::time::Instant;

/// Packets of each type (A, B, C) per capture.
pub const PER_TYPE: usize = 1_500;
/// Table III parameters: 666 × 75 + 50 = 50 000 Drop rules (247 tries).
pub const TABLE3: (u16, u16, u16) = (666, 75, 50);
/// PEBS reset value (the paper's smallest, highest-volume setting).
pub const RESET: u64 = 8_000;
/// Simulated cores: RX, ACL, TX.
pub const CORES: usize = 3;
const FREQ_GHZ: u64 = 3;
/// Set-ups timed per iteration (the last one is used). A set-up lasts
/// about 10 ms, short enough for one burst of host noise to cover it, so
/// it gets more repetitions than the capture and the analysis.
const SETUPS: usize = 4;

/// Everything built before the capture.
struct Setup {
    fw: Firewall,
    machine: Machine,
    symtab: SymbolTable,
    ingress: Vec<Timed<TestPacket>>,
    /// Packet-type label by sequence number (= item id).
    groups: Vec<&'static str>,
}

fn machine(seed: u64, symtab: SymbolTable) -> Machine {
    let mut core = CoreConfig::bare();
    let mut pebs = PebsConfig::new(RESET);
    pebs.drain = DrainMode::DoubleBuffered;
    core.pebs = Some(pebs);
    core.sink = SinkKind::Ssd {
        bandwidth_bytes_per_s: 500_000_000,
    };
    Machine::new(MachineConfig::new(CORES, core).with_seed(seed), symtab)
}

fn setup(seed: u64) -> Setup {
    let (symtab, funcs) = Firewall::symtab();
    let (a, b, c) = TABLE3;
    let rules = table3_rules(a, b, c);
    let fw = Firewall::new(
        &rules,
        AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    let (tester, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), PER_TYPE);
    let groups = tester
        .sent()
        .iter()
        .map(|p| p.value.ptype.label())
        .collect();
    Setup {
        fw,
        machine: machine(seed, symtab.clone()),
        symtab,
        ingress,
        groups,
    }
}

fn capture(fw: &Firewall, machine: &mut Machine, ingress: Vec<Timed<TestPacket>>) -> TraceBundle {
    fw.run(machine, ingress);
    machine.collect().0
}

/// One analysis pass with its store round trip.
struct Pass {
    stats: WriteStats,
    store_bytes: usize,
    /// The read-back bundle, or the read error.
    back: Result<TraceBundle, String>,
    result: ChainOut,
}

fn analysis_pass(ctx: &Ctx, out: &mut Outcome, s: &Setup, bundle: &TraceBundle) -> Pass {
    let m = ctx.mutant;
    let l = &mut out.ledger;
    let written = l.span("store.writer", |_| {
        if m == Mutant::DoubleStoreWrite {
            std::hint::black_box(write_bundle_to_vec(bundle, StoreConfig::default()).ok());
        }
        write_bundle_to_vec(bundle, StoreConfig::default())
    });
    let (mut bytes, stats) = match written {
        Ok(w) => w,
        Err(e) => {
            out.checks.check(false, || format!("store write: {e}"));
            (Vec::new(), WriteStats::default())
        }
    };
    if m == Mutant::FlipByte && !bytes.is_empty() {
        let at = bytes.len() / 3;
        bytes[at] ^= 0x10;
    }
    let back = l.span("store.reader", |_| {
        TraceReader::open(Cursor::new(bytes.as_slice()))
            .and_then(|mut r| r.read_bundle())
            .map_err(|e| e.to_string())
    });
    // A failed read is counted below; the chain then runs on the
    // captured bundle so the pass still completes.
    let input = back.as_ref().unwrap_or(bundle);
    let groups = &s.groups;
    let group_of = |item: fluctrace_cpu::ItemId| {
        usize::try_from(item.0)
            .ok()
            .and_then(|i| groups.get(i))
            .map(|g| (*g).to_string())
    };
    let result = analyse(l, ctx, input, &s.symtab, Freq::ghz(FREQ_GHZ), &group_of);
    Pass {
        stats,
        store_bytes: bytes.len(),
        back,
        result,
    }
}

/// Correctness of one pass: bit-exact round trip, the read-back table
/// equal to the captured bundle's table, and well-formed marks. The
/// read-back bundle is freed before the comparison table is built.
fn check_pass(
    ctx: &Ctx,
    out: &mut Outcome,
    s: &Setup,
    bundle: &TraceBundle,
    back: Result<TraceBundle, String>,
    result: &ChainOut,
) {
    let c = &mut out.checks;
    match back {
        Ok(back) => {
            c.check(
                back.samples == bundle.samples && back.marks == bundle.marks,
                || "store round trip is not bit-exact".to_string(),
            );
            drop(back);
            let direct = EstimateTable::from_soa(&integrate_soa_with_threads(
                bundle,
                &s.symtab,
                Freq::ghz(FREQ_GHZ),
                MappingMode::Intervals,
                ctx.threads,
            ));
            c.check(direct == result.table, || {
                "table from the read-back bundle differs from the captured bundle's".to_string()
            });
        }
        Err(e) => c.check(false, || format!("store read: {e}")),
    }
    c.check(result.interval_errors == 0, || {
        format!("{} mark-pairing errors", result.interval_errors)
    });
}

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let start = Instant::now();
    let loop_until = start + ctx.budget.mul_f64(LOOP_SHARE);
    let min_iters = if ctx.trace { 4 } else { 3 };
    let (mut setup_s, mut capture_s, mut analysis_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_s = Vec::new();
    let mut last = None;
    let mut i = 0usize;
    while i < min_iters || Instant::now() < loop_until {
        // Free the previous iteration before the next one allocates.
        drop(last.take());
        // Traced runs interleave untraced iterations to measure the
        // ledger's own overhead.
        let traced = ctx.trace && i.is_multiple_of(2);
        out.ledger.set_enabled(traced);

        let mut s = None;
        for _ in 0..SETUPS {
            drop(s.take());
            let t = Instant::now();
            s = Some(setup(ctx.seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut s = s.expect("a set-up ran");

        let t = Instant::now();
        let span = out.ledger.open("cpu");
        let bundle = capture(&s.fw, &mut s.machine, s.ingress.clone());
        out.ledger.close(span);
        capture_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let root = out.ledger.open("analysis");
        let pass = analysis_pass(ctx, out, &s, &bundle);
        out.ledger.close(root);
        let a = t.elapsed().as_secs_f64();
        if traced || !ctx.trace {
            analysis_s.push(a);
        } else {
            untraced_s.push(a);
        }
        out.ledger.set_enabled(false);
        let Pass {
            stats,
            store_bytes,
            back,
            result,
        } = pass;
        check_pass(ctx, out, &s, &bundle, back, &result);
        last = Some((s, bundle, stats, store_bytes, result));
        i += 1;
    }
    let (s, bundle, stats, store_bytes, result) = last.expect("at least one iteration ran");
    let samples = bundle.samples.len();
    let items = result.table.len();
    let analysis = fastest(&analysis_s);

    out.reps.push(("setup_s", setup_s.clone()));
    out.reps.push(("capture_s", capture_s.clone()));
    out.reps.push(("analysis_s", analysis_s.clone()));
    out.e2e.set("setup_s", fastest(&setup_s));
    out.e2e.set("capture_s", fastest(&capture_s));
    out.e2e.set("analysis_s", analysis);
    out.e2e.set(
        "store_bytes_per_sample",
        store_bytes as f64 / samples.max(1) as f64,
    );
    out.e2e.set("serve_items_per_s", items as f64 / analysis);

    if ctx.trace {
        let per_sample = |v: f64| v / samples.max(1) as f64;
        let cpu_spans: Vec<f64> = (out.ledger.by_name("cpu"))
            .map(|i| out.ledger.spans()[i].dur_ns() as f64)
            .collect();
        let cpu = median(&cpu_spans);
        let store = |layer| median(&chain::layer_self_ns(&out.ledger, "analysis", layer));
        let l = &mut out.layers;
        l.set("cpu.capture_ns_per_sample", per_sample(cpu));
        l.set("cpu.samples", samples as f64);
        l.set("cpu.marks", bundle.marks.len() as f64);
        l.set(
            "store.writer.ns_per_sample",
            per_sample(store("store.writer")),
        );
        l.set("store.writer.chunks", stats.chunks as f64);
        l.set("store.writer.bytes", stats.bytes as f64);
        l.set(
            "store.reader.ns_per_sample",
            per_sample(store("store.reader")),
        );
        chain::chain_layers(out, "analysis", &result, &analysis_s, &untraced_s);
    }

    out.fact("iterations", i);
    out.fact("packets", PER_TYPE * 3);
    out.fact(
        "rules",
        u32::from(TABLE3.0) * u32::from(TABLE3.1) + u32::from(TABLE3.2),
    );
    out.fact("tries", s.fw.acl().num_tries());
    out.fact("samples", samples);
    out.fact("marks", bundle.marks.len());
    out.fact("items", items);
    out.fact("outliers", result.report.outliers.len());
    out.fact("analysis_threads", ctx.threads);
    out.e2e.set("peak_rss_mb", crate::host::peak_rss_mb());
    out.fact(
        "input_digest",
        format!("{:016x}", chain::bundle_digest(&bundle)),
    );
}
