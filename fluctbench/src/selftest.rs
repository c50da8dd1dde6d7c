//! Teeth self-tests: mutants local to the benchmark must move exactly
//! the metrics `WORKLOADS.md` predicts, and a corrupted store byte must
//! be caught.
//!
//! ```text
//! cargo run --release --manifest-path fluctbench/Cargo.toml -- --selftest
//! ```
//!
//! Timing comparisons use wide margins (the doubled store write adds
//! about two thirds to `analysis_s` on `acl-archive`), so a noisy host
//! does not flip a verdict.

use crate::host::Host;
use crate::{run_workload, Ctx, Mutant, Outcome, E2E, WORKLOADS};
use std::time::Duration;

struct Verdicts {
    failed: usize,
}

impl Verdicts {
    fn expect(&mut self, ok: bool, what: String) {
        println!("  [{}] {what}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.failed += 1;
        }
    }
}

fn ctx(seed: u64, threads: usize, trace: bool, mutant: Mutant, secs: u64) -> Ctx {
    Ctx {
        seed,
        budget: Duration::from_secs(secs),
        trace,
        mutant,
        threads,
    }
}

fn e2e(o: &Outcome, name: &str) -> f64 {
    o.e2e.get(name).unwrap_or(f64::NAN)
}

fn layer(o: &Outcome, name: &str) -> f64 {
    o.layers.get(name).unwrap_or(f64::NAN)
}

fn fact<'a>(o: &'a Outcome, key: &str) -> Option<&'a str> {
    o.facts
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Three honest and three mutant runs of `workload`, interleaved so a
/// slow spell of the host hits both sides.
fn paired(
    workload: &str,
    seed: u64,
    threads: usize,
    trace: bool,
    mutant: Mutant,
    secs: u64,
) -> (Vec<Outcome>, Vec<Outcome>) {
    let (mut honest, mut mutated) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        honest.push(run_workload(
            workload,
            &ctx(seed, threads, trace, Mutant::None, secs),
        ));
        mutated.push(run_workload(
            workload,
            &ctx(seed, threads, trace, mutant, secs),
        ));
    }
    (honest, mutated)
}

/// Median of `f` over `runs`.
fn med(runs: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    crate::stats::median(&runs.iter().map(f).collect::<Vec<_>>())
}

fn within(ratio: f64, lo: f64, hi: f64) -> bool {
    ratio >= lo && ratio <= hi
}

/// Run every self-test; returns the process exit code.
pub fn run(host: &Host, threads: usize, seed: u64) -> i32 {
    let mut v = Verdicts { failed: 0 };
    println!(
        "fluctbench self-test (nproc {}, {threads} analysis threads)",
        host.nproc
    );

    println!("seed handling:");
    for w in WORKLOADS {
        let a = run_workload(w, &ctx(seed, threads, false, Mutant::None, 2));
        let b = run_workload(w, &ctx(seed + 1, threads, false, Mutant::None, 2));
        let names = |o: &Outcome| {
            let mut n: Vec<&str> = o.e2e.0.iter().map(|(k, _)| *k).collect();
            n.sort_unstable();
            n
        };
        let mut want: Vec<&str> = E2E.iter().map(|(k, _)| *k).collect();
        want.sort_unstable();
        v.expect(
            fact(&a, "input_digest") != fact(&b, "input_digest"),
            format!("{w}: seeds {seed} and {} give different inputs", seed + 1),
        );
        v.expect(
            names(&a) == names(&b) && names(&a) == want,
            format!("{w}: both seeds report the same metric names"),
        );
        v.expect(
            a.checks.failed == 0 && b.checks.failed == 0,
            format!("{w}: honest runs pass every check"),
        );
    }

    println!(
        "mutant: store write doubled (predicted: store.writer and analysis_s on acl-archive only):"
    );
    let doubled = Mutant::DoubleStoreWrite;
    let (honest, mutant) = paired("acl-archive", seed, threads, false, doubled, 3);
    let ratio = med(&mutant, |o| e2e(o, "analysis_s")) / med(&honest, |o| e2e(o, "analysis_s"));
    v.expect(
        ratio > 1.25,
        format!("acl-archive analysis_s x{ratio:.3} (> 1.25)"),
    );
    let ratio = med(&mutant, |o| e2e(o, "capture_s")) / med(&honest, |o| e2e(o, "capture_s"));
    v.expect(
        within(ratio, 0.75, 1.33),
        format!("acl-archive capture_s x{ratio:.3} (unchanged: 0.75..1.33)"),
    );
    let (honest, mutant) = paired("acl-archive", seed, threads, true, doubled, 3);
    // The interval, estimate and detection spans of `acl-archive` last
    // well under a millisecond and run right after the store write, so
    // they get a wider band: the extra write also evicts their data.
    for (name, lo, hi) in [
        ("store.writer.ns_per_sample", 1.6, 2.6),
        ("store.reader.ns_per_sample", 0.67, 1.5),
        ("core.soa.ns_per_sample", 0.67, 1.5),
        ("cpu.capture_ns_per_sample", 0.67, 1.5),
        ("core.interval.ns_per_mark", 0.5, 2.0),
        ("core.estimate.ns_per_sample", 0.5, 2.0),
        ("core.fluct.ns_per_item", 0.5, 2.0),
    ] {
        let ratio = med(&mutant, |o| layer(o, name)) / med(&honest, |o| layer(o, name));
        v.expect(
            within(ratio, lo, hi),
            format!("acl-archive {name} x{ratio:.3} ({lo}..{hi})"),
        );
    }
    v.expect(
        med(&mutant, |o| layer(o, "store.writer.bytes"))
            == med(&honest, |o| layer(o, "store.writer.bytes")),
        "acl-archive store.writer.bytes unchanged".to_string(),
    );
    // serve-steady's analysis chain never touches the store.
    let (honest, mutant) = paired("serve-steady", seed, threads, false, doubled, 2);
    let ratio = med(&mutant, |o| e2e(o, "analysis_s")) / med(&honest, |o| e2e(o, "analysis_s"));
    v.expect(
        within(ratio, 0.75, 1.33),
        format!("serve-steady analysis_s x{ratio:.3} (unchanged: 0.75..1.33)"),
    );

    println!("mutant flip-byte (predicted: failed_ratio > 0):");
    let flipped = run_workload(
        "acl-archive",
        &ctx(seed, threads, false, Mutant::FlipByte, 2),
    );
    let ratio = flipped.checks.failed as f64 / flipped.checks.attempted.max(1) as f64;
    v.expect(
        flipped.checks.failed > 0,
        format!(
            "acl-archive failed_ratio {ratio:.3} ({} of {} checks failed)",
            flipped.checks.failed, flipped.checks.attempted
        ),
    );

    if v.failed == 0 {
        println!("self-test: PASS");
        0
    } else {
        println!("self-test: FAIL ({} verdicts failed)", v.failed);
        1
    }
}
