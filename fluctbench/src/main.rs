//! fluctbench — the fluctrace benchmark.
//!
//! One command runs one of two workloads and prints every metric by
//! name with its unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path fluctbench/Cargo.toml -- \
//!     --workload acl-archive --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with the span ledger
//!   off and `fluctrace_obs` recording off.
//! * `--trace 1` records a span around every call into a layer's public
//!   functions and reports the per-layer metrics derived from them.
//! * `--selftest` runs the benchmark against defects injected into its
//!   own code (see [`Mutant`]) and checks that it notices them.
//!
//! Every output is checked; a failed check makes `correct` false, is
//! counted in `failed`, and makes the exit code 1. Workloads and the
//! layer→metric predictions are described in `WORKLOADS.md`.

mod acl;
mod chain;
mod host;
mod ledger;
mod selftest;
mod serve;
mod stats;

use host::Host;
use ledger::Ledger;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, reported by every workload on untraced runs.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("capture_s", "s"),
    ("analysis_s", "s"),
    ("store_bytes_per_sample", "B/sample"),
    ("serve_items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload on traced runs; a
/// layer a workload never calls reports 0.
pub const LAYERS: [(&str, &str); 29] = [
    ("cpu.capture_ns_per_sample", "ns"),
    ("cpu.samples", "count"),
    ("cpu.marks", "count"),
    ("store.writer.ns_per_sample", "ns"),
    ("store.writer.chunks", "count"),
    ("store.writer.bytes", "B"),
    ("store.reader.ns_per_sample", "ns"),
    ("core.interval.ns_per_mark", "ns"),
    ("core.interval.errors", "count"),
    ("core.soa.ns_per_sample", "ns"),
    ("core.soa.attribution_ratio", "ratio"),
    ("core.estimate.ns_per_sample", "ns"),
    ("core.estimate.estimable_ratio", "ratio"),
    ("core.fluct.ns_per_item", "ns"),
    ("core.fluct.outliers", "count"),
    ("serve.traffic.ns_per_sample", "ns"),
    ("core.window.ns_per_sample", "ns"),
    ("core.window.closed", "count"),
    ("core.window.evicted", "count"),
    ("serve.proto.snapshot_render_us", "us"),
    ("serve.snapshot.p50_ms", "ms"),
    ("serve.snapshot.p99_ms", "ms"),
    ("serve.snapshot.samples", "count"),
    ("serve.shard.utilization_milli", "milli"),
    ("serve.shard.occupancy_milli", "milli"),
    ("serve.shard.samples_lost", "count"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("harness.query_late_max_ms", "ms"),
];

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 2] = ["acl-archive", "serve-steady"];

/// Largest `trace.unaccounted_ratio` an analysis chain may show: the
/// layer spans must cover all but this share of the chain's wall time.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.02;

/// Analysis worker threads. On the 2-vCPU reference host a second
/// worker gave no speed-up to the analysis chain, and a pass that needs
/// both vCPUs is slowed whenever either is taken away, so one worker
/// keeps the timings steadier. Capped at `nproc` and recorded.
const ANALYSIS_THREADS: usize = 1;

/// A defect injected by the benchmark itself, to prove it has teeth
/// (see `selftest.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Honest run.
    None,
    /// Call the store write twice inside its span.
    DoubleStoreWrite,
    /// Flip one stored byte between the store write and the read.
    FlipByte,
}

/// Run-wide settings handed to a workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget of the run.
    pub budget: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Injected defect.
    pub mutant: Mutant,
    /// Analysis worker threads (capped at `nproc`).
    pub threads: usize,
}

/// Correctness bookkeeping: every checked operation and every failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Ordered `(name, value)` metric readings.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Reading of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end readings (untraced runs).
    pub e2e: Metrics,
    /// Per-layer readings (traced runs).
    pub layers: Metrics,
    /// Correctness checks.
    pub checks: Checks,
    /// Descriptive key/value facts (sizes, counts, thread numbers).
    pub facts: Vec<(String, String)>,
    /// Every timed repetition behind an end-to-end reading.
    pub reps: Vec<(&'static str, Vec<f64>)>,
    /// The span ledger.
    pub ledger: Ledger,
}

impl Outcome {
    fn new(ctx: &Ctx) -> Outcome {
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            checks: Checks::default(),
            facts: Vec::new(),
            reps: Vec::new(),
            ledger: Ledger::new(ctx.trace, ctx.seed ^ run_nonce()),
        }
    }

    /// Record a descriptive fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }
}

fn run_nonce() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--selftest" => args.selftest = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    // End-to-end numbers come from runs with the program's own
    // self-observability recording off; traced runs install the obs
    // wall clock so shard utilization is measured in ns.
    fluctrace_obs::set_recording(false);
    if ctx.trace {
        fluctrace_obs::install_wall_clock();
    }
    let mut out = Outcome::new(ctx);
    let (start, steal) = (std::time::Instant::now(), host::steal_ticks());
    match name {
        "acl-archive" => acl::run(ctx, &mut out),
        "serve-steady" => serve::run(ctx, &mut out),
        _ => unreachable!("workload names are checked at parse time"),
    }
    // Share of the guest's CPU time the hypervisor took during the run
    // (clock ticks are 1/100 s on Linux).
    let stolen = host::steal_ticks().saturating_sub(steal);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.fact(
        "host_steal_pct",
        format!(
            "{:.1}",
            stolen as f64 / (start.elapsed().as_secs_f64() * cpus as f64)
        ),
    );
    out
}

/// The result line's metric object: every metric of the run's kind, in
/// declaration order, absent per-layer readings as 0.
fn metrics_json(out: &Outcome, trace: bool) -> String {
    let (list, m): (&[(&str, &str)], &Metrics) = if trace {
        (&LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let mut s = String::from("{");
    for (i, (name, unit)) in list.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = m.get(name).unwrap_or(0.0);
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    s.push('}');
    s
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_table(out: &Outcome, trace: bool) {
    let (list, m): (&[(&str, &str)], &Metrics) = if trace {
        (&LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    for (name, unit) in list {
        match m.get(name) {
            Some(v) => println!("  {name:<32} {v:>16.6} {unit}"),
            None => println!("  {name:<32} {:>16} {unit} (layer not called)", 0),
        }
    }
}

fn write_results(
    workload: &str,
    args: &Args,
    host: &Host,
    out: &Outcome,
) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"run_id\":{},\"host\":{},",
        args.seed,
        args.seconds,
        args.trace,
        out.ledger.run_id,
        host.to_json(&out.facts)
    );
    let _ = writeln!(
        doc,
        "\"attempted\":{},\"failed\":{},\"metrics\":{},",
        out.checks.attempted,
        out.checks.failed,
        metrics_json(out, args.trace)
    );
    let reps: Vec<String> = out
        .reps
        .iter()
        .map(|(name, reps)| {
            let values: Vec<String> = reps.iter().map(|&v| num(v)).collect();
            format!("\"{name}\":[{}]", values.join(","))
        })
        .collect();
    let _ = writeln!(doc, "\"reps\":{{{}}},", reps.join(","));
    let spans = out.ledger.to_json_lines();
    let spans: Vec<&str> = spans.lines().collect();
    let _ = writeln!(doc, "\"spans\":[\n{}\n]}}", spans.join(",\n"));
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fluctbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let threads = ANALYSIS_THREADS.min(host.nproc);
    if args.selftest {
        std::process::exit(selftest::run(&host, threads, args.seed));
    }
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        mutant: Mutant::None,
        threads,
    };
    let mut out = run_workload(&args.workload, &ctx);
    if out.checks.attempted == 0 {
        out.checks
            .check(false, || "the run checked no output".to_string());
    }

    println!(
        "fluctbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.to_json(&out.facts));
    print_table(&out, args.trace);
    println!(
        "checks: {} attempted, {} failed (failed_ratio {})",
        out.checks.attempted,
        out.checks.failed,
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64
    );
    for note in &out.checks.notes {
        println!("  FAILED: {note}");
    }
    match write_results(&args.workload, &args, &host, &out) {
        Ok(path) => println!("results: {path}"),
        Err(e) => eprintln!("fluctbench: {e}"),
    }
    let correct = out.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.attempted,
        out.checks.failed,
        metrics_json(&out, args.trace)
    );
    if !correct {
        std::process::exit(1);
    }
}
