//! `serve-steady`: a real `fluctrace_serve::Daemon` (1 shard × 4
//! simulated cores, lossless) on bounded runs, queried open loop from
//! this thread over the socket, one connection at a time.
//!
//! One iteration: capture (single-threaded replay of the daemon's
//! seeded traffic) → one pass of the batch chain over the replay (the
//! first pass is the reference the drained table must equal) → one
//! serving round. A round starts a daemon, sends `snapshot` and polls
//! `drained` every [`PERIOD`], then checks the drained state and shuts
//! the daemon down. `Daemon::wait_drained` is never called: it spins on
//! `yield_now` beside the shard's two busy threads.

use crate::chain::{self, analyse, ChainOut, LOOP_SHARE};
use crate::ledger::Ledger;
use crate::stats::{fastest, highest, median, percentile};
use crate::{Ctx, Outcome};
use fluctrace_core::online::AdaptiveConfig;
use fluctrace_core::{integrate_soa_with_threads, EstimateTable, MappingMode, WindowedIntegrator};
use fluctrace_cpu::{ItemId, SymbolTable, TraceBundle};
use fluctrace_serve::{build_symtab, proto, query, Daemon, ServeConfig, TrafficGen};
use fluctrace_store::{write_bundle_to_vec, StoreConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traffic batches per serving round (16 items of ~8 samples each).
pub const BATCHES: u64 = 5_000;
/// Traffic batches of the round whose drained state is checked through
/// the `table` and `loss` verbs (the `table` document of a full round
/// would dominate the run's memory).
pub const PROTOCOL_BATCHES: u64 = 500;
/// Open-loop query period.
pub const PERIOD: Duration = Duration::from_millis(2);
/// Idle daemon start-ups (no traffic) timed for `setup_s` before the
/// serving rounds; [`STARTS_PER_ROUND`] more follow every round. A
/// start under traffic is not timed: the new shard's threads compete
/// with it from the first instant.
const IDLE_STARTS: usize = 8;
/// Idle start-ups timed after every serving round.
const STARTS_PER_ROUND: usize = 4;
/// Direct `proto::snapshot_doc` renders timed per round (traced runs).
const RENDERS: usize = 200;
/// A round that has not drained after this long has failed.
const ROUND_LIMIT: Duration = Duration::from_secs(60);

/// The daemon configuration for `seed`: lossless (blocking, adaptive
/// thinning off), 1 shard × 4 cores, 32-item windows retaining 8.
pub fn config(seed: u64, batches: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed);
    cfg.shards = 1;
    cfg.cores = 4;
    cfg.window.window_items = 32;
    cfg.window.max_windows = 8;
    cfg.max_batches = Some(batches);
    cfg.blocking = true;
    cfg.adaptive = AdaptiveConfig::disabled();
    cfg
}

/// Readings of one serving round.
struct Round {
    /// Items per second.
    items_per_s: f64,
    latencies_ms: Vec<f64>,
    late_max_ms: f64,
    occupancy_milli: Vec<f64>,
    /// Largest resident set size sampled on the query schedule.
    rss_max_mb: f64,
}

/// Shard 0's traffic of `cfg`, replayed on this thread and merged in
/// `(core, tsc)` order, plus the wall seconds spent inside the
/// generator (the merge is the benchmark's own work). Each generator
/// call is a `serve.traffic` span.
fn replay(l: &mut Ledger, cfg: &ServeConfig, symtab: &Arc<SymbolTable>) -> (TraceBundle, f64) {
    let mut traffic = TrafficGen::new(cfg, 0, Arc::clone(symtab));
    let mut all = TraceBundle::default();
    let mut generating = Duration::ZERO;
    for _ in 0..cfg.max_batches.unwrap_or(0) {
        let t = Instant::now();
        let batch = l.span("serve.traffic", |_| traffic.next_batch());
        generating += t.elapsed();
        all.merge(batch);
    }
    all.sort();
    (all, generating.as_secs_f64())
}

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let until = Instant::now() + ctx.budget.mul_f64(LOOP_SHARE);
    let cfg = config(ctx.seed, BATCHES);
    let symtab = build_symtab(cfg.funcs);
    let freq = cfg.window.freq;
    let group_of = |item: ItemId| Some(format!("core{}", (item.0 >> 32) & 0xff));

    protocol_round(ctx, out, &symtab);
    let mut setup_s = Vec::new();
    idle_starts(ctx, out, IDLE_STARTS, &mut setup_s);

    // Every iteration times one capture, one analysis pass and one
    // serving round, so each phase samples the whole run and no slow
    // spell of the host falls on one phase alone.
    let (mut capture_s, mut analysis_s, mut untraced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<ChainOut> = None;
    let (mut samples, mut store_bytes, mut input_digest) = (0, 0, 0);
    let mut rounds: Vec<Round> = Vec::new();
    let mut render_us = Vec::new();
    let (mut utilization, mut lost, mut closed, mut evicted) = (Vec::new(), 0u64, 0u64, 0u64);
    while rounds.len() < 2 || Instant::now() < until {
        let round = rounds.len();

        // Capture: the daemon's traffic replayed on this thread.
        out.ledger.set_enabled(ctx.trace);
        let (traffic, generating) = replay(&mut out.ledger, &cfg, &symtab);
        capture_s.push(generating);

        // Analysis: the batch chain over the replay. Its first table is
        // the reference every drained daemon must reproduce. Traced runs
        // interleave untraced passes to measure the ledger's overhead.
        let traced = ctx.trace && round.is_multiple_of(2);
        out.ledger.set_enabled(traced);
        let t = Instant::now();
        let root = out.ledger.open("analysis");
        let c = analyse(&mut out.ledger, ctx, &traffic, &symtab, freq, &group_of);
        out.ledger.close(root);
        if traced || !ctx.trace {
            analysis_s.push(t.elapsed().as_secs_f64());
        } else {
            untraced_s.push(t.elapsed().as_secs_f64());
        }
        out.ledger.set_enabled(false);
        match &reference {
            Some(r) => out.checks.check(c.table == r.table, || {
                format!("round {round}: a pass over the same replay gave another table")
            }),
            None => {
                let (conserved, detail) = c.conserves_samples();
                out.checks.check(conserved, || {
                    format!("batch chain over the replay: {detail}")
                });
                // Storage cost of the replay, outside every timed region.
                store_bytes = write_bundle_to_vec(&traffic, StoreConfig::default())
                    .map(|(bytes, _)| bytes.len())
                    .unwrap_or(0);
                out.checks.check(store_bytes > 0, || {
                    "store write of the replay failed".to_string()
                });
                samples = traffic.samples.len();
                input_digest = chain::bundle_digest(&traffic);
                reference = Some(c);
            }
        }
        drop(traffic);
        let reference = reference.as_ref().expect("the first pass set the reference");

        // Serving round.
        if round == 0 {
            trim_heap();
        }
        out.ledger.set_enabled(ctx.trace);
        let t0 = Instant::now();
        let daemon = match out
            .ledger
            .span("serve.start", |_| Daemon::start(cfg, "127.0.0.1:0"))
        {
            Ok(d) => d,
            Err(e) => {
                out.checks.check(false, || format!("daemon start: {e}"));
                break;
            }
        };
        let r = serve_round(out, &daemon, t0);
        let view = &daemon.shards()[0];

        // Drained-state checks, outside the timed interval.
        let (report, table, loss) = {
            let wi = view.integrator.lock();
            (wi.report(), wi.cumulative_table(), wi.loss())
        };
        let loss = view.counters.fold_producer_loss(loss);
        out.checks
            .check(table.as_ref() == Some(&reference.table), || {
                format!("round {round}: drained table differs from the batch chain over the replay")
            });
        out.checks.check(
            loss.samples_lost() == 0 && loss.batches_dropped == 0 && report.conserves_samples(),
            || format!("round {round}: lossy run: {loss:?}"),
        );
        if ctx.trace {
            for _ in 0..RENDERS {
                let t = Instant::now();
                let doc = out.ledger.span("serve.proto", |_| {
                    proto::snapshot_doc(daemon.shards()).to_json()
                });
                std::hint::black_box(&doc);
                render_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        utilization.push(view.counters.utilization_milli() as f64);
        lost += loss.samples_lost();
        closed = report.windows_closed;
        evicted = report.windows_evicted;
        daemon.quiesce();
        daemon.join();
        out.ledger.set_enabled(false);
        rounds.push(r);
        idle_starts(ctx, out, STARTS_PER_ROUND, &mut setup_s);
    }
    let reference = reference.expect("at least one iteration ran");
    let analysis = fastest(&analysis_s);

    // Trace-only: window ingest on the same traffic, single-threaded.
    let mut window_ns = 0u64;
    if ctx.trace {
        out.ledger.set_enabled(true);
        let mut gen = TrafficGen::new(&cfg, 0, Arc::clone(&symtab));
        let mut wi = WindowedIntegrator::new(Arc::clone(&symtab), cfg.window);
        for _ in 0..BATCHES {
            let batch = gen.next_batch();
            let t = Instant::now();
            out.ledger.span("core.window", |_| wi.ingest(batch));
            window_ns += t.elapsed().as_nanos() as u64;
        }
        out.ledger.span("core.window", |_| wi.finish_stream());
        out.ledger.set_enabled(false);
        out.checks.check(wi.report().windows_closed == closed, || {
            "single-threaded window replay closed a different window count".to_string()
        });
    }

    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.items_per_s).collect();
    let late_max = rounds.iter().map(|r| r.late_max_ms).fold(0.0, f64::max);
    out.reps.push(("setup_s", setup_s.clone()));
    out.reps.push(("capture_s", capture_s.clone()));
    out.reps.push(("analysis_s", analysis_s.clone()));
    out.reps.push(("serve_items_per_s", rates.clone()));
    out.e2e.set("setup_s", fastest(&setup_s));
    out.e2e.set("capture_s", fastest(&capture_s));
    out.e2e.set("analysis_s", analysis);
    out.e2e.set(
        "store_bytes_per_sample",
        store_bytes as f64 / samples.max(1) as f64,
    );
    out.e2e.set("serve_items_per_s", highest(&rates));
    // The daemon's memory while it serves, from the first round: later
    // rounds also hold the thread stacks and heap pages the allocator
    // keeps from the daemons before them, which grow with the number of
    // rounds a run fits in.
    out.e2e
        .set("peak_rss_mb", rounds.first().map_or(0.0, |r| r.rss_max_mb));

    let m = &mut out.layers;
    m.set("serve.snapshot.p50_ms", percentile(&latencies, 50.0));
    m.set("serve.snapshot.p99_ms", percentile(&latencies, 99.0));
    m.set("serve.snapshot.samples", latencies.len() as f64);
    m.set("harness.query_late_max_ms", late_max);
    if ctx.trace {
        chain::chain_layers(out, "analysis", &reference, &analysis_s, &untraced_s);
        let l = &out.ledger;
        let traffic_ns: u64 = l
            .by_name("serve.traffic")
            .map(|i| l.spans()[i].dur_ns())
            .sum();
        let traffic_samples = samples * capture_s.len();
        let m = &mut out.layers;
        m.set(
            "serve.traffic.ns_per_sample",
            traffic_ns as f64 / traffic_samples.max(1) as f64,
        );
        m.set(
            "core.window.ns_per_sample",
            window_ns as f64 / samples.max(1) as f64,
        );
        m.set("core.window.closed", closed as f64);
        m.set("core.window.evicted", evicted as f64);
        m.set("serve.proto.snapshot_render_us", median(&render_us));
        m.set("serve.shard.utilization_milli", median(&utilization));
        let occ: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.occupancy_milli.clone())
            .collect();
        m.set(
            "serve.shard.occupancy_milli",
            occ.iter().sum::<f64>() / occ.len().max(1) as f64,
        );
        m.set("serve.shard.samples_lost", lost as f64);
    }

    let cdf: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.2}", percentile(&latencies, p)))
        .collect();
    out.fact("rounds", rounds.len());
    out.fact("batches_per_round", BATCHES);
    out.fact("items_per_round", reference.table.len());
    out.fact("samples_per_round", samples);
    out.fact("windows_closed_per_round", closed);
    out.fact("snapshot_period_ms", PERIOD.as_secs_f64() * 1e3);
    out.fact("snapshot_samples", latencies.len());
    out.fact(
        "snapshot_beyond_p99",
        crate::stats::beyond(&latencies, 99.0),
    );
    out.fact("snapshot_ms", cdf.join(" "));
    out.fact("query_late_max_ms", format!("{late_max:.3}"));
    out.fact("shards", cfg.shards);
    out.fact("simulated_cores", cfg.cores);
    out.fact("daemon_threads", 2 * cfg.shards + 1);
    out.fact("analysis_threads", ctx.threads);
    out.fact("input_digest", format!("{input_digest:016x}"));
}

/// Hand the heap's free pages back to the system, so the resident set
/// sampled during the first round is live data and the daemon, not what
/// the replay and the analysis pass before it freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// `n` idle daemon start-ups (bind + shard spawn, no traffic) timed into
/// `reps`.
fn idle_starts(ctx: &Ctx, out: &mut Outcome, n: usize, reps: &mut Vec<f64>) {
    for _ in 0..n {
        let t = Instant::now();
        match Daemon::start(config(ctx.seed, 0), "127.0.0.1:0") {
            Ok(daemon) => {
                reps.push(t.elapsed().as_secs_f64());
                daemon.quiesce();
                daemon.join();
            }
            Err(e) => out.checks.check(false, || format!("daemon start: {e}")),
        }
    }
}

/// A small bounded round checked through the protocol: the drained
/// `table` verb carries the batch chain's table over the same traffic,
/// and `loss` reports conservation.
fn protocol_round(ctx: &Ctx, out: &mut Outcome, symtab: &Arc<SymbolTable>) {
    let cfg = config(ctx.seed, PROTOCOL_BATCHES);
    let (traffic, _) = replay(&mut out.ledger, &cfg, symtab);
    let want = EstimateTable::from_soa(&integrate_soa_with_threads(
        &traffic,
        symtab,
        cfg.window.freq,
        MappingMode::Intervals,
        ctx.threads,
    ));
    let want = serde_json::to_string(&want).expect("tables serialize");
    let daemon = match Daemon::start(cfg, "127.0.0.1:0") {
        Ok(d) => d,
        Err(e) => return out.checks.check(false, || format!("daemon start: {e}")),
    };
    let addr = daemon.addr().to_string();
    let t0 = Instant::now();
    while !is_drained(&query(&addr, "drained")) && t0.elapsed() < ROUND_LIMIT {
        std::thread::sleep(PERIOD);
    }
    let table = query(&addr, "table");
    out.checks
        .check(table.as_ref().is_ok_and(|t| t.contains(&want)), || {
            "`table` response differs from the batch chain over the replay".to_string()
        });
    let loss = query(&addr, "loss");
    out.checks.check(
        parses_clean(&loss)
            && loss
                .as_ref()
                .is_ok_and(|l| l.contains("\"conserves_samples\":true")),
        || format!("`loss` response: {}", truncate(&loss)),
    );
    daemon.quiesce();
    daemon.join();
}

fn is_drained(resp: &Result<String, String>) -> bool {
    resp.as_ref()
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(s.trim()).ok())
        .is_some_and(|v| v["drained"] == true)
}

/// Drive one round's open-loop query schedule until the daemon reports
/// drained. `t0` is when traffic started (just before the daemon).
fn serve_round(out: &mut Outcome, daemon: &Daemon, t0: Instant) -> Round {
    let addr = daemon.addr().to_string();
    let counters = &daemon.shards()[0].counters;
    let sched = Instant::now();
    let mut r = Round {
        items_per_s: 0.0,
        latencies_ms: Vec::new(),
        late_max_ms: 0.0,
        occupancy_milli: Vec::new(),
        rss_max_mb: 0.0,
    };
    let root = out.ledger.open("serve.run");
    for k in 0u32.. {
        let due = sched + PERIOD * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        r.late_max_ms = r.late_max_ms.max(late.as_secs_f64() * 1e3);
        let resp = out
            .ledger
            .span("serve.snapshot", |_| query(&addr, "snapshot"));
        r.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
        out.checks.check(parses_clean(&resp), || {
            format!("snapshot {k}: bad response {:?}", truncate(&resp))
        });
        if out.ledger.enabled() {
            r.occupancy_milli
                .push(counters.occupancy_milli.load(Ordering::Acquire) as f64);
        }
        r.rss_max_mb = r.rss_max_mb.max(crate::host::rss_mb());
        let resp = query(&addr, "drained");
        out.checks.check(parses_clean(&resp), || {
            format!("drained poll {k}: bad response {:?}", truncate(&resp))
        });
        if is_drained(&resp) {
            let items = counters.items.load(Ordering::Acquire);
            r.items_per_s = items as f64 / t0.elapsed().as_secs_f64();
            break;
        }
        if t0.elapsed() > ROUND_LIMIT {
            out.checks.check(false, || {
                "daemon did not drain within the round limit".to_string()
            });
            break;
        }
    }
    out.ledger.close(root);
    r
}

fn parses_clean(resp: &Result<String, String>) -> bool {
    resp.as_ref()
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(s.trim()).ok())
        .is_some_and(|v| v.get("error").is_none())
}

fn truncate(resp: &Result<String, String>) -> String {
    match resp {
        Ok(s) => s.chars().take(120).collect(),
        Err(e) => e.clone(),
    }
}
