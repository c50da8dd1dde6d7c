//! One shard: a seeded generator thread feeding a windowed-integrator
//! worker thread over a bounded channel, with the online tracer's two
//! overload policies composed in front of it.
//!
//! * **Back-pressure** — `blocking: true` blocks the generator on a
//!   full channel (lossless); `false` drops whole batches and counts
//!   them (`batches_dropped` / `samples_dropped`), exactly like
//!   `OnlineTracer::try_submit`.
//! * **Adaptive effective-reset** — every submission feeds channel
//!   occupancy to a per-shard [`AdaptiveR`]; a factor above 1× thins
//!   the batch to every factor-th sample, counted in
//!   `samples_thinned`.
//!
//! The worker folds `ring_empty` idle time into the shard's
//! [`WaitLog`] — one [`WaitCause::RingEmpty`] edge per empty-poll,
//! measured in obs clock ticks — and the idle/busy tick split becomes
//! the `serve.worker.utilization_milli` gauge surfaced in snapshots
//! and `/metrics`.

use crate::{ServeConfig, TrafficGen};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use fluctrace_core::online::AdaptiveR;
use fluctrace_core::{LossStats, WindowReport, WindowedIntegrator};
use fluctrace_cpu::{SymbolTable, TraceBundle};
use fluctrace_obs as obs;
use fluctrace_rt::{WaitCause, WaitEdge, WaitLog};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Monotonic counters of one shard, written by its two threads and
/// read by the protocol handlers. All counters are cumulative totals
/// (stores of the latest value, not deltas), so a reader sees a
/// consistent-enough picture without locking the integrator.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Batches the generator produced (including dropped ones).
    pub batches_produced: AtomicU64,
    /// Batches the worker ingested.
    pub batches_ingested: AtomicU64,
    /// Items completed by the integrator.
    pub items: AtomicU64,
    /// Samples the integrator received.
    pub samples_seen: AtomicU64,
    /// Samples attributed to completed items.
    pub samples_attributed: AtomicU64,
    /// Windows closed.
    pub windows_closed: AtomicU64,
    /// Window summaries evicted by retention.
    pub windows_evicted: AtomicU64,
    /// Approximate bytes of evicted summaries.
    pub evicted_bytes: AtomicU64,
    /// Anomaly episodes recorded.
    pub episodes: AtomicU64,
    /// Producer-side: whole batches dropped on a full channel.
    pub batches_dropped: AtomicU64,
    /// Producer-side: samples inside those dropped batches.
    pub samples_dropped: AtomicU64,
    /// Producer-side: samples shed by adaptive thinning.
    pub samples_thinned: AtomicU64,
    /// Worker ticks spent inside `ingest` (obs clock).
    pub busy_ticks: AtomicU64,
    /// Worker ticks spent blocked on an empty ring (obs clock); always
    /// equals the sum of this shard's `ring_empty` wait-edge cycles.
    pub idle_ticks: AtomicU64,
    /// Channel occupancy at the last submission, in milli-units.
    pub occupancy_milli: AtomicU64,
    /// Set once the worker has finished the stream (channel closed and
    /// final window flushed).
    pub drained: AtomicBool,
}

impl ShardCounters {
    /// Worker utilization in milli-units: `busy / (busy + idle)`.
    /// 1000 = never waited; 0 before the worker has done anything.
    pub fn utilization_milli(&self) -> u64 {
        let busy = self.busy_ticks.load(Ordering::Acquire);
        let idle = self.idle_ticks.load(Ordering::Acquire);
        let total = busy.saturating_add(idle);
        busy.saturating_mul(1000).checked_div(total).unwrap_or(0)
    }

    /// Producer-side shed counters merged into a [`LossStats`] base
    /// (the integrator's ledger only sees what crossed the channel).
    pub fn fold_producer_loss(&self, mut loss: LossStats) -> LossStats {
        loss.batches_dropped += self.batches_dropped.load(Ordering::Acquire);
        loss.samples_dropped += self.samples_dropped.load(Ordering::Acquire);
        loss.samples_thinned += self.samples_thinned.load(Ordering::Acquire);
        loss
    }
}

/// One running shard: the two thread handles plus the shared state the
/// protocol layer reads.
pub struct ShardHandle {
    /// Shard index (also the `core` id of its wait edges).
    pub id: u32,
    /// The windowed integrator, locked only for ingest and queries.
    pub integrator: Arc<Mutex<WindowedIntegrator>>,
    /// `ring_empty` wait edges of the worker.
    pub wait: Arc<Mutex<WaitLog>>,
    /// Live counters.
    pub counters: Arc<ShardCounters>,
    producer: Option<JoinHandle<()>>,
    consumer: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Join both threads (the producer must already be finite or
    /// stopped via the daemon's stop flag, or this blocks forever).
    pub fn join(&mut self) {
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.consumer.take() {
            let _ = h.join();
        }
    }
}

/// Copy the integrator's cumulative report into the shard counters and
/// the global `serve.*` obs metrics (deltas against `last`).
fn publish(counters: &ShardCounters, report: &WindowReport, last: &WindowReport) {
    counters
        .items
        .store(report.items_processed, Ordering::Release);
    counters
        .samples_seen
        .store(report.samples_seen, Ordering::Release);
    counters
        .samples_attributed
        .store(report.samples_attributed, Ordering::Release);
    counters
        .windows_closed
        .store(report.windows_closed, Ordering::Release);
    counters
        .windows_evicted
        .store(report.windows_evicted, Ordering::Release);
    counters
        .evicted_bytes
        .store(report.evicted_bytes, Ordering::Release);
    counters.episodes.store(report.episodes, Ordering::Release);
    if obs::recording() {
        obs::counter!("serve.traffic.items")
            .add(report.items_processed.saturating_sub(last.items_processed));
        obs::counter!("serve.windows.closed")
            .add(report.windows_closed.saturating_sub(last.windows_closed));
        obs::counter!("serve.windows.evicted")
            .add(report.windows_evicted.saturating_sub(last.windows_evicted));
        obs::counter!("serve.windows.evicted_bytes")
            .add(report.evicted_bytes.saturating_sub(last.evicted_bytes));
        obs::counter!("serve.anomaly.episodes").add(report.episodes.saturating_sub(last.episodes));
    }
}

fn run_producer(
    config: ServeConfig,
    id: u32,
    symtab: Arc<SymbolTable>,
    tx: Sender<TraceBundle>,
    counters: Arc<ShardCounters>,
    stop: Arc<AtomicBool>,
) {
    let mut traffic = TrafficGen::new(&config, id, symtab);
    let mut adaptive = AdaptiveR::new(config.adaptive);
    let cap = tx.capacity().max(1);
    let mut produced = 0u64;
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        if let Some(max) = config.max_batches {
            if produced >= max {
                break;
            }
        }
        let mut batch = traffic.next_batch();
        produced += 1;
        counters.batches_produced.store(produced, Ordering::Release);

        // Overload policy 1: occupancy-driven adaptive thinning.
        let occupancy = tx.len() as f64 / cap as f64;
        let occ_milli = (occupancy * 1000.0) as u64;
        counters.occupancy_milli.store(occ_milli, Ordering::Release);
        if obs::recording() {
            obs::gauge!("serve.queue.occupancy_milli").record(occ_milli);
        }
        let thinned = adaptive.thin(occupancy, &mut batch);
        if thinned > 0 {
            counters
                .samples_thinned
                .fetch_add(thinned, Ordering::AcqRel);
        }

        // Overload policy 2: back-pressure or counted drop.
        if config.blocking {
            if tx.send(batch).is_err() {
                break;
            }
        } else {
            match tx.try_send(batch) {
                Ok(()) => {}
                Err(TrySendError::Full(b)) => {
                    counters.batches_dropped.fetch_add(1, Ordering::AcqRel);
                    counters
                        .samples_dropped
                        .fetch_add(b.samples.len() as u64, Ordering::AcqRel);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        if obs::recording() {
            obs::counter!("serve.traffic.batches").inc();
        }
    }
    // Dropping the sender closes the channel; the worker drains what is
    // queued, finishes the stream, and raises `drained`.
}

/// Close a `ring_empty` wait that began at tick `t0`: fold its length
/// into the shard's idle ticks and its wait log.
fn record_ring_empty(id: u32, t0: u64, wait: &Mutex<WaitLog>, counters: &ShardCounters) {
    let cycles = obs::now_ticks().wrapping_sub(t0);
    counters.idle_ticks.fetch_add(cycles, Ordering::AcqRel);
    wait.lock().record(WaitEdge {
        core: id,
        tsc: t0,
        cycles,
        cause: WaitCause::RingEmpty,
        peer: id,
    });
}

fn run_consumer(
    id: u32,
    rx: Receiver<TraceBundle>,
    integrator: Arc<Mutex<WindowedIntegrator>>,
    wait: Arc<Mutex<WaitLog>>,
    counters: Arc<ShardCounters>,
) {
    let mut last = WindowReport::default();
    let mut ingested = 0u64;
    loop {
        // Idle accounting: an empty poll means the worker is about to
        // block on its ring — the `ring_empty` wait of the staged
        // pipelines, measured here in obs clock ticks.
        let waited = if rx.is_empty() {
            Some(obs::now_ticks())
        } else {
            None
        };
        let received = rx.recv();
        if let Some(t0) = waited {
            record_ring_empty(id, t0, &wait, &counters);
        }
        let Ok(batch) = received else {
            break;
        };
        let t0 = obs::now_ticks();
        let report = {
            let mut wi = integrator.lock();
            wi.ingest(batch);
            wi.report()
        };
        counters
            .busy_ticks
            .fetch_add(obs::now_ticks().wrapping_sub(t0), Ordering::AcqRel);
        ingested += 1;
        counters.batches_ingested.store(ingested, Ordering::Release);
        publish(&counters, &report, &last);
        if obs::recording() {
            obs::gauge!("serve.worker.utilization_milli").record(counters.utilization_milli());
        }
        last = report;
    }
    // Channel closed: account for truncated items and flush the final
    // partial window, then publish the frozen totals.
    let report = {
        let mut wi = integrator.lock();
        wi.finish_stream();
        wi.report()
    };
    publish(&counters, &report, &last);
    if obs::recording() {
        obs::gauge!("serve.worker.utilization_milli").record(counters.utilization_milli());
    }
    counters.drained.store(true, Ordering::Release);
}

/// Spawn one shard's generator + worker pair.
pub fn spawn_shard(
    config: &ServeConfig,
    id: u32,
    symtab: Arc<SymbolTable>,
    stop: Arc<AtomicBool>,
) -> ShardHandle {
    let (tx, rx) = bounded::<TraceBundle>(config.channel_capacity.max(1));
    let integrator = Arc::new(Mutex::new(WindowedIntegrator::new(
        Arc::clone(&symtab),
        config.window,
    )));
    let wait = Arc::new(Mutex::new(WaitLog::new(config.wait_capacity)));
    let counters = Arc::new(ShardCounters::default());

    let producer = {
        let config = *config;
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || run_producer(config, id, symtab, tx, counters, stop))
    };
    let consumer = {
        let integrator = Arc::clone(&integrator);
        let wait = Arc::clone(&wait);
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || run_consumer(id, rx, integrator, wait, counters))
    };

    ShardHandle {
        id,
        integrator,
        wait,
        counters,
        producer: Some(producer),
        consumer: Some(consumer),
    }
}
