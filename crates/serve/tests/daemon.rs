//! End-to-end daemon tests: drained-shutdown equality with the batch
//! pipeline, snapshot byte-stability, the protocol surface, and the
//! Prometheus endpoint.

use fluctrace_core::{integrate, CumulativeMode, EstimateTable, MappingMode};
use fluctrace_cpu::TraceBundle;
use fluctrace_serve::{build_symtab, query, Daemon, ServeConfig, TrafficGen};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Lossless bounded config: blocking submission, thinning off — the
/// mode whose drained cumulative table must equal the batch run.
fn lossless(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed);
    cfg.shards = 2;
    cfg.cores = 2;
    cfg.max_batches = Some(24);
    cfg.window.window_items = 16;
    cfg.window.max_windows = 4;
    cfg
}

/// Replay one shard's full stream offline and return the batch-pipeline
/// estimate table — the golden the drained daemon must reproduce.
fn batch_table(cfg: &ServeConfig, shard: u32) -> EstimateTable {
    let symtab = build_symtab(cfg.funcs);
    let mut traffic = TrafficGen::new(cfg, shard, Arc::clone(&symtab));
    let mut all = TraceBundle::default();
    for _ in 0..cfg.max_batches.expect("bounded config") {
        all.merge(traffic.next_batch());
    }
    all.sort();
    let it = integrate(&all, &symtab, cfg.window.freq, MappingMode::Intervals);
    EstimateTable::from_integrated(&it)
}

#[test]
fn drained_cumulative_tables_equal_the_batch_run() {
    let cfg = lossless(1234);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let response = query(&addr, "table").unwrap();
    for shard in 0..cfg.shards as u32 {
        let expected = serde_json::to_string(&batch_table(&cfg, shard)).unwrap();
        assert!(
            response.contains(&expected),
            "shard {shard} cumulative table != batch pipeline table\n\
             response: {response}\nexpected fragment: {expected}"
        );
    }
    // Byte-stable across repeated queries once drained.
    assert_eq!(response, query(&addr, "table").unwrap());

    let loss = query(&addr, "loss").unwrap();
    assert!(loss.contains("\"conserves_samples\":true"), "{loss}");
    // Lossless mode: nothing dropped, evicted, thinned, or discarded.
    for counter in [
        "\"batches_dropped\":0",
        "\"samples_dropped\":0",
        "\"samples_thinned\":0",
        "\"samples_evicted\":0",
        "\"samples_discarded\":0",
    ] {
        assert!(loss.contains(counter), "missing {counter} in {loss}");
    }

    daemon.quiesce();
    daemon.join();
}

#[test]
fn snapshot_double_query_is_byte_identical_after_drain() {
    let cfg = lossless(77);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let a = query(&addr, "snapshot").unwrap();
    let b = query(&addr, "snapshot").unwrap();
    assert_eq!(a, b, "drained snapshot must be frozen");
    assert!(a.contains("serve.total.items"));
    assert!(a.contains("serve.shard000.windows_closed"));
    assert!(a.contains("serve.shard001.worker.utilization_milli"));
    assert!(a.contains("serve.shard000.wait.ring_empty_cycles"));
    assert!(a.contains("serve.total.loss.samples_spin"));

    let drained = query(&addr, "drained").unwrap();
    assert_eq!(drained.trim(), "{\"drained\":true}");

    // Windows: bounded run of 24 batches × 4 items × 2 cores = 192
    // items per shard at 16-item windows -> 12 closed, 4 retained.
    let windows = query(&addr, "windows 2").unwrap();
    assert!(windows.contains("\"windows_closed\":12"), "{windows}");
    assert!(windows.contains("\"windows_evicted\":8"), "{windows}");

    let episodes = query(&addr, "episodes").unwrap();
    assert!(episodes.contains("\"shards\":["), "{episodes}");

    daemon.quiesce();
    daemon.join();
}

#[test]
fn metrics_endpoint_serves_prometheus_on_the_same_listener() {
    let cfg = lossless(9);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    daemon.wait_drained();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain"));
    // The pinned catalog is pre-registered, so core metrics appear even
    // when this test process never ran the batch pipeline...
    assert!(response.contains("# TYPE fluctrace_core_online_items_processed counter"));
    // ...and the serve.* series are present and live.
    assert!(response.contains("# TYPE fluctrace_serve_windows_closed counter"));
    assert!(response.contains("# TYPE fluctrace_serve_worker_utilization_milli gauge"));

    // Unknown paths 404 without killing the listener.
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    daemon.quiesce();
    daemon.join();
}

#[test]
fn malformed_requests_get_error_documents() {
    let cfg = lossless(5);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    assert!(query(&addr, "bogus").unwrap().contains("\"error\""));
    assert!(query(&addr, "windows").unwrap().contains("\"error\""));
    assert!(query(&addr, "windows -3").unwrap().contains("\"error\""));
    // The daemon survives malformed input.
    assert!(query(&addr, "drained").unwrap().contains("true"));

    daemon.quiesce();
    daemon.join();
}

/// Send raw bytes as one request and read the whole answer.
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn oversized_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    let cfg = lossless(6);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    // 1 MiB with no newline: the daemon stops reading at its bound and
    // answers instead of buffering until the read timeout.
    let response = raw_request(daemon.addr(), &vec![b'x'; 1 << 20]);
    assert!(response.contains("\"error\""), "{response}");
    assert!(response.contains("longer than"), "{response}");
    // Invalid UTF-8 is an error document too, not silence.
    let response = raw_request(daemon.addr(), b"snap\xffshot\n");
    assert!(response.contains("not UTF-8"), "{response}");

    let snapshot = query(&addr, "snapshot").unwrap();
    assert!(snapshot.contains("serve.total.items"), "{snapshot}");

    daemon.quiesce();
    daemon.join();
}

#[test]
fn quiesce_drains_an_unbounded_run_and_answers_with_final_state() {
    let mut cfg = lossless(31);
    cfg.max_batches = None; // unbounded: only quiesce ends it
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();

    // Let it work until every shard has closed a few windows.
    for view in daemon.shards() {
        while view
            .counters
            .windows_closed
            .load(std::sync::atomic::Ordering::Acquire)
            < 3
        {
            std::thread::yield_now();
        }
    }

    let finale = query(&addr, "quiesce").unwrap();
    assert!(finale.contains("\"quiesced\":true"), "{finale}");
    assert!(finale.contains("\"snapshot\":"), "{finale}");
    assert!(finale.contains("\"tables\":"), "{finale}");

    // After quiesce every shard is drained and the ledger conserves.
    let shards = daemon.shards().to_vec();
    daemon.join();
    for view in shards {
        assert!(view
            .counters
            .drained
            .load(std::sync::atomic::Ordering::Acquire));
        assert!(view.integrator.lock().report().conserves_samples());
    }
}

#[test]
fn folded_mode_serves_totals_instead_of_tables() {
    let mut cfg = lossless(64);
    cfg.window.cumulative = CumulativeMode::Folded;
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let tables = query(&addr, "table").unwrap();
    assert!(tables.contains("\"mode\":\"folded\""), "{tables}");
    assert!(tables.contains("\"table\":null"), "{tables}");
    assert!(tables.contains("\"marked_cycles\":"), "{tables}");

    daemon.quiesce();
    daemon.join();
}
