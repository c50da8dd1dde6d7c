//! Host descriptor and process memory readings.

use std::fmt::Write as _;

/// What every result records about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// CPU caches of cpu0 as `(level, type, size)`, from sysfs.
    pub caches: Vec<(String, String, String)>,
}

impl Host {
    /// Read the descriptor from the running system.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}"))
                    .map(|s| s.trim().to_string())
                    .ok()
            };
            match (read("level"), read("type"), read("size")) {
                (Some(l), Some(t), Some(s)) => caches.push((l, t, s)),
                _ => break,
            }
        }
        Host {
            nproc,
            rustc: env!("FLUCTBENCH_RUSTC"),
            caches,
        }
    }

    /// The descriptor as a JSON object body.
    pub fn to_json(&self, extra: &[(String, String)]) -> String {
        let mut caches = String::new();
        for (i, (l, t, s)) in self.caches.iter().enumerate() {
            if i > 0 {
                caches.push(',');
            }
            let _ = write!(
                caches,
                "{{\"level\":{l},\"type\":\"{t}\",\"size\":\"{s}\"}}"
            );
        }
        let mut out = format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"obs_clock\":\"{}\",\"caches\":[{caches}]",
            self.nproc,
            self.rustc,
            obs_clock()
        );
        for (k, v) in extra {
            let _ = write!(out, ",\"{k}\":\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// The obs clock currently installed (`wall` or `tick`).
pub fn obs_clock() -> &'static str {
    if fluctrace_obs::wall_clock_installed() {
        "wall"
    } else {
        "tick"
    }
}

/// CPU time the hypervisor stole from this guest, summed over all CPUs,
/// in clock ticks (the `steal` column of `/proc/stat`); 0 when unknown.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A kB field of `/proc/self/status` in MiB; 0 when unknown.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
