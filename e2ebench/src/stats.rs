//! Percentiles, medians, process resource readings and hypervisor steal.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The candidate tail percentiles, highest first. p99 and above are
/// left out on purpose: on the 2-vCPU host the benchmark was built on,
/// the five-seed quartile spread of the whole-phase p99 was 27% on
/// `warm_hits` with under 3% hypervisor steal (p95's was 8%), wider
/// than any bound the benchmark may set.
const TAIL_PERCENTILES: [f64; 3] = [95.0, 90.0, 75.0];

/// The value at percentile `p` (nearest rank) of sorted `values`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency summary: median and the highest candidate percentile with
/// at least ten samples beyond it (the maximum when there are fewer
/// than ten samples beyond every candidate).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub tail_beyond: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    let (tail_pct, tail) = TAIL_PERCENTILES
        .iter()
        .find(|&&p| beyond(p) >= 10)
        .map_or((100.0, sorted.last().copied().unwrap_or(0.0)), |&p| (p, percentile(&sorted, p)));
    Summary {
        count: n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail,
        tail_beyond: if tail_pct < 100.0 { beyond(tail_pct) } else { 0 },
    }
}

/// Process user+system CPU time in milliseconds (all threads, live and
/// exited), from `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second
    // on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of the machine's CPU accounting and of this process's
/// CPU time.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    pub at: Instant,
    /// Clock ticks the hypervisor stole from the machine's vCPUs, and
    /// all ticks, summed over the vCPUs (`/proc/stat`).
    pub steal: u64,
    pub total: u64,
    pub cpu_ms: f64,
}

pub fn host_sample() -> HostSample {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    HostSample {
        at: Instant::now(),
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
        cpu_ms: process_cpu_ms(),
    }
}

/// Takes a `host_sample` every `period` on a thread of its own, from
/// `start` until `stop`.
pub struct HostMonitor {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<Vec<HostSample>>,
}

impl HostMonitor {
    pub fn start(period: Duration) -> HostMonitor {
        let (stop, stopped) = mpsc::channel();
        let first = host_sample();
        let thread = std::thread::spawn(move || {
            let mut samples = vec![first];
            for k in 1u32.. {
                let due = first.at + period * k;
                match stopped.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Err(mpsc::RecvTimeoutError::Timeout) => samples.push(host_sample()),
                    _ => break,
                }
            }
            samples.push(host_sample());
            samples
        });
        HostMonitor { stop, thread }
    }

    /// Stops the thread, waits for it, and returns every sample, the
    /// last one taken now.
    pub fn stop(self) -> Vec<HostSample> {
        // A send error means the thread has already ended; join reports it.
        let _ = self.stop.send(());
        self.thread.join().expect("host monitor panicked")
    }
}
