//! Summary statistics for the experiment harnesses, plus the
//! persistence-layer activity counters ([`StoreMetrics`]) and the
//! campaign-service activity counters ([`ServiceMetrics`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Activity counters for a [`ModelStore`](crate::ModelStore) instance.
///
/// Thread-safe and lock-free: stores are written from service worker
/// threads. `recoveries` counts every time the persistence layer served
/// degraded state instead of failing — a corrupt or torn version
/// skipped at load time, or a campaign that fresh-started after an
/// unimportable blob.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    saves: AtomicU64,
    loads: AtomicU64,
    recoveries: AtomicU64,
    compactions: AtomicU64,
}

impl StoreMetrics {
    /// Fresh counters, all zero.
    pub fn new() -> StoreMetrics {
        StoreMetrics::default()
    }

    /// Count one `save` call.
    pub fn record_save(&self) {
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `load` call.
    pub fn record_load(&self) {
        self.loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one degraded-but-served recovery event.
    pub fn record_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one compaction pass.
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent point-in-time copy of the counters.
    pub fn snapshot(&self) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            saves: self.saves.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a store's [`StoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetricsSnapshot {
    /// `save` calls.
    pub saves: u64,
    /// `load` calls.
    pub loads: u64,
    /// Degraded-but-served recovery events.
    pub recoveries: u64,
    /// Compaction passes.
    pub compactions: u64,
}

impl fmt::Display for StoreMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "saves={} loads={} recoveries={} compactions={}",
            self.saves, self.loads, self.recoveries, self.compactions
        )
    }
}

/// Activity counters and gauges for a
/// [`CampaignService`](crate::CampaignService).
///
/// Thread-safe and lock-free on the read side: counters are updated by
/// submitters and worker threads while the queue lock is held (so the
/// gauges track the queue state machine exactly), and
/// [`snapshot`](ServiceMetrics::snapshot) can be taken from any thread
/// at any time without stalling the pool.
#[derive(Debug)]
pub struct ServiceMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    cancelled: AtomicU64,
    forks_spawned: AtomicU64,
    forks_completed: AtomicU64,
    forks_cancelled: AtomicU64,
    fork_samples: AtomicU64,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
    per_worker_busy: Vec<AtomicU64>,
}

impl ServiceMetrics {
    /// Fresh counters for a pool of `workers` threads, all zero.
    pub fn for_workers(workers: usize) -> ServiceMetrics {
        ServiceMetrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            forks_spawned: AtomicU64::new(0),
            forks_completed: AtomicU64::new(0),
            forks_cancelled: AtomicU64::new(0),
            fork_samples: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            per_worker_busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Count one accepted submission.
    pub fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one completed campaign, attributed to `worker`.
    ///
    /// # Panics
    ///
    /// Panics when `worker` is out of range for the pool size this was
    /// created with.
    pub fn record_completed(&self, worker: usize) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_worker_busy[worker].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one contained campaign panic.
    pub fn record_panic(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one queued campaign cancelled by an abort shutdown.
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one fork-replay job spawned from a campaign's fork points.
    pub fn record_fork_spawned(&self) {
        self.forks_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one fork-replay job that ran to completion.
    pub fn record_fork_completed(&self) {
        self.forks_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one fork-replay job cancelled (abort shutdown, or dropped
    /// because shutdown had already begun when it was spawned).
    pub fn record_fork_cancelled(&self) {
        self.forks_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one counterfactual sample emitted by a fork replay.
    pub fn record_fork_sample(&self) {
        self.fork_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the current number of queued (not yet started) campaigns.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Publish the current number of in-flight (executing) campaigns.
    pub fn set_in_flight(&self, in_flight: u64) {
        self.in_flight.store(in_flight, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters and gauges.
    pub fn snapshot(&self) -> ServiceMetricsSnapshot {
        ServiceMetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            forks_spawned: self.forks_spawned.load(Ordering::Relaxed),
            forks_completed: self.forks_completed.load(Ordering::Relaxed),
            forks_cancelled: self.forks_cancelled.load(Ordering::Relaxed),
            fork_samples: self.fork_samples.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            per_worker_busy: self
                .per_worker_busy
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a service's [`ServiceMetrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceMetricsSnapshot {
    /// Submissions accepted (probes included).
    pub submitted: u64,
    /// Campaigns that ran to completion (successes, errors, and
    /// contained panics — everything that produced a terminal event
    /// after starting).
    pub completed: u64,
    /// Contained worker panics (a subset of `completed`).
    pub panicked: u64,
    /// Queued campaigns cancelled by an abort shutdown (never started,
    /// so disjoint from `completed`).
    pub cancelled: u64,
    /// Fork-replay jobs spawned from campaigns' fork points (counted
    /// separately from `submitted`: forks are internal queue units, not
    /// user submissions).
    pub forks_spawned: u64,
    /// Fork-replay jobs that ran to completion (disjoint from
    /// `completed`, which counts only user submissions).
    pub forks_completed: u64,
    /// Fork-replay jobs cancelled by an abort shutdown.
    pub forks_cancelled: u64,
    /// Counterfactual samples emitted on handles by fork replays.
    pub fork_samples: u64,
    /// Campaigns queued (ready or parked behind a model key) but not
    /// yet started, at snapshot time.
    pub queue_depth: u64,
    /// Campaigns executing at snapshot time.
    pub in_flight: u64,
    /// Campaigns completed per worker thread, indexed by worker.
    pub per_worker_busy: Vec<u64>,
}

impl fmt::Display for ServiceMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queued={} in_flight={} submitted={} completed={} panicked={} cancelled={} \
             forks_spawned={} forks_completed={} forks_cancelled={} fork_samples={} per_worker=[",
            self.queue_depth,
            self.in_flight,
            self.submitted,
            self.completed,
            self.panicked,
            self.cancelled,
            self.forks_spawned,
            self.forks_completed,
            self.forks_cancelled,
            self.fork_samples,
        )?;
        for (i, busy) in self.per_worker_busy.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{busy}")?;
        }
        write!(f, "]")
    }
}

/// Five-number summary, as plotted in the paper's Figure 10 boxplots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Compute the summary; `None` for an empty slice.
    pub fn from_slice(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(BoxStats {
            min: v[0],
            q25: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q75: quantile(&v, 0.75),
            max: v[v.len() - 1],
        })
    }
}

impl fmt::Display for BoxStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min={:.3} q25={:.3} med={:.3} q75={:.3} max={:.3}",
            self.min, self.q25, self.median, self.q75, self.max
        )
    }
}

/// Linear-interpolated quantile of sorted data.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean (0 for empty input; requires positive values).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let s = BoxStats::from_slice(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q25, 2.0);
        assert_eq!(s.q75, 4.0);
    }

    #[test]
    fn interpolated_quartiles() {
        let s = BoxStats::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.q25 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q75 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(BoxStats::from_slice(&[]), None);
        let s = BoxStats::from_slice(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn store_metrics_count_and_snapshot() {
        let m = StoreMetrics::new();
        m.record_save();
        m.record_save();
        m.record_load();
        m.record_recovery();
        m.record_compaction();
        let s = m.snapshot();
        assert_eq!(s.saves, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.compactions, 1);
        assert_eq!(s.to_string(), "saves=2 loads=1 recoveries=1 compactions=1");
    }

    #[test]
    fn service_metrics_count_and_snapshot() {
        let m = ServiceMetrics::for_workers(2);
        m.record_submit();
        m.record_submit();
        m.record_submit();
        m.set_queue_depth(1);
        m.set_in_flight(1);
        m.record_completed(0);
        m.record_completed(1);
        m.record_panic();
        m.record_cancelled();
        m.record_fork_spawned();
        m.record_fork_spawned();
        m.record_fork_completed();
        m.record_fork_cancelled();
        for _ in 0..4 {
            m.record_fork_sample();
        }
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.panicked, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.forks_spawned, 2);
        assert_eq!(s.forks_completed, 1);
        assert_eq!(s.forks_cancelled, 1);
        assert_eq!(s.fork_samples, 4);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.in_flight, 1);
        assert_eq!(s.per_worker_busy, vec![1, 1]);
        assert_eq!(
            s.to_string(),
            "queued=1 in_flight=1 submitted=3 completed=2 panicked=1 cancelled=1 \
             forks_spawned=2 forks_completed=1 forks_cancelled=1 fork_samples=4 per_worker=[1 1]"
        );
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
